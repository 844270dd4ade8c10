"""Many-body operators as dense matrices over a Fock-sector basis.

Everything is correctness-first dense linear algebra: the sector dimension
is capped by the desk-scale guard in :mod:`ducclab.shape`, so Hamiltonians,
exponentials and logarithms are ordinary LAPACK-sized problems.  hbar = 1
throughout.  Integrals and Hamiltonians keep the dtype of their data, float64
for every Hubbard, pairing and FCIDUMP system; ``H @ X`` applies H, a real H
acting on a complex ``X`` as one real product.  The stationary pipeline of a
real H runs in real arithmetic (the log of a real sweep unitary is real, and
so is the series product of a real generator); propagation stays complex.

Every Hamiltonian is an :class:`IntegralSet` -- the Hubbard chain and the
pairing model as well as FCIDUMP input -- and one Slater-Condon build,
:func:`hamiltonian_from_integrals`, turns it into a sector matrix.  The
build loops over the annihilated orbital or pair and vectorises over the
basis masks and the created orbitals or pairs.

The sweep unitaries are direct sums of many small blocks; their log is the
sweep's generator certificate (the downfolding replays the sweep's record).
:func:`direct_sum_blocks` finds the blocks of a matrix's exact-zero pattern,
and :func:`logm_unitary` takes the log of the blocks of each size in one
batched symmetric or Hermitian eigenproblem, with no Schur form: of
``(2I - U - U^+)/4``, in the arithmetic of the stack, or of the Cayley
transform for a stack with an eigenvalue near -1.  A one-block unitary is
its own stack, uncopied: at its ``eigh`` only U, that matrix and the
``eigh``'s outputs are live.  Every exponential of a generator, and its
derivative, is one certified Taylor action on vectors,
:func:`exp_anti_hermitian`.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .errors import BranchCutError, InvalidDimensionError, OperatorPropertyError
from .fock import FockBasis, string_elements
from .shape import FcidumpLines, class_members, read_fcidump_lines


def _inexact(a) -> np.ndarray:
    """``a`` as a float64 array, or a complex one when its entries are."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.float64), copy=False)


class QOperator:
    """A Hamiltonian as a dense matrix tied to its FockBasis, float64 unless
    its entries are complex; ``H @ X`` applies it (:func:`_matmul`).
    Generators, unitaries and velocities are plain ``np.ndarray``s."""

    def __init__(self, matrix: np.ndarray, basis: FockBasis):
        matrix = _inexact(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidDimensionError(f"operator matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != basis.size:
            raise InvalidDimensionError(
                f"matrix dimension {matrix.shape[0]} != basis size {basis.size}")
        self.matrix = matrix
        self.basis = basis

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return _matmul(self.matrix, X)

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T))


class IntegralSet:
    """One- and two-body integrals over M spin orbitals (Hartree units).

    Two-body integrals are stored in the antisymmetrized physicist
    convention ``v[p,q,r,s] = <pq||rs>``; the Hamiltonian they define is
    ``sum h[p,q] a+_p a_q + 1/4 sum <pq||rs> a+_p a+_q a_s a_r + core``.
    """

    def __init__(self, one_body: np.ndarray, two_body: np.ndarray,
                 core_energy: float = 0.0):
        h = _inexact(one_body)
        v = _inexact(two_body)
        M = h.shape[0]
        if h.shape != (M, M) or v.shape != (M, M, M, M):
            raise InvalidDimensionError("integral arrays have inconsistent shapes")
        if not (np.isfinite(h).all() and np.isfinite(v).all() and math.isfinite(core_energy)):
            raise OperatorPropertyError("integrals have non-finite entries")
        scale = max(1.0, float(np.abs(h).max(initial=0.0)), float(np.abs(v).max(initial=0.0)))
        if np.linalg.norm(h - h.conj().T) > 1e-10 * scale:
            raise OperatorPropertyError("one-body integrals are not Hermitian")
        for perm, sgn in (((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1)):
            if np.abs(v - sgn * v.transpose(perm)).max() > 1e-10 * scale:
                raise OperatorPropertyError("two-body integrals are not antisymmetrized")
        if np.abs(v - v.transpose(2, 3, 0, 1).conj()).max() > 1e-10 * scale:
            raise OperatorPropertyError("two-body integrals are not Hermitian")
        self.one_body = h
        self.two_body = v
        self.core_energy = float(core_energy)
        self.M = M

    @classmethod
    def from_chemist(cls, one_body: np.ndarray, two_body_chem: np.ndarray,
                     core_energy: float = 0.0) -> "IntegralSet":
        """Ingest chemist-notation integrals (pq|rs) and antisymmetrize.

        <pq|rs> = (pr|qs), so <pq||rs> = (pr|qs) - (ps|qr).
        """
        phys = np.asarray(two_body_chem).transpose(0, 2, 1, 3)
        v = phys - phys.transpose(0, 1, 3, 2)
        return cls(one_body, v, core_energy)


def hamiltonian_from_integrals(ints: IntegralSet, basis: FockBasis) -> QOperator:
    """Dense sector Hamiltonian of an integral set (Slater-Condon rules).

    One pass per annihilated orbital ``q`` of ``sum h[p,q] a+_p a_q``, then
    one per annihilated pair ``r < s`` of ``sum_{p<q} <pq||rs> a+_p a+_q a_s
    a_r``, in ascending order: every matrix element sums its terms in the
    order of a per-determinant application of the same strings.  A pass
    takes the elements of its strings from :func:`ducclab.fock.string_elements`;
    every pair of a basis column and a string reaches its own matrix
    element, so one fancy-index add is exact.  Strings with a zero
    coefficient are skipped: they add nothing, and the determinants they
    reach need not lie in the basis.
    """
    if ints.M != basis.M:
        raise InvalidDimensionError(
            f"integral orbital count {ints.M} != basis orbital count {basis.M}")
    M, masks = basis.M, basis.mask_array
    mat = np.zeros((basis.size, basis.size), np.result_type(ints.one_body, ints.two_body))
    mat[np.diag_indices(basis.size)] += ints.core_energy
    orbitals = np.arange(M)[:, None]
    pairs = np.array(list(combinations(range(M), 2)), dtype=np.int64).reshape(-1, 2)
    passes = chain((((q,), orbitals, ints.one_body[:, q]) for q in range(M)),
                   (((r, s), pairs, ints.two_body[pairs[:, 0], pairs[:, 1], r, s])
                    for r, s in pairs.tolist()))
    for annihilated, created, coeffs in passes:
        nonzero = np.flatnonzero(coeffs)
        cols, string, rows, signs = string_elements(masks, annihilated, created[nonzero])
        mat[rows, cols] += coeffs[nonzero][string] * signs
    return QOperator(mat, basis)


def hubbard_integrals(L: int, t: float, U: float) -> IntegralSet:
    """Open-boundary Hubbard chain, H = -t sum (c+ c + h.c.) + U sum n_up n_dn,
    as an IntegralSet.  Spin orbital p = 2*site + spin (spin 0 = up, 1 = down)."""
    M = 2 * L
    h = np.zeros((M, M))
    for i in range(L - 1):
        for sp in (0, 1):
            p, q = 2 * i + sp, 2 * (i + 1) + sp
            h[p, q] = h[q, p] = -t
    chem = np.zeros((M, M, M, M))
    for i in range(L):
        up, dn = 2 * i, 2 * i + 1
        chem[up, up, dn, dn] = U
        chem[dn, dn, up, up] = U
    return IntegralSet.from_chemist(h, chem)


def pairing_integrals(levels: int, g: float, spacing: float = 1.0) -> IntegralSet:
    """Picket-fence pairing model as an IntegralSet: doubly degenerate levels
    eps_p = p*spacing and H = sum eps_p n_p - g sum_{pq} P+_p P_q with
    P+_p = a+_{p,up} a+_{p,dn}, spin orbital 2*p + spin."""
    M = 2 * levels
    h = np.zeros((M, M))
    v = np.zeros((M, M, M, M))
    for p in range(levels):
        h[2 * p, 2 * p] = h[2 * p + 1, 2 * p + 1] = spacing * p
        for q in range(levels):
            for (a, b), s1 in (((2 * p, 2 * p + 1), 1), ((2 * p + 1, 2 * p), -1)):
                for (c, d), s2 in (((2 * q, 2 * q + 1), 1), ((2 * q + 1, 2 * q), -1)):
                    v[a, b, c, d] = -g * s1 * s2
    return IntegralSet(h, v)


def direct_sum_blocks(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected blocks of the exact-zero pattern of ``A``.

    Two indices share a block when a chain of nonzero entries ``A[i, j]``
    or ``A[j, i]`` links them, so ``A`` is the direct sum of its blocks
    ``A[np.ix_(b, b)]``.  Every index carries the smallest index it is known
    to be linked to; each round takes the minimum over the pattern's
    neighbours and then jumps pointers (``labels = labels[labels]``), until
    every index carries the smallest index of its block.  The blocks come
    sorted by smallest index, members ascending.
    """
    n = len(A)
    adj = (A != 0) | (A != 0).T
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(adj, labels, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if n else []


def _size_stacks(blocks):
    """Group equal-size blocks: for each size ``k``, with the ``(count, k)``
    index array ``idx`` of its blocks, the fancy index ``(idx[:, :, None],
    idx[:, None, :])`` that reads or writes the blocks of a matrix as one
    ``(count, k, k)`` stack."""
    by_size: dict[int, list] = {}
    for b in blocks:
        by_size.setdefault(len(b), []).append(b)
    for group in by_size.values():
        idx = np.array(group)
        yield idx[:, :, None], idx[:, None, :]


def _stacked_unitarity_defect(stacks) -> float:
    """``||U U^+ - I||_F`` of a direct sum, from its ``(count, k, k)`` block
    stacks: ``U U^+ - I`` is exactly zero between blocks, so its Frobenius
    norm is that of the block defects."""
    total = 0.0
    for B in stacks:
        G = B @ B.conj().swapaxes(1, 2)
        diag = np.arange(B.shape[1])
        G[:, diag, diag] -= 1.0
        total += np.linalg.norm(G) ** 2
    return math.sqrt(total)


#: largest unitarity defect :func:`logm_unitary` accepts
UNITARY_TOL = 1e-10
#: smallest distance ``|lam + 1|`` of an eigenvalue from the branch cut
BRANCH_TOL = 1e-10
#: smallest ``|lam + 1|`` of a block stack that takes the half-angle
#: logarithm; nearer the cut its error grows as eps/|lam + 1|, and the stack
#: takes the Cayley path, whose error stays at the Schur level
LOG_MIN_DISTANCE = 1.0

_BRANCH_CUT = "unitary has an eigenvalue at -1; principal log undefined"


def _cayley_log(B: np.ndarray) -> np.ndarray:
    """Principal log of a ``(count, k, k)`` stack of complex unitary blocks.

    The Cayley transform ``C = i (I+B)^-1 (I-B)`` of a block is Hermitian,
    and it maps an eigenvalue ``lam = e^{i theta}`` of ``B`` to the
    eigenvalue ``t = tan(theta/2)``.  One stacked solve and one stacked
    ``eigh`` of the Hermitian part of ``C`` thus give an eigenbasis ``Z``,
    and ``log B = Z log(Z^+ B Z) Z^+``; ``|1+lam| = 2/sqrt(1+t^2)`` is
    checked against :data:`BRANCH_TOL`.

    ``C`` has norm ``2/min|1+lam|``, so near the cut ``Z`` diagonalises
    ``B`` only up to an off-diagonal residual of order ``eps/|1+lam|``.
    Taking ``Z diag(2i arctan t) Z^+`` alone passes that residual on: at
    ``|1+lam| = 1e-3`` it errs by up to 1.2e-12, at 1e-5 by 1e-10, where a
    Schur-form log errs by 4e-15.  The log of ``Z^+ B Z`` is therefore taken
    to first order in its off-diagonal part (Daleckii-Krein divided
    differences), which brings the error back to the Schur level (3e-15 at
    1e-3, 1e-5 and 1e-7).
    """
    eye = np.eye(B.shape[1])
    try:
        S = np.linalg.solve(eye + B, eye - B)   # C = i S
    except np.linalg.LinAlgError:
        raise BranchCutError(_BRANCH_CUT) from None
    S -= S.conj().swapaxes(1, 2)
    S *= 0.5j   # the Hermitian part of C
    t, Z = np.linalg.eigh(S)
    del S   # one block-sized array fewer at the peak below
    if (2.0 / np.hypot(1.0, t)).min() < BRANCH_TOL:
        raise BranchCutError(_BRANCH_CUT)
    # log of D = Z^+ B Z = diag(e^{i theta}) + E to first order in the
    # small E: i theta on the diagonal, E_jk times the divided difference
    # i (theta_j - theta_k) / (e^{i theta_j} - e^{i theta_k})
    #   = e^{-i (theta_j + theta_k)/2} / sinc((theta_j - theta_k)/2)
    # off it, with sinc(x) = sin(x)/x (np.sinc takes x/pi)
    Zh = Z.conj().swapaxes(1, 2)
    D = Zh @ B @ Z
    theta = np.angle(np.diagonal(D, axis1=1, axis2=2))
    half = np.exp(-0.5j * theta)
    D *= half[:, :, None] * half[:, None, :]
    D /= np.sinc((theta[:, :, None] - theta[:, None, :]) / (2 * np.pi))
    diag = np.arange(B.shape[1])
    D[:, diag, diag] = 1j * theta
    return Z @ D @ Zh


def _half_angle_log(U: np.ndarray) -> np.ndarray | None:
    """Principal log of a ``(count, k, k)`` stack of unitary blocks, real
    or complex, in the arithmetic of the stack, or None when an eigenvalue
    lies nearer than :data:`LOG_MIN_DISTANCE` to -1.

    On the eigenvectors of ``e^{+-i theta}``, ``P = (2I - U - U^+)/4`` is
    ``x^2 = sin^2(theta/2)`` times the identity and ``K = (U - U^+)/2`` is
    ``+-i sin(theta)``, so ``log U = theta/sin(theta) K`` there; the ratio is
    even in theta, so it is the same on every vector of their span that
    ``P`` mixes (for a real stack, the real planes).  One ``eigh`` of ``P``
    gives its eigenvectors ``v_j``; ``s_j = ||K v_j|| = |sin theta_j|`` and
    ``cos theta_j = 1 - 2 x_j^2`` give ``|theta_j|`` by ``atan2``, and
    ``log U = K V diag(theta/s) V^+`` (``theta/s = 1`` where ``s = 0``).  The
    distance of ``lam_j`` from the cut is ``|1 + lam_j| = 2 sin((pi -
    |theta_j|)/2)``.  ``P`` is dropped after the ``eigh`` and ``K`` formed
    only then; ``U`` is never written.
    """
    Uh = U.conj().swapaxes(1, 2)
    P = U + Uh
    P *= -0.25
    diag = np.arange(U.shape[1])
    P[:, diag, diag] += 0.5
    x2, V = np.linalg.eigh(P)
    del P
    K = U - Uh
    K *= 0.5
    KV = K @ V
    del K
    s = np.linalg.norm(KV, axis=1)
    c = 1.0 - 2.0 * x2
    distance = (2.0 * np.sin(0.5 * np.arctan2(s, -c))).min()
    if distance < BRANCH_TOL:
        raise BranchCutError(_BRANCH_CUT)
    if distance < LOG_MIN_DISTANCE:
        return None
    ratio = np.divide(np.arctan2(s, c), s, out=np.ones_like(s), where=s > 0)
    KV *= ratio[:, None, :]
    return KV @ V.conj().swapaxes(1, 2)


def logm_unitary(U: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal logarithm of a unitary matrix, returned anti-Hermitian and
    of the dtype of ``U`` (real for a real orthogonal ``U``), and the
    unitarity defect ``||U U^+ - I||_F`` that it checked.

    The log of a direct sum is the direct sum of the logs, so the work runs
    over the blocks of :func:`direct_sum_blocks`, with the blocks of one
    size stacked; the unitarity check reads the same stacks, before any
    solve or ``eigh``.  One block is ``U`` itself as a ``(1, n, n)`` view,
    with no copy and no scatter, and the anti-Hermitian projection runs in
    place: beside a real one-block ``U`` off the cut at most three arrays of
    its size are live (``P`` and ``V`` at the ``eigh``; then ``V``, ``K`` and
    ``K V``), where the Cayley path takes about 13.  ``U`` is never written.
    The path of a stack depends on its distance from the branch cut alone,
    not on its dtype.  A stack takes one ``eigh`` in its own arithmetic
    (:func:`_half_angle_log`); its error grows as ``eps/|1+lam|`` near the
    cut (up to 8e-13 in ``expm(L) - U`` at ``|1+lam| = 1e-3``, where the
    Cayley path stays below 1.4e-15), so a stack whose smallest ``|1+lam|`` is below :data:`LOG_MIN_DISTANCE` takes
    the Cayley transform (:func:`_cayley_log`), a real one on a complex copy
    of which it keeps the real part.  Raises :class:`BranchCutError` when an
    eigenvalue sits within :data:`BRANCH_TOL` of the branch cut at -1, or
    when ``I+U`` is exactly singular, where the principal logarithm is
    ambiguous.  The sweep unitaries stay far from the cut: the smallest
    ``|1+lam|`` is 1.85 on the Hubbard L=5 quench and 1.97 on the seeded
    M=12 ground state of the benchmark.
    """
    U = _inexact(U)
    if not np.all(np.isfinite(U)):
        raise OperatorPropertyError("logm input has non-finite entries")
    blocks = direct_sum_blocks(U)
    if len(blocks) == 1:   # its members ascend: U is its own stack, and no scatter
        stacks = [(None, U[None])]
        L = None
    else:
        stacks = [(stack, U[stack]) for stack in _size_stacks(blocks)]
        L = np.zeros_like(U)
    defect = _stacked_unitarity_defect([B for _, B in stacks])
    if defect > UNITARY_TOL:
        raise OperatorPropertyError(f"logm input not unitary (defect {defect:.3e})")
    for stack, B in stacks:
        log = _half_angle_log(B)
        if log is None:
            log = _cayley_log(B.astype(complex, copy=False))
        if not np.iscomplexobj(U):
            log = log.real
        if L is None:
            L = np.ascontiguousarray(log[0])
        else:
            L[stack] = log
    L -= L.conj().T   # exact log of unitary input is anti-Hermitian
    L *= 0.5
    return L, defect


#: largest anti-Hermiticity defect ``||X + X^+||_F`` of a generator or velocity
ANTI_TOL = 1e-10


def check_anti_hermitian(a: np.ndarray, name: str):
    """Refuse an ``a`` that is not anti-Hermitian within :data:`ANTI_TOL`."""
    defect = float(np.linalg.norm(a + a.conj().T))
    if not defect <= ANTI_TOL:
        raise OperatorPropertyError(f"{name} not anti-Hermitian (defect {defect:.3e})")


#: largest generator 1-norm :func:`exp_anti_hermitian` accepts: it takes
#: ceil(||S||_1) substeps.  A principal log has ||S||_2 <= pi, and sigma_int
#: adds |delta| <= pi, so a sweep generator has ||S||_1 <= 2 pi sqrt(n), about
#: 713 at the largest sector the orbital-count guard admits (n = 12870).
MAX_GENERATOR_NORM1 = 1e3


def exp_anti_hermitian(S: np.ndarray, V: np.ndarray, E: np.ndarray | None = None):
    """e^{S} V for an anti-Hermitian ``S`` by a scaled, truncated Taylor
    series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): ``s =
    max(1, ceil(||S||_1))`` substeps, each summed to the first order ``m``
    whose remainder bound ``b^{m+1}/(m+1)! e^b`` is at most 2^-53, where
    ``b = ||S||_1 / s`` bounds ``||S/s||_2`` because ``S`` is normal.

    With an anti-Hermitian direction ``E`` (a velocity), returns ``(e^{S}
    V, L V)`` with the Frechet derivative ``L = e^{S} A(S, E)``, ``d/dt
    e^{S} = L(S, dS/dt)``: the same series on ``M = [[S, eps E], [0, S]]``
    maps ``[0; V]`` to ``[eps L V; e^{S} V]`` (Van Loan, IEEE TAC 23, 395
    (1978)).  ``L`` is linear in ``E``, and the power of two ``eps`` with
    ``eps ||E||_1 < s`` scales exactly, so ``s`` stays that of e^{S} and ``b =
    (||S||_1 + eps ||E||_1) / s`` bounds ``||M/s||_2``.  Refuses ``||S||_1``
    above :data:`MAX_GENERATOR_NORM1`.  The results have the dtype of ``S``,
    ``V`` and ``E`` together, real for a real generator on real vectors.
    """
    check_anti_hermitian(S, "generator")
    norm1 = float(np.abs(S).sum(axis=0).max(initial=0.0))
    if norm1 > MAX_GENERATOR_NORM1:
        raise OperatorPropertyError(
            f"generator 1-norm {norm1:.3e} exceeds {MAX_GENERATOR_NORM1:.0e}")
    s = max(1, math.ceil(norm1))
    b = norm1 / s
    if E is not None:
        check_anti_hermitian(E, "sigma_dot")
        norm1_e = float(np.abs(E).sum(axis=0).max(initial=0.0))
        eps = math.ldexp(1.0, -max(0, math.frexp(norm1_e / s)[1]))
        E = eps * E
        b += eps * norm1_e / s
    m, bound = 0, b * math.exp(b)
    while bound > 2.0 ** -53:
        m, bound = m + 1, bound * b / (m + 2)
    out = np.array(V, dtype=np.result_type(S, V, *(() if E is None else (E,))))
    if E is not None:
        # the columns [top | bottom] of the augmented vectors: each order
        # takes one product of S over both halves, plus E on the bottom
        cols = out.reshape(len(out), -1)
        c = cols.shape[1]
        out = np.concatenate([np.zeros_like(cols), cols], axis=1)
    for _ in range(s):
        term = out
        for k in range(1, m + 1):
            nxt = _matmul(S, term)
            if E is not None:
                nxt[:, :c] += _matmul(E, term[:, c:])
            term = nxt / (s * k)
            out = out + term
    if E is None:
        return out
    return out[:, c:].reshape(np.shape(V)), (out[:, :c] / eps).reshape(np.shape(V))


def _matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A @ X``; a real ``A`` acts on a complex ``X`` through the float view
    of ``X``, whose rows hold the real and imaginary parts side by side: one
    real product, where numpy's mixed product first casts ``A`` to a complex
    copy and costs as much as two complex ones."""
    if np.iscomplexobj(A) or not np.iscomplexobj(X):
        return A @ X
    X = np.ascontiguousarray(X)
    cols = X if X.ndim == 2 else X[:, None]
    return (A @ cols.view(np.float64)).view(complex).reshape(X.shape)


# -- FCIDUMP-style ingestion -----------------------------------------------


def fcidump_integrals(lines: FcidumpLines) -> IntegralSet:
    """The IntegralSet of an FCIDUMP line pass: one scatter writes each
    entry with its real permutational symmetry."""
    norb = lines.norb
    h = np.zeros((norb, norb))
    for (i, j), val in lines.one_body.items():
        h[i - 1, j - 1] = h[j - 1, i - 1] = val
    chem = np.zeros((norb, norb, norb, norb))
    if lines.two_body:
        i, j, k, l = np.array(list(lines.two_body), dtype=np.int64).T - 1
        vals = np.fromiter(lines.two_body.values(), float, len(lines.two_body))
        for perm in class_members(i, j, k, l):
            chem[perm] = vals
    return IntegralSet.from_chemist(h, chem, lines.core)


def read_fcidump(path) -> tuple[IntegralSet, int]:
    """Read an FCIDUMP-style text file over spin orbitals: the IntegralSet
    and the NELEC of its header (-1 if absent).  Data lines are ``value i j
    k l`` with 1-based indices: ``i j k l`` a chemist two-electron integral
    (ij|kl), ``i j 0 0`` a one-electron integral, ``0 0 0 0`` the core
    energy, a value possibly with a Fortran ``D`` exponent.  The line pass
    (:func:`ducclab.shape.read_fcidump_lines`) refuses any other line."""
    lines = read_fcidump_lines(path)
    return fcidump_integrals(lines), lines.nelec
