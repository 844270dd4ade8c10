"""Many-body operators as dense matrices over a Fock-sector basis.

Everything is correctness-first dense complex linear algebra: the sector
dimension is capped by the desk-scale guard in :mod:`ducclab.fock`, so
Hamiltonians, exponentials and logarithms are ordinary LAPACK-sized
problems.  hbar = 1 throughout.

Every Hamiltonian is an :class:`IntegralSet` -- the Hubbard chain and the
pairing model as well as FCIDUMP input -- and one Slater-Condon build,
:func:`hamiltonian_from_integrals`, turns it into a sector matrix.  The
build loops over the annihilated orbital or pair and vectorises over the
basis masks and the created orbitals or pairs.

The sweep unitaries and their generators are direct sums of many small
blocks.  :func:`direct_sum_blocks` finds the blocks of a matrix's exact-zero
pattern, and :func:`eigh_direct_sum` and :func:`logm_unitary` stack the
blocks of each size into one batched LAPACK call.  The unitary log goes
through the Hermitian eigenproblem of the Cayley transform, so no Schur
form is needed anywhere; :func:`exp_anti_hermitian` needs no factorisation.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np

from .errors import BranchCutError, InvalidDimensionError, OperatorPropertyError
from .fock import FockBasis


class QOperator:
    """A Hamiltonian as a dense complex matrix tied to its FockBasis.

    Generators, unitaries and velocities are plain ``np.ndarray``s."""

    def __init__(self, matrix: np.ndarray, basis: FockBasis):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidDimensionError(f"operator matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != basis.size:
            raise InvalidDimensionError(
                f"matrix dimension {matrix.shape[0]} != basis size {basis.size}")
        self.matrix = matrix
        self.basis = basis

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
        h = np.asarray(one_body, dtype=complex)
        v = np.asarray(two_body, dtype=complex)
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
        chem = np.asarray(two_body_chem, dtype=complex)
        phys = chem.transpose(0, 2, 1, 3)
        v = phys - phys.transpose(0, 1, 3, 2)
        return cls(one_body, v, core_energy)


def _add_strings(mat: np.ndarray, masks: np.ndarray, annihilated: tuple[int, ...],
                 created: np.ndarray, coeffs: np.ndarray):
    """``mat += sum_c coeffs[c] a+_{created[c]} a_{annihilated}`` over the
    basis of ascending ``masks``.

    ``annihilated`` is ascending and acts first, lowest index first; each
    row of ``created`` is ascending and acts highest index first, so the
    string is ``a+_{c1}..a+_{ck} a_{xk}..a_{x1}``.  Vectorised over the
    basis columns and the rows of ``created``: every pair of them reaches
    its own matrix element, so one fancy-index add is exact.  Strings with
    a zero coefficient are skipped: they add nothing, and the determinants
    they reach need not lie in the basis.
    """
    nonzero = np.flatnonzero(coeffs)
    created, coeffs = created[nonzero], coeffs[nonzero]
    ann = sum(1 << x for x in annihilated)
    cols = np.flatnonzero(masks & ann == ann)
    m = masks[cols]
    parity = np.zeros(cols.size, dtype=np.int64)
    for x in annihilated:
        parity += np.bitwise_count(m & ((1 << x) - 1))
        m = m & ~(1 << x)
    jj, cc = np.nonzero(m[:, None] & (1 << created).sum(axis=1) == 0)
    new, parity = m[jj], parity[jj]
    for p in created[cc].T[::-1]:
        parity = parity + np.bitwise_count(new & ((1 << p) - 1))
        new = new | (1 << p)
    mat[np.searchsorted(masks, new), cols[jj]] += coeffs[cc] * (1.0 - 2.0 * (parity & 1))


def hamiltonian_from_integrals(ints: IntegralSet, basis: FockBasis) -> QOperator:
    """Dense sector Hamiltonian of an integral set (Slater-Condon rules).

    One pass per annihilated orbital ``q`` of ``sum h[p,q] a+_p a_q``, then
    one per annihilated pair ``r < s`` of ``sum_{p<q} <pq||rs> a+_p a+_q a_s
    a_r``, in ascending order: every matrix element sums its terms in the
    order of a per-determinant application of the same strings.
    """
    if ints.M != basis.M:
        raise InvalidDimensionError(
            f"integral orbital count {ints.M} != basis orbital count {basis.M}")
    M, masks = basis.M, basis.mask_array
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    mat[np.diag_indices(basis.size)] += ints.core_energy
    orbitals = np.arange(M)[:, None]
    for q in range(M):
        _add_strings(mat, masks, (q,), orbitals, ints.one_body[:, q])
    pairs = np.array(list(combinations(range(M), 2)), dtype=np.int64).reshape(-1, 2)
    for r, s in pairs.tolist():
        _add_strings(mat, masks, (r, s), pairs, ints.two_body[pairs[:, 0], pairs[:, 1], r, s])
    return QOperator(mat, basis)


def hubbard_integrals(L: int, t: float, U: float) -> IntegralSet:
    """Open-boundary Hubbard chain, H = -t sum (c+ c + h.c.) + U sum n_up n_dn,
    as an IntegralSet.  Spin orbital p = 2*site + spin (spin 0 = up, 1 = down)."""
    M = 2 * L
    h = np.zeros((M, M), dtype=complex)
    for i in range(L - 1):
        for sp in (0, 1):
            p, q = 2 * i + sp, 2 * (i + 1) + sp
            h[p, q] = h[q, p] = -t
    chem = np.zeros((M, M, M, M), dtype=complex)
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
    h = np.zeros((M, M), dtype=complex)
    v = np.zeros((M, M, M, M), dtype=complex)
    for p in range(levels):
        h[2 * p, 2 * p] = h[2 * p + 1, 2 * p + 1] = spacing * p
        for q in range(levels):
            for (a, b), s1 in (((2 * p, 2 * p + 1), 1), ((2 * p + 1, 2 * p), -1)):
                for (c, d), s2 in (((2 * q, 2 * q + 1), 1), ((2 * q + 1, 2 * q), -1)):
                    v[a, b, c, d] = -g * s1 * s2
    return IntegralSet(h, v)


def build_hubbard(L: int, t: float, U: float, basis: FockBasis) -> QOperator:
    """Sector matrix of :func:`hubbard_integrals`."""
    if basis.M != 2 * L:
        raise InvalidDimensionError(f"basis has M={basis.M} orbitals, expected 2L={2 * L}")
    return hamiltonian_from_integrals(hubbard_integrals(L, t, U), basis)


def build_pairing(levels: int, g: float, basis: FockBasis,
                  spacing: float = 1.0) -> QOperator:
    """Sector matrix of :func:`pairing_integrals`."""
    if basis.M != 2 * levels:
        raise InvalidDimensionError(
            f"basis has M={basis.M} orbitals, expected 2*levels={2 * levels}")
    return hamiltonian_from_integrals(pairing_integrals(levels, g, spacing), basis)


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
    """Group equal-size blocks: for each size ``k``, the ``(count, k)``
    index array and the fancy index ``(idx[:, :, None], idx[:, None, :])``
    that reads or writes the blocks of a matrix as one ``(count, k, k)``
    stack."""
    by_size: dict[int, list] = {}
    for b in blocks:
        by_size.setdefault(len(b), []).append(b)
    for group in by_size.values():
        idx = np.array(group)
        yield idx, (idx[:, :, None], idx[:, None, :])


def eigh_direct_sum(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix over the blocks of
    :func:`direct_sum_blocks`: ``A = V diag(w) V^+`` with ``V`` unitary and
    zero between blocks.  Blocks of equal size go through one stacked
    ``np.linalg.eigh`` call.  The eigenvalues come grouped by block, not
    sorted."""
    w = np.empty(len(A))
    V = np.zeros_like(A, dtype=complex)
    for idx, stack in _size_stacks(direct_sum_blocks(A)):
        w[idx], V[stack] = np.linalg.eigh(A[stack])
    return w, V


def _stacked_unitarity_defect(stacks) -> float:
    """``||U U^+ - I||_F`` of a direct sum, from its ``(count, k, k)`` block
    stacks: ``U U^+ - I`` is exactly zero between blocks, so its Frobenius
    norm is that of the block defects."""
    return math.sqrt(sum(
        np.linalg.norm(B @ B.conj().swapaxes(1, 2) - np.eye(B.shape[1])) ** 2
        for B in stacks))


#: largest unitarity defect :func:`logm_unitary` accepts
UNITARY_TOL = 1e-10
#: smallest distance ``|lam + 1|`` of an eigenvalue from the branch cut
BRANCH_TOL = 1e-10


def logm_unitary(U: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal logarithm of a unitary matrix, returned anti-Hermitian,
    and the unitarity defect ``||U U^+ - I||_F`` that it checked.

    The log of a direct sum is the direct sum of the logs, so the work runs
    over the blocks of :func:`direct_sum_blocks`, with the blocks of one
    size stacked; the unitarity check reads the same stacks, before any
    solve.  The Cayley transform ``C = i (I+U)^-1 (I-U)`` of a block
    is Hermitian, and it maps an eigenvalue ``lam = e^{i theta}`` of ``U``
    to the eigenvalue ``t = tan(theta/2)``.  One stacked solve and one
    stacked ``eigh`` of the Hermitian part of ``C`` thus give an eigenbasis
    ``Z``, and ``log U = Z log(Z^+ U Z) Z^+``.  Raises
    :class:`BranchCutError` when an eigenvalue sits within
    :data:`BRANCH_TOL` of the branch cut at -1 (``|lam+1| =
    2/sqrt(1+t^2)``), or when ``I+U`` is exactly singular, where the
    principal logarithm is ambiguous.

    ``C`` has norm ``2/min|1+lam|``, so near the cut ``Z`` diagonalises
    ``U`` only up to an off-diagonal residual of order ``eps/|1+lam|``.
    Taking ``Z diag(2i arctan t) Z^+`` alone passes that residual on: at
    ``|1+lam| = 1e-3`` it errs by up to 1.2e-12, at 1e-5 by 1e-10, where a
    Schur-form log errs by 4e-15.  The log of ``Z^+ U Z`` is therefore taken
    to first order in its off-diagonal part (Daleckii-Krein divided
    differences), which brings the error back to the Schur level (3e-15 at
    1e-3, 1e-5 and 1e-7).  The sweep unitaries of the Hubbard L=5 quench
    stay far from the cut: their smallest ``|1+lam|`` is 1.85.
    """
    U = np.asarray(U, dtype=complex)
    if not np.all(np.isfinite(U)):
        raise OperatorPropertyError("logm input has non-finite entries")
    stacks = [(idx, stack, U[stack]) for idx, stack in _size_stacks(direct_sum_blocks(U))]
    defect = _stacked_unitarity_defect([B for _, _, B in stacks])
    if defect > UNITARY_TOL:
        raise OperatorPropertyError(f"logm input not unitary (defect {defect:.3e})")
    L = np.zeros_like(U)
    for idx, stack, B in stacks:
        eye = np.eye(idx.shape[1])
        try:
            S = np.linalg.solve(eye + B, eye - B)   # C = i S
        except np.linalg.LinAlgError:
            raise BranchCutError(
                "unitary has an eigenvalue at -1; principal log undefined") from None
        S -= S.conj().swapaxes(1, 2)
        S *= 0.5j   # the Hermitian part of C
        t, Z = np.linalg.eigh(S)
        del S   # one block-sized array fewer at the peak below
        if (2.0 / np.hypot(1.0, t)).min() < BRANCH_TOL:
            raise BranchCutError("unitary has an eigenvalue at -1; principal log undefined")
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
        diag = np.arange(idx.shape[1])
        D[:, diag, diag] = 1j * theta
        L[stack] = Z @ D @ Zh
    L = 0.5 * (L - L.conj().T)  # exact log of unitary input is anti-Hermitian
    return L, defect


#: largest anti-Hermiticity defect ``||X + X^+||_F`` of a generator or velocity
ANTI_TOL = 1e-10


def check_anti_hermitian(a: np.ndarray, name: str):
    """Refuse an ``a`` that is not anti-Hermitian within :data:`ANTI_TOL`."""
    defect = float(np.linalg.norm(a + a.conj().T))
    if not defect <= ANTI_TOL:
        raise OperatorPropertyError(f"{name} not anti-Hermitian (defect {defect:.3e})")


def exp_anti_hermitian(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """e^{S} V for an anti-Hermitian ``S`` by a scaled, truncated Taylor
    series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): ``s =
    max(1, ceil(||S||_1))`` substeps e^{S/s}, each summed to the first order
    ``m`` whose remainder bound ``b^{m+1}/(m+1)! e^b`` is at most 2^-53, where
    ``b = ||S||_1 / s`` bounds ``||S/s||_2`` because ``S`` is normal."""
    check_anti_hermitian(S, "generator")
    norm1 = float(np.abs(S).sum(axis=0).max(initial=0.0))
    s = max(1, math.ceil(norm1))
    b = norm1 / s
    m, bound = 0, b * math.exp(b)
    while bound > 2.0 ** -53:
        m, bound = m + 1, bound * b / (m + 2)
    out = np.array(V, dtype=complex)
    for _ in range(s):
        term = out
        for k in range(1, m + 1):
            term = (S @ term) / (s * k)
            out = out + term
    return out


# -- FCIDUMP-style ingestion -----------------------------------------------

_FCIDUMP_HEADER = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE)
_FCIDUMP_NELEC = re.compile(r"NELEC\s*=\s*(\d+)", re.IGNORECASE)


def read_fcidump(path) -> tuple[IntegralSet, int]:
    """Read an FCIDUMP-style text file over spin orbitals.

    Data lines are ``value i j k l`` with 1-based indices: ``i j k l`` a
    chemist two-electron integral (ij|kl), ``i j 0 0`` a one-electron
    integral, ``0 0 0 0`` the core energy; any other index pattern, or an
    index beyond NORB, is rejected.  The header is validated for NORB/NELEC
    and otherwise ignored.  Real eightfold permutational symmetry is applied
    to two-electron entries.

    Returns the IntegralSet and the NELEC declared in the header.
    """
    with open(path) as fh:
        text = fh.read()
    m = _FCIDUMP_HEADER.search(text)
    if m is None:
        raise OperatorPropertyError("FCIDUMP header lacks NORB")
    norb = int(m.group(1))
    m = _FCIDUMP_NELEC.search(text)
    nelec = int(m.group(1)) if m else -1

    lines = text.splitlines()
    start = 0
    for k, line in enumerate(lines):
        if "&END" in line.upper() or line.strip() == "/":
            start = k + 1
            break
    else:
        # single-line header: skip the first line
        start = 1

    h = np.zeros((norb, norb), dtype=complex)
    chem = np.zeros((norb, norb, norb, norb), dtype=complex)
    core = 0.0
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 5:
            if parts:
                raise OperatorPropertyError(f"malformed FCIDUMP line: {line!r}")
            continue
        val = float(parts[0].replace("D", "E").replace("d", "e"))
        if not math.isfinite(val):
            raise OperatorPropertyError(f"non-finite FCIDUMP value: {line!r}")
        i, j, k, l = idx = tuple(int(x) for x in parts[1:])
        used = idx if k or l else idx[:2] if i or j else ()
        if not all(1 <= x <= norb for x in used):
            raise OperatorPropertyError(f"FCIDUMP index outside 1..NORB={norb}: {line!r}")
        if i == j == k == l == 0:
            core = val
        elif k == l == 0:
            h[i - 1, j - 1] = val
            h[j - 1, i - 1] = val
        else:
            i, j, k, l = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                               (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)):
                chem[a, b, c, d] = val
    return IntegralSet.from_chemist(h, chem, core), nelec
