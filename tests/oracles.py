"""Test oracles: reference implementations that only the tests call.

Each is the independent, slower or more literal counterpart of a kernel in
``ducclab``: the truncated and certified commutator series of the derivative
of the exponential map (against the augmented Taylor action of
:func:`ducclab.operators.exp_anti_hermitian`), the stencil velocities of a
whole grid, dense rotation generators and unitaries and their dense
unitarity defect, the scalar fermion string algebra (operator strings,
excitations, de-excitations, holes and particles, signatures,
classification) that the determinant tables
vectorise, the sweep target order built from it, dense projectors, the
per-determinant Hamiltonian builders (term lists applied
literally, and integrals applied by Slater-Condon rules) against the
vectorised :func:`ducclab.operators.hamiltonian_from_integrals`, a
reference-dominated random Hamiltonian, the bare CAS-CI Hamiltonian,
amplitude arrays from hand-written ``{signature: amplitude}`` sets, the
signature enumeration and the random sets drawn along it, the dense and
the per-signature amplitude matrices, the dense de-excitation matrix and
the dense amplitude matrices of an ECC configuration, the assembled ECC
action integrand, the dense-matrix similarity transform of X_ext by T_int,
and the dense matrix of its inactive-occupation class blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from ducclab.cluster import AmplitudeOperator, exp_nilpotent
from ducclab.downfold import EffectiveHamiltonian
from ducclab.dynamics import grid_velocity
from ducclab.ecc import EccMatrices, action_deviation, eval_ldt_forms, eval_lh_forms
from ducclab.errors import InvalidDimensionError, OperatorPropertyError, SectorMismatchError
from ducclab.fock import DeterminantTable, FockBasis, determinant_table
from ducclab.operators import IntegralSet, QOperator, _inexact
from ducclab.shape import (Determinant, ExcitationSignature, SpinOrbitalPartition,
                           _check_sweep_ordering)
from ducclab.sweeps import RotationStep

# -- derivative of the exponential map ---------------------------------------

#: Default truncation order of the derivative-of-exponential series.
DEFAULT_SERIES_ORDER = 12


def _dexp_terms(X: np.ndarray, Xdot: np.ndarray, K: int):
    """Terms (-1)^k/(k+1)! I_k with I_0 = Xdot, I_k = [X, I_{k-1}]."""
    Ik = Xdot
    yield Ik
    for k in range(1, K + 1):
        Ik = X @ Ik - Ik @ X
        yield (-1) ** k / math.factorial(k + 1) * Ik


def _dexp_np(X: np.ndarray, Xdot: np.ndarray, K: int) -> np.ndarray:
    A = np.zeros_like(Xdot)
    for term in _dexp_terms(X, Xdot, K):
        A = A + term
    return A


#: Tail-norm certificate threshold: ||term_K|| / ||A|| must fall below this.
TAIL_CERTIFICATE = 1e-12
_K_CAP = 80


def _dexp_certified(X: np.ndarray, Xdot: np.ndarray, K_min: int) -> np.ndarray:
    """Series sum extended past K_min until the last term certifies
    convergence (factorial decay makes this cheap)."""
    A = np.zeros_like(Xdot)
    last = 0.0
    for k, term in enumerate(_dexp_terms(X, Xdot, _K_CAP)):
        A = A + term
        last = float(np.linalg.norm(term))
        if k >= K_min and last <= TAIL_CERTIFICATE * max(np.linalg.norm(A), 1e-300):
            return A
    raise OperatorPropertyError(
        f"derivative-of-exponential series not certified by order {_K_CAP} "
        f"(last term norm {last:.3e})")


def dexp_series(X: np.ndarray, Xdot: np.ndarray, K: int = DEFAULT_SERIES_ORDER) -> np.ndarray:
    """A(X, Xdot) with d/dt e^{X(t)} = e^{X} A: truncated commutator series
    sum_{k=0..K} (-1)^k/(k+1)! ad_X^k Xdot.

    Anti-Hermitian whenever X and Xdot are.
    """
    if K < 0:
        raise ValueError("series order K must be >= 0")
    return _dexp_np(X, Xdot, K)


def dexp_tail_ratio(X: np.ndarray, Xdot: np.ndarray,
                    K: int = DEFAULT_SERIES_ORDER) -> float:
    """Norm of the K-th series term over the norm of the sum: a cheap
    convergence certificate (factorial decay makes it fall fast)."""
    terms = list(_dexp_terms(X, Xdot, K))
    total = np.linalg.norm(sum(terms))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(terms[-1]) / total)


def sigma_dot_grid(f, dt: float) -> list[np.ndarray]:
    """The velocities of :func:`ducclab.dynamics.grid_velocity` at every point of ``f``."""
    return [grid_velocity(f, j, len(f), dt) for j in range(len(f))]


# -- sweeps ------------------------------------------------------------------


def rotation_generator(step: RotationStep, basis: FockBasis) -> np.ndarray:
    """Dense anti-Hermitian generator of the rotation (for provenance checks):
    ``theta (e^{i phi} E - e^{-i phi} E^+)`` with ``theta = arctan2(|sin|,
    cos)`` and ``e^{i phi} = sin/|sin|``."""
    lows, highs, phases = signature_pairs(step.signature, basis)
    g = np.zeros((basis.size, basis.size), dtype=complex)
    r = abs(step.sin)
    a = np.arctan2(r, step.cos) / r * step.sin if r else 0.0   # theta e^{i phi}
    g[highs, lows] += a * phases
    g[lows, highs] -= np.conj(a) * phases
    return g


def rotation_unitary(step: RotationStep, basis: FockBasis) -> np.ndarray:
    """Dense unitary of one rotation, its four entries per coupled pair
    (low, high) with phase ph written one pair at a time: ``cos`` on both
    diagonals, ``sin ph`` at (high, low), ``-conj(sin) ph`` at (low, high)
    (equals expm(rotation_generator))."""
    u = np.eye(basis.size, dtype=complex)
    for low, high, ph in zip(*signature_pairs(step.signature, basis)):
        u[low, low] = u[high, high] = step.cos
        u[high, low] = step.sin * ph
        u[low, high] = -np.conj(step.sin) * ph
    return u


def unitarity_defect(U: np.ndarray) -> float:
    """``||U U^+ - I||_F`` from the whole dense product (against the
    block-wise defect that :func:`ducclab.operators.logm_unitary` checks)."""
    return float(np.linalg.norm(U @ U.conj().T - np.eye(len(U))))


def anti_hermiticity_defect(X: np.ndarray) -> float:
    """``||X + X^+||_F``, zero for a generator or velocity."""
    return float(np.linalg.norm(X + X.conj().T))


# -- determinants ------------------------------------------------------------


def _lower_count(mask: int, p: int) -> int:
    return (mask & ((1 << p) - 1)).bit_count()


def apply_operator_string(mask: int, creators: tuple[int, ...],
                          annihilators: tuple[int, ...]) -> tuple[int, int] | None:
    """Apply ``a+_{c1}..a+_{cm} a_{x1}..a_{xn}`` to an occupation mask.

    Tuples are given in operator-string order; the rightmost operator acts
    first.  Returns ``(new_mask, sign)`` or ``None`` when the string
    annihilates the state.
    """
    sign = 1
    for p in reversed(annihilators):
        if not mask >> p & 1:
            return None
        if _lower_count(mask, p) & 1:
            sign = -sign
        mask &= ~(1 << p)
    for p in reversed(creators):
        if mask >> p & 1:
            return None
        if _lower_count(mask, p) & 1:
            sign = -sign
        mask |= 1 << p
    return mask, sign


def apply_excitation(sig: ExcitationSignature,
                     det: Determinant) -> tuple[Determinant, int] | None:
    """Apply the excitation ``a+_{a1}..a+_{ak} a_{ik}..a_{i1}`` to ``det``.

    Returns ``(new_determinant, phase)`` with phase +-1, or ``None`` if any
    annihilated orbital is empty or any created orbital is filled.  The
    rank-0 signature returns ``(det, +1)``.
    """
    res = apply_operator_string(det.occupation, sig.virt, tuple(reversed(sig.occ)))
    if res is None:
        return None
    mask, sign = res
    return Determinant(mask, det.M), sign


def signature_pairs(sig: ExcitationSignature, basis: FockBasis
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every determinant pair that E_sig couples, determinant by determinant:
    (low indices ascending, high indices, phases of <high|E_sig|low>), the
    reference for :meth:`ducclab.fock.DeterminantTable.pairs`."""
    pairs = [(low, basis.index_of(res[0]), float(res[1])) for low, det in enumerate(basis)
             if (res := apply_excitation(sig, det)) is not None]
    lows, highs, phases = zip(*pairs) if pairs else ((), (), ())
    return np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64), np.array(phases)


def enumerate_signatures(ref: Determinant, max_rank: int | None = None,
                         include_identity: bool = False):
    """Yield excitation signatures of the reference in (rank, occ, virt)
    lexicographic order: the order of ``DeterminantTable.order``."""
    occ = ref.occupied()
    virt = ref.virtuals()
    top = min(len(occ), len(virt))
    if max_rank is not None:
        top = min(top, max_rank)
    if include_identity:
        yield ExcitationSignature((), ())
    for k in range(1, top + 1):
        for o in combinations(occ, k):
            for v in combinations(virt, k):
                yield ExcitationSignature(o, v)


def is_internal_signature(part: SpinOrbitalPartition, sig: ExcitationSignature) -> bool:
    """True iff every index of ``sig`` lies in the active classes of
    ``part``; rank 0 (the identity) counts as internal."""
    return set(sig.occ) <= set(part.occ_active) and set(sig.virt) <= set(part.virt_active)


def holes_and_particles(ref: Determinant,
                        det: Determinant) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbitals occupied in ref but not det (holes) and vice versa (particles)."""
    holes = ref.occupation & ~det.occupation
    parts = det.occupation & ~ref.occupation
    to_tuple = lambda m: tuple(p for p in range(ref.M) if m >> p & 1)
    return to_tuple(holes), to_tuple(parts)


def signature_between(ref: Determinant, det: Determinant) -> ExcitationSignature:
    """The unique signature with ``apply_excitation(sig, ref) -> det`` (up to phase)."""
    holes, parts = holes_and_particles(ref, det)
    return ExcitationSignature(holes, parts)


def apply_deexcitation(sig: ExcitationSignature,
                       det: Determinant) -> tuple[Determinant, int] | None:
    """Apply the adjoint string ``a+_{i1}..a+_{ik} a_{ak}..a_{a1}``."""
    res = apply_operator_string(det.occupation, sig.occ, tuple(reversed(sig.virt)))
    if res is None:
        return None
    mask, sign = res
    return Determinant(mask, det.M), sign


class DetClass(Enum):
    REFERENCE = "reference"
    INTERNAL = "internal"
    EXTERNAL = "external"


def classify_determinant(det: Determinant, ref: Determinant,
                         part: SpinOrbitalPartition) -> DetClass:
    """Reference / internal / external classification of ``det`` w.r.t. the
    active space.

    Internal means every hole lies in ``occ_active`` and every particle in
    ``virt_active``; anything touching an inactive orbital is external.
    """
    if det.M != ref.M or det.N != ref.N or part.M != ref.M:
        raise SectorMismatchError("determinant, reference and partition disagree on sector")
    if det.occupation == ref.occupation:
        return DetClass.REFERENCE
    holes, parts = holes_and_particles(ref, det)
    if set(holes) <= set(part.occ_active) and set(parts) <= set(part.virt_active):
        return DetClass.INTERNAL
    return DetClass.EXTERNAL


@dataclass
class Projectors:
    """Diagonal 0/1 projectors onto reference, internal and external spaces.

    P + Q_int + Q_ext is the identity and pairwise products vanish.
    """

    P: np.ndarray
    Q_int: np.ndarray
    Q_ext: np.ndarray


def build_projectors(ref: Determinant, basis: FockBasis,
                     part: SpinOrbitalPartition) -> Projectors:
    classes = [classify_determinant(det, ref, part) for det in basis]
    proj = lambda cls: np.diag([complex(c is cls) for c in classes])
    return Projectors(P=proj(DetClass.REFERENCE), Q_int=proj(DetClass.INTERNAL),
                      Q_ext=proj(DetClass.EXTERNAL))


def scalar_sweep_targets(ref: Determinant, part: SpinOrbitalPartition,
                  basis: FockBasis) -> tuple[tuple, tuple, tuple]:
    """Ordered sweep-1, sweep-2 and sweep-3 target tuples of (signature,
    index), determinant by determinant: the scalar counterpart of
    :func:`ducclab.sweeps.sweep_targets`."""
    _check_sweep_ordering(part)
    sweep1 = {mu: [] for mu in part.occ_inactive}
    sweep2 = {al: [] for al in part.virt_inactive}
    sweep3 = {i: [] for i in part.occ_active}
    occ_inact = set(part.occ_inactive)
    for j, det in enumerate(basis):
        cls = classify_determinant(det, ref, part)
        if cls is DetClass.REFERENCE:
            continue
        sig = signature_between(ref, det)
        if cls is DetClass.INTERNAL:
            sweep3[sig.occ[0]].append((sig, j))
        elif set(sig.occ) & occ_inact:
            sweep1[sig.occ[0]].append((sig, j))  # smallest hole is inactive
        else:
            sweep2[sig.virt[-1]].append((sig, j))  # largest particle is inactive
    ordered = lambda groups, keys: tuple(
        sd for k in keys
        for sd in sorted(groups[k], key=lambda sd: (sd[0].rank, sd[0].occ, sd[0].virt)))
    return (ordered(sweep1, part.occ_inactive),
            ordered(sweep2, reversed(part.virt_inactive)),
            ordered(sweep3, part.occ_active))


# -- Hamiltonians ------------------------------------------------------------


def random_hermitian_hamiltonian(basis: FockBasis, rng: np.random.Generator,
                                 spread: float = 1.0,
                                 coupling: float = 0.3) -> QOperator:
    """Random Hermitian sector Hamiltonian whose ground state is dominated by
    the lowest-mask (aufbau) determinant.

    A rising diagonal keeps the reference coefficient large enough for
    cluster analysis; ``coupling`` scales a dense Hermitian perturbation.
    """
    dim = basis.size
    diag = spread * np.arange(dim, dtype=float)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = np.diag(diag).astype(complex) + coupling * 0.5 * (a + a.conj().T)
    return QOperator(mat, basis)


#: term = (coefficient, creators, annihilators) in operator-string order,
#: i.e. coefficient * a+_{c1}..a+_{cm} a_{x1}..a_{xn}.
Term = tuple[complex, tuple[int, ...], tuple[int, ...]]


def hamiltonian_from_terms(terms, basis: FockBasis) -> QOperator:
    """Assemble the matrix of a second-quantized term list.

    Each term is applied literally to every basis determinant with
    fermionic phases, so the stored matrix always equals the sum of the
    term applications.
    """
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    terms = tuple((complex(c), tuple(cr), tuple(an)) for c, cr, an in terms)
    for coeff, creators, annihilators in terms:
        if coeff == 0:
            continue
        for j, mask in enumerate(basis.mask_array.tolist()):
            res = apply_operator_string(mask, creators, annihilators)
            if res is None:
                continue
            new_mask, sign = res
            mat[basis.index_of(new_mask), j] += coeff * sign
    return QOperator(mat, basis)


def hubbard_terms(L: int, t: float, U: float) -> list[Term]:
    """Open-boundary Hubbard chain, H = -t sum (c+ c + h.c.) + U sum n_up n_dn,
    as a term list; spin orbital p = 2*site + spin."""
    terms: list[Term] = []
    for i in range(L - 1):
        for sp in (0, 1):
            p, q = 2 * i + sp, 2 * (i + 1) + sp
            terms.append((-t, (p,), (q,)))
            terms.append((-t, (q,), (p,)))
    for i in range(L):
        up, dn = 2 * i, 2 * i + 1
        terms.append((U, (up, dn), (dn, up)))  # a+_up a+_dn a_dn a_up = n_up n_dn
    return terms


def pairing_terms(levels: int, g: float, spacing: float = 1.0) -> list[Term]:
    """Picket-fence pairing model, H = sum eps_p n_p - g sum_{pq} P+_p P_q
    with eps_p = p*spacing and P+_p = a+_{p,up} a+_{p,dn}, as a term list."""
    terms: list[Term] = []
    for p in range(levels):
        for sp in (0, 1):
            orb = 2 * p + sp
            terms.append((spacing * p, (orb,), (orb,)))
    for p in range(levels):
        for q in range(levels):
            terms.append((-g, (2 * p, 2 * p + 1), (2 * q + 1, 2 * q)))
    return terms


def scalar_hamiltonian_from_integrals(ints: IntegralSet, basis: FockBasis) -> QOperator:
    """Dense sector Hamiltonian built by applying every integral term with
    fermionic phases, determinant by determinant."""
    if ints.M != basis.M:
        raise InvalidDimensionError(
            f"integral orbital count {ints.M} != basis orbital count {basis.M}")
    dim = basis.size
    M = basis.M
    h = ints.one_body
    v = ints.two_body
    mat = np.zeros((dim, dim), dtype=complex)
    for j, mask in enumerate(basis.mask_array.tolist()):
        occ = [p for p in range(M) if mask >> p & 1]
        mat[j, j] += ints.core_energy
        # one-body: sum_pq h[p,q] a+_p a_q
        for q in occ:
            m1, s1 = apply_operator_string(mask, (), (q,))
            for p in range(M):
                if h[p, q] == 0 or m1 >> p & 1:
                    continue
                m2, s2 = apply_operator_string(m1, (p,), ())
                mat[basis.index_of(m2), j] += h[p, q] * s1 * s2
        # two-body: sum_{p<q, r<s} <pq||rs> a+_p a+_q a_s a_r
        for ri in range(len(occ)):
            r = occ[ri]
            m1, s1 = apply_operator_string(mask, (), (r,))
            for si in range(ri + 1, len(occ)):
                s = occ[si]
                m2, s2 = apply_operator_string(m1, (), (s,))
                empty = [p for p in range(M) if not m2 >> p & 1]
                for p, q in combinations(empty, 2):
                    val = v[p, q, r, s]
                    if val == 0:
                        continue
                    m3, s3 = apply_operator_string(m2, (q,), ())
                    m4, s4 = apply_operator_string(m3, (p,), ())
                    mat[basis.index_of(m4), j] += val * s1 * s2 * s3 * s4
    return QOperator(mat, basis)


def cas_ci(H: QOperator, ref: Determinant,
           part: SpinOrbitalPartition) -> EffectiveHamiltonian:
    """Bare CAS-CI Hamiltonian (no transformation), Hermitian for Hermitian H."""
    cas = determinant_table(H.basis, ref).cas(part)
    sub = H.matrix[np.ix_(cas, cas)]
    hermitian = float(np.linalg.norm(sub - sub.conj().T)) <= 1e-10
    if hermitian:
        sub = 0.5 * (sub + sub.conj().T)
    return EffectiveHamiltonian(sub, cas, H.basis, "cas-ci", hermitian=hermitian)


# -- amplitude sets --------------------------------------------------------------


def amplitude_array(amps: dict[ExcitationSignature, complex],
                    table: DeterminantTable) -> np.ndarray:
    """The amplitude array over the rows of ``table`` of a hand-written set
    ``{signature: amplitude}``, float64 unless an amplitude is complex;
    every signature must excite the table's reference."""
    t = np.zeros(table.basis.size, dtype=_inexact(list(amps.values())).dtype)
    for sig, val in amps.items():
        res = apply_excitation(sig, table.ref)
        if res is None:
            raise ValueError(f"{sig} does not excite the reference {table.ref}")
        t[table.basis.index_of(res[0])] = val
    return t


def random_amplitudes_by_enumeration(ref: Determinant, rng: np.random.Generator,
                                     part: SpinOrbitalPartition | None = None,
                                     kind: str = "any", scale: float = 0.1,
                                     max_rank: int | None = None, real: bool = False
                                     ) -> dict[ExcitationSignature, complex]:
    """Signature-by-signature draw over a fresh enumeration, the reference
    for :func:`ducclab.random_amplitudes`."""
    entries = {}
    for sig in enumerate_signatures(ref, max_rank=max_rank):
        if kind != "any" and (kind == "internal") != is_internal_signature(part, sig):
            continue
        val = rng.uniform(-scale, scale)
        if not real:
            val = val + 1j * rng.uniform(-scale, scale)
        entries[sig] = val
    return entries


def excitation_matrix(t: np.ndarray, table: DeterminantTable) -> np.ndarray:
    """Dense matrix of sum_j t_j E_j, the reference row adding the identity:
    :meth:`ducclab.AmplitudeOperator.toarray`."""
    return AmplitudeOperator(t, table).toarray()


def per_signature_excitation_matrix(t: np.ndarray, table: DeterminantTable) -> np.ndarray:
    """Matrix of sum_j t_j E_j, one scalar string application per nonzero
    amplitude and determinant: the reference for the single scatter of
    :meth:`ducclab.AmplitudeOperator.toarray`."""
    basis = table.basis
    mat = np.zeros((basis.size, basis.size), dtype=_inexact(t).dtype)
    for j in np.flatnonzero(t):
        for low, det in enumerate(basis):
            res = apply_excitation(table.signatures[j], det)
            if res is not None:
                mat[basis.index_of(res[0]), low] += t[j] * float(res[1])
    return mat


def deexcitation_matrix(t: np.ndarray, table: DeterminantTable) -> np.ndarray:
    """Matrix of sum_j x_j (E_j)+ -- an amplitude set applied in adjoint
    (de-excitation) form, coefficients NOT conjugated.  The phases are
    real, so this is the transpose of the excitation matrix."""
    return excitation_matrix(t, table).T


# -- extended coupled cluster --------------------------------------------------


@dataclass(frozen=True)
class DenseEccMatrices:
    """The six amplitude matrices of :meth:`ducclab.ecc.EccMatrices.build`,
    dense: the reference for its operators."""

    Ti: np.ndarray
    Te: np.ndarray
    Xi: np.ndarray
    Xe: np.ndarray
    dTi: np.ndarray
    dTe: np.ndarray
    basis: FockBasis


def dense_ecc_matrices(cfg: dict[str, np.ndarray], table: DeterminantTable
                       ) -> DenseEccMatrices:
    """The dense matrices of the keyword arguments ``cfg`` of
    :meth:`ducclab.ecc.EccMatrices.build`."""
    ex = lambda name: excitation_matrix(cfg[name], table)
    return DenseEccMatrices(Ti=ex("t_int"), Te=ex("t_ext"),
                            Xi=deexcitation_matrix(cfg["x_int"], table),
                            Xe=deexcitation_matrix(cfg["x_ext"], table),
                            dTi=ex("dt_int"), dTe=ex("dt_ext"), basis=table.basis)


def dense_x_int_ext_bch(cfg: dict[str, np.ndarray], table: DeterminantTable
                        ) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`ducclab.ecc.x_int_ext_bch` from the dense matrices of ``cfg``:
    the product of e^{T_int} X_ext with the dense e^{-T_int}, and the
    commutator series by dense products."""
    basis = table.basis
    m = dense_ecc_matrices(cfg, table)
    Ti, Xe = m.Ti, m.Xe
    direct = exp_nilpotent(Ti, Xe, basis) @ exp_nilpotent(-Ti, np.eye(basis.size), basis)
    cap = 3 * min(basis.N, basis.M - basis.N) + 2
    dead = 1e-14 * max(1.0, float(np.abs(Xe).max(initial=0.0)))
    series, term, n = np.zeros_like(Xe), Xe.copy(), 0
    while True:
        series = series + term / math.factorial(n)
        n += 1
        term = Ti @ term - term @ Ti
        if float(np.abs(term).max(initial=0.0)) <= dead:
            return direct, series, n
        if n > cap:
            raise ArithmeticError(f"nested-commutator series did not terminate by n={cap}")


def coupled_class_blocks(Xe: np.ndarray, basis: FockBasis, part: SpinOrbitalPartition
                         ) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """The layout of :func:`ducclab.ecc.x_int_ext_bch`'s blocks, derived from
    the labels alone: the determinants of each inactive-occupation class
    (the classes in ascending order of ``mask & inactive``, the members of
    one ascending), and the class pairs (c, c') ascending on which the
    dense de-excitation matrix ``Xe`` has a nonzero entry."""
    inactive = sum(1 << p for p in part.occ_inactive + part.virt_inactive)
    labels = basis.mask_array & inactive
    classes = sorted(set(labels.tolist()))
    members = [np.flatnonzero(labels == c) for c in classes]
    label_class = {c: k for k, c in enumerate(classes)}
    rows, cols = np.nonzero(Xe)
    pairs = sorted({(label_class[labels[i]], label_class[labels[j]])
                    for i, j in zip(rows.tolist(), cols.tolist())})
    return members, pairs


def scatter_class_blocks(blocks: np.ndarray, Xe: np.ndarray, basis: FockBasis,
                         part: SpinOrbitalPartition) -> np.ndarray:
    """The ``dim x dim`` matrix of a ``(nblocks, w, w)`` stack of class
    blocks laid out as :func:`coupled_class_blocks` says, zero outside the
    blocks; asserts one block per coupled class pair, each padded to the
    largest class with exact zeros."""
    members, pairs = coupled_class_blocks(Xe, basis, part)
    width = max(len(m) for m in members)
    assert blocks.shape == (len(pairs), width, width)
    out = np.zeros((basis.size, basis.size), blocks.dtype)
    for block, (c, d) in zip(blocks, pairs):
        rows, cols = members[c], members[d]
        out[np.ix_(rows, cols)] = block[:len(rows), :len(cols)]
        padding = block.copy()
        padding[:len(rows), :len(cols)] = 0
        assert not padding.any()
    return out


def eval_ecc_action_integrand(cfg: dict[str, np.ndarray], H: QOperator,
                              ref: Determinant) -> tuple[complex, float]:
    """:func:`action_deviation` of the forms of :func:`eval_ldt_forms` and
    :func:`eval_lh_forms`, for the keyword arguments ``cfg`` of
    :meth:`EccMatrices.build`."""
    m = EccMatrices.build(determinant_table(H.basis, ref), **cfg)
    v1, _, v4 = eval_ldt_forms(m, ref)
    w1, w2 = eval_lh_forms(m, H, ref)
    return action_deviation(v1, v4, w1, w2)
