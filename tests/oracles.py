"""Test oracles: reference implementations that only the tests call.

Each is the independent, slower or more literal counterpart of a kernel in
``ducclab``: the truncated and certified commutator series of the derivative
of the exponential map (against the closed form of
:func:`ducclab.downfold.exp_dexp`), dense rotation generators and
unitaries, per-determinant classification and de-excitation, dense
projectors, a reference-dominated random Hamiltonian, the Hubbard chain as
an integral set, the bare CAS-CI Hamiltonian and the assembled ECC action
integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ducclab.downfold import EffectiveHamiltonian, cas_indices
from ducclab.ecc import (EccConfiguration, EccMatrices, action_deviation,
                         eval_ldt_forms, eval_lh_forms)
from ducclab.errors import OperatorPropertyError, SectorMismatchError
from ducclab.fock import (DetClass, Determinant, ExcitationSignature, FockBasis,
                          SpinOrbitalPartition, apply_operator_string,
                          classify_sector, excitation_pairs, holes_and_particles)
from ducclab.operators import IntegralSet, QOperator
from ducclab.sweeps import RotationStep, _apply_rotation

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


def dexp_series(X: QOperator, Xdot: QOperator, K: int = DEFAULT_SERIES_ORDER) -> QOperator:
    """A(X, Xdot) with d/dt e^{X(t)} = e^{X} A: truncated commutator series
    sum_{k=0..K} (-1)^k/(k+1)! ad_X^k Xdot.

    Anti-Hermitian whenever X and Xdot are.
    """
    if K < 0:
        raise ValueError("series order K must be >= 0")
    return QOperator(_dexp_np(X.matrix, Xdot.matrix, K), X.basis)


def dexp_tail_ratio(X: QOperator, Xdot: QOperator,
                    K: int = DEFAULT_SERIES_ORDER) -> float:
    """Norm of the K-th series term over the norm of the sum: a cheap
    convergence certificate (factorial decay makes it fall fast)."""
    terms = list(_dexp_terms(X.matrix, Xdot.matrix, K))
    total = np.linalg.norm(sum(terms))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(terms[-1]) / total)


# -- sweeps ------------------------------------------------------------------


def rotation_generator(step: RotationStep, basis: FockBasis) -> QOperator:
    """Dense anti-Hermitian generator of the rotation (for provenance checks)."""
    lows, highs, phases = excitation_pairs(step.signature, basis)
    g = np.zeros((basis.size, basis.size), dtype=complex)
    eip = np.exp(1j * step.phase)
    g[highs, lows] += step.angle * eip * phases
    g[lows, highs] -= step.angle * np.conj(eip) * phases
    return QOperator(g, basis)


def rotation_unitary(step: RotationStep, basis: FockBasis) -> QOperator:
    """Dense unitary of one rotation, assembled pairwise (equals
    expm(rotation_generator))."""
    u = np.eye(basis.size, dtype=complex)
    _apply_rotation(step, excitation_pairs(step.signature, basis), u)
    return QOperator(u, basis)


# -- determinants ------------------------------------------------------------


def apply_deexcitation(sig: ExcitationSignature,
                       det: Determinant) -> tuple[Determinant, int] | None:
    """Apply the adjoint string ``a+_{i1}..a+_{ik} a_{ak}..a_{a1}``."""
    res = apply_operator_string(det.occupation, sig.occ, tuple(reversed(sig.virt)))
    if res is None:
        return None
    mask, sign = res
    return Determinant(mask, det.M), sign


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

    P: QOperator
    Q_int: QOperator
    Q_ext: QOperator


def build_projectors(ref: Determinant, basis: FockBasis,
                     part: SpinOrbitalPartition) -> Projectors:
    classes = classify_sector(basis, ref, part)
    proj = lambda cls: QOperator(np.diag((classes == cls).astype(complex)), basis)
    return Projectors(P=proj(DetClass.REFERENCE), Q_int=proj(DetClass.INTERNAL),
                      Q_ext=proj(DetClass.EXTERNAL))


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


def hubbard_integrals(L: int, t: float, U: float) -> IntegralSet:
    """The same Hubbard chain expressed as an IntegralSet (cross-check path)."""
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


def cas_ci(H: QOperator, ref: Determinant,
           part: SpinOrbitalPartition) -> EffectiveHamiltonian:
    """Bare CAS-CI Hamiltonian (no transformation), Hermitian for Hermitian H."""
    cas = cas_indices(ref, part, H.basis)
    sub = H.matrix[np.ix_(cas, cas)]
    hermitian = float(np.linalg.norm(sub - sub.conj().T)) <= 1e-10
    if hermitian:
        sub = 0.5 * (sub + sub.conj().T)
    return EffectiveHamiltonian(sub, cas, H.basis, "cas-ci", hermitian=hermitian)


# -- extended coupled cluster --------------------------------------------------


def eval_ecc_action_integrand(cfg: EccConfiguration, H: QOperator,
                              ref: Determinant) -> tuple[complex, float]:
    """:func:`action_deviation` of the forms of :func:`eval_ldt_forms` and
    :func:`eval_lh_forms`."""
    m = EccMatrices.build(cfg, H.basis)
    v1, _, v4 = eval_ldt_forms(m, ref)
    w1, w2 = eval_lh_forms(m, H, ref)
    return action_deviation(v1, v4, w1, w2)
