"""Double-unitary sweep decomposition of exact states.

A normalized state with nonzero reference overlap is reduced to the
reference determinant by an ordered product of elementary two-level
unitaries ``exp(theta * (e^{i phi} E_sig - e^{-i phi} E_sig+))``, each of
which zeroes the coefficient of one target determinant against the
reference.  Three sweeps run in sequence:

1. eliminate every determinant with at least one inactive-occupied hole,
   grouped by its smallest hole (ascending), rank-ascending inside a group;
2. eliminate every remaining external determinant (all holes active, at
   least one inactive-virtual particle), grouped by its LARGEST particle,
   groups in DESCENDING order, rank-ascending inside a group;
3. eliminate the internal determinants, grouped by smallest hole
   (ascending), which leaves e^{i delta} times the reference.

The group keys matter: an elementary rotation acts on every determinant
pair related by its signature, so a later rotation may only touch an
already-eliminated determinant if the other pair member is also already
zero.  Grouping sweep 1 by the smallest (necessarily inactive) hole and
sweep 2 by the largest (necessarily inactive) particle guarantees exactly
that: the partner of an eliminated determinant always retains the group's
defining inactive index (hence was eliminated in the same, fully processed
group or an earlier one), or is the reference itself.  Keying sweep 2 on
occupied indices instead breaks the guarantee, because the partner can
lose all inactive particles and become an internal determinant that is
never eliminated; the ordering monitor below would trip on it.

Sweeps 1 and 2 use only external signatures, sweep 3 only internal ones,
so the logarithms of the accumulated unitaries provide the anti-Hermitian
external and internal generators of the product decomposition
``psi = e^{sigma_ext} e^{sigma_int} |ref>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CasSupportError, IntermediateNormalizationError,
                     InvalidDimensionError, OrderingViolationError)
from .fock import (DetClass, Determinant, DeterminantTable, ExcitationSignature,
                   FockBasis, SpinOrbitalPartition, determinant_table,
                   excitation_pairs)
from .operators import QOperator, eigh_direct_sum, logm_unitary

#: Coefficients with magnitude below this are treated as already eliminated.
ZERO_TOL = 1e-14
#: A previously eliminated coefficient re-growing past this trips the monitor.
REGROWTH_TOL = 1e-10
#: Largest external norm of a state that sweep 3 accepts as CAS-supported.
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class RotationStep:
    """One elementary rotation: generator
    ``angle * (e^{i phase} E_{occ}^{virt} - e^{-i phase} E^{occ}_{virt})``."""

    occ: tuple[int, ...]
    virt: tuple[int, ...]
    angle: float
    phase: float

    @property
    def signature(self) -> ExcitationSignature:
        return ExcitationSignature(self.occ, self.virt)


def _apply_rotation(step: RotationStep, pairs, *arrays):
    """Left-multiply vectors/matrices in place by the rotation unitary.

    On each coupled pair (low, high) with phase ph the unitary acts as
        low'  =  cos(t)        * low - e^{-i phi} ph sin(t) * high
        high' =  e^{i phi} ph sin(t) * low + cos(t)         * high
    and as the identity elsewhere.
    """
    lows, highs, phases = pairs
    if lows.size == 0 or step.angle == 0.0:
        return
    c = np.cos(step.angle)
    s = np.sin(step.angle)
    eip = np.exp(1j * step.phase)
    for arr in arrays:
        lo = arr[lows].copy()
        hi = arr[highs].copy()
        ph = phases if lo.ndim == 1 else phases[:, None]
        arr[lows] = c * lo - np.conj(eip) * ph * s * hi
        arr[highs] = eip * ph * s * lo + c * hi


def rotation_for_target(state: np.ndarray, j: int,
                        table: DeterminantTable) -> RotationStep:
    """Angle and phase that zero the coefficient of row ``j`` of ``table``
    against the reference.

    With c = <det_j|state>, c' = <ref|state> and ph the fermionic sign of
    the generator matrix element, the rotated target coefficient is
    ``e^{i phi} ph sin(t) c' + cos(t) c``; it vanishes for
    ``e^{i phi} tan(t) = -c / (ph c')``.
    """
    sig = table.signatures[j]
    ph = float(table.phases[j])
    c_t = complex(state[j])
    c_p = complex(state[table.ref_index])
    if abs(c_t) <= ZERO_TOL:
        return RotationStep(sig.occ, sig.virt, 0.0, 0.0)
    if abs(c_p) <= ZERO_TOL:
        # partner empty: a quarter turn moves |c_t| onto the partner
        return RotationStep(sig.occ, sig.virt, np.pi / 2, float(np.angle(-ph * c_t)))
    z = -c_t / (ph * c_p)
    return RotationStep(sig.occ, sig.virt, float(np.arctan(abs(z))), float(np.angle(z)))


def _check_sweep_ordering(part: SpinOrbitalPartition):
    """The non-reintroduction guarantee needs the inactive classes at the
    index extremes: every inactive hole below the active holes, every
    inactive particle above the active particles."""
    if part.occ_inactive and part.occ_active \
            and max(part.occ_inactive) > min(part.occ_active):
        raise InvalidDimensionError(
            "sweep ordering requires all occ_inactive indices below occ_active")
    if part.virt_inactive and part.virt_active \
            and min(part.virt_inactive) < max(part.virt_active):
        raise InvalidDimensionError(
            "sweep ordering requires all virt_inactive indices above virt_active")


@lru_cache(maxsize=16)
def sweep_targets(table: DeterminantTable, part: SpinOrbitalPartition
                  ) -> tuple[tuple, tuple, tuple]:
    """Ordered sweep-1, sweep-2 and sweep-3 target tuples of (signature, row).

    Each group is ordered by its key (the smallest hole for sweeps 1 and 3,
    the largest particle, descending, for sweep 2) and by (rank, occ, virt)
    inside.  Memoised per ``(table, part)``: a trajectory reuses one result
    for every state.  The table keys by identity, the partition by value.
    """
    _check_sweep_ordering(part)
    rows = table.order
    classes = table.classes(part)[rows]
    holes, particles = table.holes[rows], table.particles[rows]
    smallest_hole = np.bitwise_count((holes & -holes) - 1)
    largest_particle = np.frexp(particles)[1]   # its index + 1
    external = classes == DetClass.EXTERNAL
    has_inactive_hole = holes & sum(1 << p for p in part.occ_inactive) != 0

    def group(select, key):
        ordered = rows[select][np.argsort(key[select], kind="stable")]
        return tuple((table.signatures[j], j) for j in ordered.tolist())
    return (group(external & has_inactive_hole, smallest_hole),
            group(external & ~has_inactive_hole, -largest_particle),
            group(classes == DetClass.INTERNAL, smallest_hole))


def _run_targets(state, omega, targets, table, eliminated):
    """Eliminate targets in order, accumulating rotations into the matrix
    ``omega`` and recording steps. ``eliminated`` holds rows whose
    coefficients must stay dead."""
    steps = []
    for sig, j in targets:
        step = rotation_for_target(state, j, table)
        if step.angle != 0.0:
            _apply_rotation(step, excitation_pairs(sig, table.basis), state, omega)
            steps.append(step)
        eliminated.append(j)
        worst = float(np.abs(state[eliminated]).max())
        if worst > REGROWTH_TOL:
            raise OrderingViolationError(
                f"eliminated coefficient re-grew to {worst:.3e} "
                f"while processing target {sig}")
    return steps


@dataclass
class ExternalSweep:
    """Sweeps 1-2: their accumulated unitary and the CAS-supported state."""

    omega12: QOperator
    psi_act: np.ndarray
    steps1: list[RotationStep]
    steps2: list[RotationStep]


@dataclass
class InternalSweep:
    omega3: QOperator
    delta: float
    steps3: list[RotationStep]


@dataclass
class SweepResult:
    """Full decomposition psi = e^{sigma_ext} e^{sigma_int} |ref>."""

    omega12: QOperator
    omega3: QOperator
    sigma_ext: QOperator
    sigma_int: QOperator
    delta: float
    residual: float
    steps1: list[RotationStep]
    steps2: list[RotationStep]
    steps3: list[RotationStep]
    psi_act: np.ndarray


def sweep_external(psi: np.ndarray, ref: Determinant, part: SpinOrbitalPartition,
                   basis: FockBasis) -> ExternalSweep:
    """Rotate away all external determinants; every generator is external.

    Raises OrderingViolationError if an already-eliminated coefficient
    re-grows (which would indicate a broken elimination order).
    """
    table = determinant_table(basis, ref)
    if abs(psi[table.ref_index]) < 1e-14:
        raise IntermediateNormalizationError("state has (numerically) zero reference overlap")
    state = np.array(psi, dtype=complex)
    om12 = np.eye(basis.size, dtype=complex)
    targets1, targets2, _ = sweep_targets(table, part)
    eliminated: list[int] = []
    steps1 = _run_targets(state, om12, targets1, table, eliminated)
    steps2 = _run_targets(state, om12, targets2, table, eliminated)
    return ExternalSweep(QOperator(om12, basis), state, steps1, steps2)


def sweep_internal(psi_act: np.ndarray, ref: Determinant,
                   part: SpinOrbitalPartition, basis: FockBasis) -> InternalSweep:
    """Rotate a CAS-supported state onto e^{i delta}|ref> with internal
    generators only."""
    table = determinant_table(basis, ref)
    proj_ext = table.classes(part) == DetClass.EXTERNAL
    ext_norm = float(np.linalg.norm(psi_act[proj_ext]))
    if ext_norm > SUPPORT_TOL:
        raise CasSupportError(
            f"state has external support {ext_norm:.3e} (tol {SUPPORT_TOL:.0e})")
    state = np.array(psi_act, dtype=complex)
    om3 = np.eye(basis.size, dtype=complex)
    steps3 = _run_targets(state, om3, sweep_targets(table, part)[2], table, [])
    delta = float(np.angle(state[table.ref_index]))
    return InternalSweep(QOperator(om3, basis), delta, steps3)


def extract_sigmas(omega12: QOperator, omega3: QOperator, delta: float
                   ) -> tuple[QOperator, QOperator]:
    """Anti-Hermitian generators from the accumulated unitaries.

    sigma_ext = log(omega12^-1); sigma_int = log(omega3^-1) + i delta,
    the global phase being carried by the internal generator.
    """
    sigma_ext = logm_unitary(omega12.dagger())
    sigma_int = logm_unitary(omega3.dagger())
    eye = np.eye(omega3.basis.size)
    sigma_int = QOperator(sigma_int.matrix + 1j * delta * eye, omega3.basis)
    return sigma_ext, sigma_int


def decompose_state(psi: np.ndarray, ref: Determinant, part: SpinOrbitalPartition,
                    basis: FockBasis) -> SweepResult:
    """Full pipeline: sweeps, generator extraction, reconstruction residual."""
    nrm = float(np.linalg.norm(psi))
    if nrm == 0.0:
        raise IntermediateNormalizationError("cannot decompose the zero vector")
    psi_n = np.asarray(psi, dtype=complex) / nrm
    ext = sweep_external(psi_n, ref, part, basis)
    intr = sweep_internal(ext.psi_act, ref, part, basis)
    sigma_ext, sigma_int = extract_sigmas(ext.omega12, intr.omega3, intr.delta)
    recon = basis.unit_vector(basis.index_of(ref))
    for sigma in (sigma_int, sigma_ext):
        # e^{sigma} v through i sigma = V diag(mu) V^+, independent of the omegas
        mu, V = eigh_direct_sum(1j * sigma.matrix)
        recon = V @ (np.exp(-1j * mu) * (V.conj().T @ recon))
    residual = float(np.linalg.norm(recon - psi_n))
    return SweepResult(
        omega12=ext.omega12, omega3=intr.omega3,
        sigma_ext=sigma_ext, sigma_int=sigma_int, delta=intr.delta,
        residual=residual, steps1=ext.steps1, steps2=ext.steps2,
        steps3=intr.steps3, psi_act=ext.psi_act)
