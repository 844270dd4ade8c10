"""Double-unitary sweep decomposition of exact states.

A normalized state with nonzero reference overlap is reduced to the
reference determinant by an ordered product of elementary two-level
unitaries ``exp(theta * (e^{i phi} E_sig - e^{-i phi} E_sig+))``, each
stored as the two matrix entries ``cos(theta)`` and ``e^{i phi} sin(theta)``
it applies, with no angle ever formed; each zeroes the coefficient of one
target determinant against the reference.  Three sweeps run in sequence:

1. eliminate every determinant with at least one inactive-occupied hole,
   grouped by its smallest hole (ascending), rank-ascending inside a group;
2. eliminate every remaining external determinant (all holes active, at
   least one inactive-virtual particle), grouped by its LARGEST particle,
   groups in DESCENDING order, rank-ascending inside a group;
3. eliminate the internal determinants, grouped by smallest hole
   (ascending), which leaves e^{i delta} times the reference.

The group keys matter: an elementary rotation acts on every determinant
pair related by its signature (its target row's slice of the determinant
table's pair list), so a later rotation may only touch an
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
so the logarithms of their unitaries provide the anti-Hermitian external
and internal generators of ``psi = e^{sigma_ext} e^{sigma_int} |ref>``.
A sweep returns its rotation record, not a dense unitary: :func:`replay`
applies the recorded product's adjoint to any columns, such as the CAS
columns of e^{sigma_ext} a downfolded Hamiltonian needs, with no logarithm.

Sweeps 1-2 and :func:`replay` also take a ``(dim, B)`` stack of states and
``(dim, ncas, B)`` columns: the targets are the same for every state, so the
stack takes each rotation at once, column b by its own ``cos`` and ``sin``.
Every check holds per state; a failing stack names its first failing column.

A one-state rotation replayed onto a 2-D block (the identity, or CAS
columns) is one batched 2x2 product over its coupled pairs; a state vector
and a stack's steps keep the elementwise update (:func:`_apply_rotation`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CasSupportError, IntermediateNormalizationError, OrderingViolationError
from .fock import DeterminantTable, FockBasis, determinant_table
from .operators import exp_anti_hermitian, logm_unitary
from .shape import Determinant, ExcitationSignature, SpinOrbitalPartition, _check_sweep_ordering

#: Coefficients with magnitude below this are treated as already eliminated.
ZERO_TOL = 1e-14
#: A previously eliminated coefficient re-growing past this trips the monitor.
REGROWTH_TOL = 1e-10
#: Largest external norm of a state that sweep 3 accepts as CAS-supported.
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class RotationStep:
    """The rotation ``exp(theta (e^{i phi} E_{occ}^{virt} - e^{-i phi} E^{occ}_{virt}))``
    as the matrix entries it applies: the real ``cos = cos(theta)`` and ``sin =
    e^{i phi} sin(theta)`` in the dtype of the swept state (:func:`_apply_rotation`);
    for a stack of states both are ``(B,)`` arrays."""

    occ: tuple[int, ...]
    virt: tuple[int, ...]
    cos: float | np.ndarray
    sin: float | complex | np.ndarray

    @property
    def signature(self) -> ExcitationSignature:
        return ExcitationSignature(self.occ, self.virt)


def _apply_rotation(step: RotationStep, pairs, arr, inverse: bool = False):
    """Left-multiply an array in place by the rotation unitary, or with
    ``inverse`` by its adjoint (the same rotation with ``-sin``).

    On each coupled pair (low, high) with phase ph the unitary acts as
        low'  = cos * low - conj(sin) ph * high
        high' = sin ph * low + cos * high
    and as the identity elsewhere, one update for real and complex arrays.
    A one-state step (scalar ``cos`` and ``sin``) on a 2-D ``arr``, the
    identity or the CAS columns that :func:`replay` forms, takes its m pairs
    as one ``(m, 2, 2) @ (m, 2, width)`` product on the interleaved low/high
    rows.  A 1-D state, and a batched step, which acts on the trailing axis
    of ``arr``, entry b on ``arr[..., b]``, keep the elementwise update: the
    product form slowed the stacked replay of a quench and the sweep of one
    state.  A complex step cannot act on a real array.
    """
    lows, highs, phases = pairs
    if lows.size == 0 or not np.count_nonzero(step.sin):
        return
    if np.iscomplexobj(step.sin) and not np.iscomplexobj(arr):
        raise ValueError("a complex rotation cannot act on a real array")
    s = -step.sin if inverse else step.sin
    if arr.ndim == 2 and np.ndim(s) == 0:
        m, width = lows.size, arr.shape[1]
        rows = np.stack((lows, highs), axis=1).ravel()
        G = np.empty((m, 2, 2), dtype=arr.dtype)
        G[:, 0, 0] = G[:, 1, 1] = step.cos
        G[:, 0, 1] = -np.conj(s) * phases
        G[:, 1, 0] = s * phases
        arr[rows] = (G @ arr[rows].reshape(m, 2, width)).reshape(2 * m, width)
        return
    lo, hi = arr[lows], arr[highs]
    ph = phases.reshape(phases.shape + (1,) * (lo.ndim - 1))
    arr[lows] = step.cos * lo - np.conj(s) * ph * hi
    arr[highs] = s * ph * lo + step.cos * hi


def rotation_for_target(state: np.ndarray, j: int,
                        table: DeterminantTable) -> RotationStep:
    """The rotation that zeroes the coefficient of row ``j`` of ``table``
    against the reference, for one state or each column of a stack.

    With c = <det_j|state>, c' = <ref|state> and ph the fermionic sign of
    the generator matrix element, the rotated target coefficient is
    ``sin ph c' + cos c``; with ``z = -c / (ph c')`` it vanishes for ``cos =
    1/sqrt(1 + |z|^2)`` and ``sin = z cos``.  An empty partner takes a
    quarter turn (``cos = 0``, ``sin = -c / (ph |c|)``), a zero c the identity
    (``cos = 1``, ``sin = 0``).  A real state gives a real ``sin``.  A state
    takes the same array arithmetic alone as stacked.
    """
    sig = table.signatures[j]
    ph = table.phases[j]
    c_t, c_p = state[[j, table.ref_index]].reshape(2, -1)
    a_t = np.abs(c_t)
    live = a_t > ZERO_TOL
    # partner empty: a quarter turn moves |c_t| onto it, at the phase of -ph c_t
    quarter = live & (np.abs(c_p) <= ZERO_TOL)
    z = np.divide(-ph * c_t, np.where(quarter, a_t, c_p), out=np.zeros_like(c_t), where=live)
    cos = np.where(quarter, 0.0, 1.0 / np.hypot(1.0, np.abs(z)))
    sin = np.where(quarter, z, z * cos)
    if state.ndim == 1:
        return RotationStep(sig.occ, sig.virt, cos[0].item(), sin[0].item())
    return RotationStep(sig.occ, sig.virt, cos, sin)


def _refuse(bad, error, message):
    """Raise ``error(message(b))`` for the first state b where ``bad`` holds:
    ``b = ()`` for one state, else a stack column, also kept as ``error.state``."""
    if np.count_nonzero(bad):
        b = np.unravel_index(np.argmax(bad), np.shape(bad))
        exc = error(message(b) + (f" (stack column {b[0]})" if b else ""))
        exc.state = int(b[0]) if b else None
        raise exc


@lru_cache(maxsize=16)
def sweep_targets(table: DeterminantTable, part: SpinOrbitalPartition
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered sweep-1, sweep-2 and sweep-3 target rows of ``table``.

    Each group is ordered by its key (the smallest hole for sweeps 1 and 3,
    the largest particle, descending, for sweep 2) and by (rank, occ, virt)
    inside.  Memoised per ``(table, part)``: a trajectory reuses one result
    for every state.  The table keys by identity, the partition by value.
    """
    _check_sweep_ordering(part)
    rows = table.order
    external = table.external(part)[rows]
    holes, particles = table.holes[rows], table.particles[rows]
    smallest_hole = np.bitwise_count((holes & -holes) - 1)
    largest_particle = np.frexp(particles)[1]   # its index + 1
    has_inactive_hole = holes & sum(1 << p for p in part.occ_inactive) != 0

    def group(select, key):
        ordered = rows[select][np.argsort(key[select], kind="stable")]
        ordered.flags.writeable = False
        return ordered
    return (group(external & has_inactive_hole, smallest_hole),
            group(external & ~has_inactive_hole, -largest_particle),
            group(~external & (table.ranks[rows] > 0), smallest_hole))


def _run_targets(state, targets, table) -> list:
    """Eliminate the target rows in order, rotating ``state`` (one state or
    a stack) in place; returns the rotation record, each applied rotation
    with its coupled pairs (:meth:`DeterminantTable.pairs`).  A target that
    is zero in every state is skipped.  Every eliminated row must stay dead:
    a rotation can re-grow only the rows it touches, so only the dead rows
    among those are checked, per state."""
    record = []
    dead = np.zeros(len(state), dtype=bool)
    for j in targets.tolist():
        step = rotation_for_target(state, j, table)
        dead[j] = True
        if not np.count_nonzero(step.sin):
            continue
        pairs = table.pairs(j)
        _apply_rotation(step, pairs, state)
        record.append((step, pairs))
        touched = np.concatenate(pairs[:2])
        worst = np.abs(state[touched[dead[touched]]]).max(axis=0, initial=0.0)
        _refuse(~(worst <= REGROWTH_TOL), OrderingViolationError, lambda b: (
            f"eliminated coefficient re-grew to {worst[b]:.3e} "
            f"while processing target {table.signatures[j]}"))
    return record


def replay(record: list, cols: np.ndarray) -> np.ndarray:
    """``omega^+ @ cols`` in place for the product omega of the recorded
    rotations (``e^{sigma_ext} @ cols`` for the record of sweeps 1-2): the
    inverse rotations in reverse order.  A stack's record acts on columns
    with the stack's trailing axis, ``(dim, ncas, B)``.  Returns ``cols``."""
    for step, pairs in reversed(record):
        _apply_rotation(step, pairs, cols, inverse=True)
    return cols


def _sweep_external(psi, table: DeterminantTable, part: SpinOrbitalPartition, targets):
    """Normalised ``psi``, record of sweeps 1-2 over ``targets`` and ``psi_act``
    for one state or a ``(dim, B)`` stack, every check per state."""
    psi = np.asarray(psi)
    # each norm from a contiguous copy of its state: the same alone or stacked
    rows = np.ascontiguousarray(psi.T).reshape(-1, len(psi))
    nrm = np.array([np.linalg.norm(row) for row in rows]).reshape(psi.shape[1:])
    _refuse(nrm == 0.0, IntermediateNormalizationError,
            lambda b: "cannot decompose the zero vector")
    psi_n = np.asarray(psi, dtype=np.result_type(psi, np.float64)) / nrm
    _refuse(np.abs(psi_n[table.ref_index]) < 1e-14, IntermediateNormalizationError,
            lambda b: "state has (numerically) zero reference overlap")
    psi_act = np.array(psi_n, order="C")
    record = _run_targets(psi_act, np.concatenate(targets[:2]), table)
    ext_norm = np.linalg.norm(psi_act[table.external(part)], axis=0)
    _refuse(~(ext_norm <= SUPPORT_TOL), CasSupportError, lambda b: (
        f"state has external support {ext_norm[b]:.3e} (tol {SUPPORT_TOL:.0e})"))
    return psi_n, record, psi_act


def sweep_external(psi: np.ndarray, ref: Determinant, part: SpinOrbitalPartition,
                   basis: FockBasis) -> tuple[list, np.ndarray]:
    """Sweeps 1-2 of :func:`decompose_state` on the vector alone, or on each
    column of a ``(dim, B)`` stack in one pass over the targets: their
    rotation record, which :func:`replay` turns into columns of
    e^{sigma_ext}, and ``psi_act``; raises as :func:`decompose_state`."""
    table = determinant_table(basis, ref)
    return _sweep_external(psi, table, part, sweep_targets(table, part))[1:]


@dataclass
class SweepResult:
    """Full decomposition psi = e^{sigma_ext} e^{sigma_int} |ref>.

    ``cas_columns`` holds the product of the rotations of sweeps 1-2
    replayed on the identity (:func:`replay`), omega12^+ = e^{sigma_ext}, at
    the CAS columns (:meth:`DeterminantTable.cas`; Fortran
    order, as a replay of unit columns gives them), ``psi_act`` the
    CAS-supported state e^{sigma_int}|ref> they leave, ``delta`` the
    phase of e^{i delta}|ref> left by sweep 3, ``sigma_int_rotation`` the
    internal generator without that phase, ``rotations`` the number of
    rotations of all three sweeps, and the defects those that
    :func:`logm_unitary` checked on omega12^+ (sweeps 1-2) and omega3^+.
    """

    sigma_ext: np.ndarray
    sigma_int_rotation: np.ndarray
    cas_columns: np.ndarray
    psi_act: np.ndarray
    delta: float
    residual: float
    rotations: int
    omega12_defect: float
    omega3_defect: float

    @property
    def sigma_int(self) -> np.ndarray:
        """The internal generator log(omega3^+) + i delta I, built on request."""
        n = len(self.sigma_int_rotation)
        return self.sigma_int_rotation + 1j * self.delta * np.eye(n)


def decompose_state(psi: np.ndarray, ref: Determinant, part: SpinOrbitalPartition,
                    basis: FockBasis) -> SweepResult:
    """Sweeps, generators and reconstruction residual of ``psi``.

    Sweeps 1-2 rotate away every external determinant, sweep 3 the CAS
    remainder onto e^{i delta}|ref>; their records replayed on the identity
    give omega12^+, whose CAS columns the result keeps, and omega3^+;
    sigma_ext = log(omega12^+) and sigma_int = log(omega3^+) + i delta.  The
    residual rebuilds psi from the generators alone, e^{i delta} as a
    scalar: ``i delta I`` commutes with log(omega3^+).
    A real ``psi`` is swept in float64, delta then exactly 0 or pi.
    Raises OrderingViolationError if an eliminated coefficient re-grows (a
    broken elimination order), CasSupportError if sweeps 1-2 leave external
    support."""
    table = determinant_table(basis, ref)
    targets = sweep_targets(table, part)
    psi_n, record, psi_act = _sweep_external(psi, table, part, targets)
    state = psi_act.copy()
    record3 = _run_targets(state, targets[2], table)
    c_ref = state[table.ref_index]
    omega12 = replay(record, np.eye(basis.size, dtype=psi_n.dtype))
    cas_columns = omega12[:, table.cas(part)]
    sigma_ext, d12 = logm_unitary(omega12)
    del omega12   # one dense array fewer at the second log's peak
    log3, d3 = logm_unitary(replay(record3, np.eye(basis.size, dtype=psi_n.dtype)))
    # psi rebuilt from the generators alone by the certified series
    recon = exp_anti_hermitian(sigma_ext, exp_anti_hermitian(
        log3, c_ref / abs(c_ref) * basis.unit_vector(table.ref_index)))
    return SweepResult(
        sigma_ext=sigma_ext, sigma_int_rotation=log3,
        cas_columns=cas_columns, psi_act=psi_act,
        delta=cmath.phase(c_ref), residual=float(np.linalg.norm(recon - psi_n)),
        rotations=len(record) + len(record3), omega12_defect=d12, omega3_defect=d3)
