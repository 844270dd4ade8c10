"""Real-time propagation and its downfolded counterparts.

The full-space propagation is the oracle: every state from one
eigendecomposition of H.  The downfolded side propagates active-space
coefficients under the time-dependent Hermitian effective Hamiltonian
(P+Q_int){e^{-sigma} H e^{sigma} - i e^{-sigma} d/dt e^{sigma}}(P+Q_int),
which needs only the CAS columns of e^{sigma_ext}, the sweep's rotation
record replayed (:func:`ducclab.sweeps.replay`), and their velocity, a
stencil over the time grid (:func:`downfolded_quench`), swept and replayed
a batch of grid points at a time.  The Lagrangian evaluators act on vectors
only, by one certified Taylor action per generator and its derivative
(:func:`ducclab.operators.exp_anti_hermitian`) or, for e^{+-T}, by the
series of :class:`ducclab.ecc.EccMatrices`.  hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .downfold import ducc_projection, unit_columns
from .ecc import EccMatrices
from .errors import DuccLabError, NormDriftError, OperatorPropertyError
from .fock import determinant_table
from .operators import QOperator, _matmul, exp_anti_hermitian
from .shape import Determinant, SpinOrbitalPartition
from .sweeps import replay, sweep_external

#: Largest per-step norm drift of the RK4 integrator: the generator is
#: Hermitian, so the exact flow preserves the norm.
DRIFT_TOL = 1e-6


def propagate_full(H: QOperator, psi0: np.ndarray, dt: float,
                   nsteps: int) -> np.ndarray:
    """Exact full-space evolution: row k is exp(-i H t_k) psi0, t_k = k dt.

    H must be Hermitian and time-independent: one ``eigh`` H = V diag(w) V^+,
    real for a real H, gives every state as V e^{-i w t_k} V^+ psi0, with no
    error that grows step by step (Moler & Van Loan, SIAM Rev. 45, 3 (2003)),
    row by row into the one array returned.  The initial state is normalized.
    """
    if not H.hermiticity_defect() <= 1e-10:
        raise OperatorPropertyError(
            f"propagation Hamiltonian not Hermitian (defect {H.hermiticity_defect():.3e})")
    if dt <= 0 or nsteps < 0:
        raise ValueError("need dt > 0 and nsteps >= 0")
    psi = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    w, V = np.linalg.eigh(H.matrix)
    coeffs = _matmul(V.conj().T, psi)
    states = np.empty((nsteps + 1, len(psi)), dtype=complex)
    for k, t in enumerate(dt * np.arange(nsteps + 1)):
        states[k] = _matmul(V, np.exp(-1j * (t * w)) * coeffs)
    return states


#: fourth-order first-derivative weights (times 12 dt) over five consecutive
#: grid points, by the position of the differentiated point among them
_STENCILS = ((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1), (1, -8, 0, 8, -1),
             (-1, 6, -18, 10, 3), (3, -16, 36, -48, 25))


def sigma_dot_grid(sigmas: Sequence[np.ndarray], dt: float) -> Iterator[np.ndarray]:
    """Fourth-order finite-difference velocities of an array-valued grid
    function on at least five points, one at a time from left to right:
    central differences inside, one-sided stencils next to either end."""
    n = len(sigmas)
    if n < 5:
        raise ValueError("need at least 5 grid points for the fourth-order stencil")

    def velocities(f: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        for k in range(n):
            first = min(max(k - 2, 0), n - 5)
            yield sum(w * f[first + i] for i, w in enumerate(_STENCILS[k - first])
                      if w) / (12 * dt)
    return velocities(sigmas)


def propagate_internal(heffs: Sequence[np.ndarray], c0: np.ndarray, dt: float,
                       nsteps: int) -> np.ndarray:
    """Fixed-step classical RK4 for i dc/dt = Heff(t) c; row k of the result
    is c(t_k), t_k = k dt.

    ``heffs`` holds Heff on the half-step grid t_j = j dt/2, j = 0..2 nsteps:
    step k reads ``heffs[2k]`` at its start, ``heffs[2k+1]`` at its midpoint
    for the internal stages, and ``heffs[2k+2]`` at its end.  A per-step
    norm drift beyond :data:`DRIFT_TOL` raises :class:`NormDriftError`.
    """
    if len(heffs) != 2 * nsteps + 1:
        raise ValueError(f"need 2 * nsteps + 1 = {2 * nsteps + 1} half-step "
                         f"matrices, got {len(heffs)}")
    c = np.asarray(c0, dtype=complex).copy()
    dim = c.shape[0]
    out = np.empty((nsteps + 1, dim), dtype=complex)
    out[0] = c
    for k in range(nsteps):
        h0, hm, h1 = heffs[2 * k:2 * k + 3]
        norm_before = np.linalg.norm(c)
        k1 = -1j * (h0 @ c)
        k2 = -1j * (hm @ (c + 0.5 * dt * k1))
        k3 = -1j * (hm @ (c + 0.5 * dt * k2))
        k4 = -1j * (h1 @ (c + dt * k3))
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.linalg.norm(c) - norm_before)
        if not drift <= DRIFT_TOL:   # NaN fails too
            raise NormDriftError(f"norm drift {drift:.3e} at step {k} exceeds {DRIFT_TOL:.0e}")
        out[k + 1] = c
    return out


# -- the downfolded-quench study ----------------------------------------------


@dataclass
class QuenchStudy:
    """Exact and downfolded sides of one quench, as plain arrays.

    Rows ``j`` of the exact-side arrays belong to the half-step grid
    t_j = j dt/2, j = 0..2 nsteps; rows ``k`` of ``c_rk4`` to the whole-step
    grid t_k = k dt, which is t_{2k} of the half grid.
    """

    dt: float                 # whole step
    cas: np.ndarray           # parent-basis indices of the CAS, reference first
    states: np.ndarray        # (2n+1, dim) exact states
    energies: np.ndarray      # (2n+1,) <psi|H|psi>
    norms: np.ndarray         # (2n+1,)
    c_int: np.ndarray         # (2n+1, ncas) CAS coefficients of e^{sigma_int}|ref>
    residuals: np.ndarray     # (2n+1,) ||R c_int - psi||, R = e^{sigma_ext}[:, cas]
    heffs: np.ndarray         # (2n+1, ncas, ncas) Heff(t_j)
    c_rk4: np.ndarray         # (n+1, ncas) RK4 coefficients under Heff

    @property
    def rk4_deviation(self) -> np.ndarray:
        """|c_rk4(t_k) - c_int(t_k)| on the whole-step grid."""
        return np.linalg.norm(self.c_rk4 - self.c_int[::2], axis=1)


class _GridWindow:
    """A read-only sequence of ``size`` arrays computed in grid order when
    first read, a batch at a time: ``compute(j)`` gives those of consecutive
    points from ``j``.  Only the newest batch and the four points before it
    are kept: the stencil of :func:`sigma_dot_grid`, read in order, needs no more."""

    def __init__(self, size: int, compute):
        self._size, self._compute = size, compute
        self._first, self._alive = 0, []   # the arrays of points _first, _first + 1, ...

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, j: int) -> np.ndarray:
        j = range(self._size)[j]
        while j >= self._first + len(self._alive):
            kept = self._alive[-4:]
            self._first += len(self._alive) - len(kept)
            self._alive = kept + self._compute(self._first + len(kept))
        return self._alive[j - self._first]


def downfolded_quench(H: QOperator, psi0: np.ndarray, dt: float, nsteps: int,
                      ref: Determinant, part: SpinOrbitalPartition) -> QuenchStudy:
    """The time-dependent downfolding checked on one quench from ``psi0``.

    The exact states on the half-step grid (:func:`propagate_full`, so that
    the RK4 stage values are exact) are swept (:func:`ducclab.sweeps.sweep_external`),
    each record replayed into the CAS columns ``R`` of e^{sigma_ext}, and the
    blocks ``R`` differenced in time (:func:`sigma_dot_grid`) into Heff(t) =
    R^+ H R - i A, ``A`` the anti-Hermitian part of ``R^+ dR/dt``.  The CAS
    coefficients of the first state are propagated under Heff
    (:func:`propagate_internal`); a state's residual is ``||R c_int - psi||``.
    Batches of ``max(1, dim // ncas)`` consecutive states are swept and
    replayed in one pass over the targets when the stencil first reaches
    them: a batch's columns hold at most dim^2 entries, H's size (twice while
    split into blocks), beside four older blocks.  A failing sweep names the
    time of its first failing state.
    """
    states = propagate_full(H, psi0, dt / 2, 2 * nsteps)
    dim = H.basis.size
    cas = determinant_table(H.basis, ref).cas(part)
    npts, ncas = len(states), len(cas)
    width = max(1, dim // ncas)
    c_int = np.empty((npts, ncas), dtype=complex)
    residuals = np.empty(npts)

    def columns(first: int) -> list[np.ndarray]:
        batch = states[first:first + width]
        try:
            record, psi_act = sweep_external(batch.T, ref, part, H.basis)
        except DuccLabError as exc:
            if getattr(exc, "state", None) is None:
                raise
            j = first + exc.state
            raise type(exc)(f"grid time t_{j} = {j * dt / 2:.6g}: {exc}") from exc
        units = unit_columns(dim, cas, complex)[..., None]
        cols = replay(record, np.repeat(units, len(batch), axis=2))
        c_int[first:first + len(batch)] = psi_act[cas].T
        # one Fortran-ordered block per point, as a single state's replay gives
        return [np.asfortranarray(cols[..., b]) for b in range(len(batch))]

    R = _GridWindow(npts, columns)
    heffs = np.empty((npts, ncas, ncas), dtype=complex)
    for j, dot in enumerate(sigma_dot_grid(R, dt / 2)):
        residuals[j] = np.linalg.norm(R[j] @ c_int[j] - states[j])
        A = R[j].conj().T @ dot
        # differencing noise breaks anti-hermiticity
        heffs[j] = ducc_projection(H, R[j], 0.5 * (A - A.conj().T))
    return QuenchStudy(
        dt=dt, cas=cas, states=states,
        energies=np.array([(s.conj() @ (H @ s)).real for s in states]),
        norms=np.array([np.linalg.norm(s) for s in states]),
        c_int=c_int, residuals=residuals, heffs=heffs,
        c_rk4=propagate_internal(heffs, c_int[0], dt, nsteps))


# -- Lagrangian evaluators ----------------------------------------------------


def evaluate_lagrangians(H: QOperator, sigma_int: np.ndarray, sigma_ext: np.ndarray,
                         sigma_int_dot: np.ndarray, sigma_ext_dot: np.ndarray,
                         ref: Determinant, part: SpinOrbitalPartition
                         ) -> tuple[complex, complex, complex]:
    """Three assembly routes of the double-unitary Lagrangian
    <ref| e^{-s_int} e^{-s_ext} (i d/dt - H) e^{s_ext} e^{s_int} |ref>.

    L_a: raw form, with both exponential derivatives.
    L_b: transformed form with the external velocity operator split off.
    L_c: effective-Hamiltonian form with active-space projectors inserted.
    All three agree identically for active-space-preserving internal
    generators; computing them independently cross-checks the plumbing.
    Every route reads the vectors of one series action per generator
    (:func:`ducclab.operators.exp_anti_hermitian`): ``d/dt e^{s} x = L x``,
    ``A x = e^{-s} L x`` and ``<y| e^{-s} = (e^{s} y)^+``.  They differ in
    assembly only.
    """
    basis = H.basis
    phi = basis.unit_vector(basis.index_of(ref))
    # the (P + Q_int) projector: the CAS determinants
    pq = ~determinant_table(basis, ref).external(part)
    ket_i, ddt_int = exp_anti_hermitian(sigma_int, phi, sigma_int_dot)
    ket_i_pq = np.where(pq, ket_i, 0.0)
    U, L = exp_anti_hermitian(sigma_ext, np.stack([ket_i, ddt_int, ket_i_pq], axis=1),
                              sigma_ext_dot)
    ket, ket_pq = U[:, 0], U[:, 2]

    # raw: d/dt (e^{s_ext} e^{s_int}) = L_ext e^{s_int} + e^{s_ext} L_int
    ddt_full = L[:, 0] + U[:, 1]
    l_a = ket.conj() @ (1j * ddt_full - H @ ket)

    # transformed: (hbar - i A_ext) e^{s_int}|phi> with hbar = e^{-s_ext} H e^{s_ext}
    l_b = 1j * (ket_i.conj() @ ddt_int) - ket.conj() @ (H @ ket - 1j * L[:, 0])

    # effective: (P + Q_int) (hbar - i A_ext) (P + Q_int) on the same ket
    l_c = 1j * (ket_i.conj() @ ddt_int) - ket_pq.conj() @ (H @ ket_pq - 1j * L[:, 2])
    return complex(l_a), complex(l_b), complex(l_c)


def evaluate_sescc_lagrangian(H: QOperator, t_int: np.ndarray, t_ext: np.ndarray,
                              lam_int: np.ndarray, lam_ext: np.ndarray,
                              dt_int: np.ndarray, dt_ext: np.ndarray,
                              ref: Determinant) -> tuple[complex, complex]:
    """Two assembly routes of the bi-variational Lagrangian with the bra
    <ref|(1 + Lambda) e^{-T}.

    form1 evaluates the single expression directly; form2 evaluates the
    split into an internal block and an external-coupling block.  Equality
    is a pure operator identity (excitation operators commute and external
    excitations leave the active block).  The six amplitude arrays over the
    rows of the ``(basis, ref)`` table are those of
    :meth:`ducclab.ecc.EccMatrices.build`, Lambda in the de-excitation
    slots, and every exponential acts on vectors (:meth:`EccMatrices.exp`).
    """
    m = EccMatrices.build(determinant_table(H.basis, ref), t_int=t_int, t_ext=t_ext,
                          x_int=lam_int, x_ext=lam_ext, dt_int=dt_int, dt_ext=dt_ext)
    phi = H.basis.unit_vector(ref)
    ket_i = m.exp(m.Ti, phi)                     # e^{T_int} |ref>
    ket = m.exp(m.Te, ket_i)
    h_ket = H @ ket
    bra_li, bra_le = phi + m.Xi.T @ phi, m.Xe.T @ phi    # <ref|(1 + L_int), <ref|L_ext
    form1 = (bra_li + bra_le) @ m.exp(-m.Ti, m.exp(
        -m.Te, 1j * (m.dTe @ ket + m.dTi @ ket) - h_ket))

    # hbar e^{T_int}|ref>, hbar = e^{-T_ext} H e^{T_ext}, is e^{-T_ext} H ket
    inner = 1j * (m.dTi @ ket_i) - m.exp(-m.Te, h_ket)
    term1 = bra_li @ m.exp(-m.Ti, inner)
    term2 = bra_le @ m.exp(-m.Ti, 1j * (m.dTe @ ket_i) + inner)
    return complex(form1), complex(term1 + term2)

