"""Real-time propagation and its downfolded counterparts.

The full-space propagation is the oracle: every state from one
eigendecomposition of H.  The downfolded side propagates active-space
coefficients under the time-dependent Hermitian effective Hamiltonian
(P+Q_int){e^{-sigma} H e^{sigma} - i e^{-sigma} d/dt e^{sigma}}(P+Q_int),
built from the external generator and its velocity.  The velocity term is
the derivative of the exponential map; it and the exponential come from one
certified Taylor action on vectors (:func:`ducclab.operators.exp_anti_hermitian`),
here and in the Lagrangian evaluators.  The commutator series it sums is kept
in ``tests/oracles.py`` as the independent reference.  hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cluster import Amplitudes, deexcitation_matrix, excitation_matrix, exp_nilpotent
from .downfold import ducc_projection
from .errors import NormDriftError, OperatorPropertyError
from .fock import DetClass, Determinant, SpinOrbitalPartition, determinant_table
from .operators import QOperator, exp_anti_hermitian
from .sweeps import decompose_state

#: Largest per-step norm drift of the RK4 integrator: the generator is
#: Hermitian, so the exact flow preserves the norm.
DRIFT_TOL = 1e-6


def propagate_full(H: QOperator, psi0: np.ndarray, dt: float,
                   nsteps: int) -> np.ndarray:
    """Exact full-space evolution: row k is exp(-i H t_k) psi0, t_k = k dt.

    H must be Hermitian and time-independent: one ``eigh`` H = V diag(w) V^+
    gives every state as V e^{-i w t_k} V^+ psi0, the whole grid in one
    product, with no error that grows step by step (Moler & Van Loan, SIAM
    Rev. 45, 3 (2003)).  The initial state is normalized.
    """
    if not H.hermiticity_defect() <= 1e-10:
        raise OperatorPropertyError(
            f"propagation Hamiltonian not Hermitian (defect {H.hermiticity_defect():.3e})")
    if dt <= 0 or nsteps < 0:
        raise ValueError("need dt > 0 and nsteps >= 0")
    psi = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    w, V = np.linalg.eigh(H.matrix)
    times = dt * np.arange(nsteps + 1)
    return (np.exp(-1j * np.outer(times, w)) * (V.conj().T @ psi)) @ V.T


def sigma_dot_grid(sigmas: Sequence[np.ndarray], dt: float,
                   order: int = 2) -> Iterator[np.ndarray]:
    """Finite-difference velocities of a matrix-valued grid function, one at
    a time from left to right.

    Central differences in the interior, one-sided stencils of matching
    order at the endpoints.  order in {2, 4}.
    """
    n = len(sigmas)
    if order not in (2, 4):
        raise ValueError("finite-difference order must be 2 or 4")
    need = order + 1
    if n < need:
        raise ValueError(f"need at least {need} grid points for order {order}")

    def velocities(f: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        for k in range(n):
            if order == 2:
                if k == 0:
                    d = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dt)
                elif k == n - 1:
                    d = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dt)
                else:
                    d = (f[k + 1] - f[k - 1]) / (2 * dt)
            else:
                if k == 0:
                    d = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * dt)
                elif k == 1:
                    d = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * dt)
                elif k == n - 2:
                    d = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * dt)
                elif k == n - 1:
                    d = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * dt)
                else:
                    d = (f[k - 2] - 8 * f[k - 1] + 8 * f[k + 1] - f[k + 2]) / (12 * dt)
            yield d
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
        if drift > DRIFT_TOL:
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
    sigma_ext: np.ndarray     # (2n+1, dim, dim) external generators of the sweep
    c_int: np.ndarray         # (2n+1, ncas) CAS coefficients of e^{sigma_int}|ref>
    residuals: np.ndarray     # (2n+1,) sweep reconstruction residuals
    heffs: np.ndarray         # (2n+1, ncas, ncas) Heff(t_j)
    c_rk4: np.ndarray         # (n+1, ncas) RK4 coefficients under Heff

    @property
    def rk4_deviation(self) -> np.ndarray:
        """|c_rk4(t_k) - c_int(t_k)| on the whole-step grid."""
        return np.linalg.norm(self.c_rk4 - self.c_int[::2], axis=1)


def downfolded_quench(H: QOperator, psi0: np.ndarray, dt: float, nsteps: int,
                      ref: Determinant, part: SpinOrbitalPartition,
                      fd_order: int) -> QuenchStudy:
    """The time-dependent downfolding checked on one quench from ``psi0``.

    The exact states on the half-step grid (:func:`propagate_full`, so that
    the RK4 stage values are exact) are sweep-decomposed
    (:func:`ducclab.sweeps.decompose_state`); the external generators are
    differenced in time (:func:`sigma_dot_grid`) into
    Heff(t) = (P+Q_int){e^{-sigma} H e^{sigma} - i e^{-sigma} d/dt e^{sigma}}(P+Q_int)
    (:func:`ducclab.downfold.ducc_projection`), and the CAS coefficients of
    the first state are propagated under Heff by :func:`propagate_internal`.
    Every velocity is used and dropped at once: the generator stack is the
    only array of dim x dim matrices.
    """
    states = propagate_full(H, psi0, dt / 2, 2 * nsteps)
    cas = determinant_table(H.basis, ref).cas(part)
    npts, dim = states.shape
    sigma_ext = np.empty((npts, dim, dim), dtype=complex)
    c_int = np.empty((npts, len(cas)), dtype=complex)
    residuals = np.empty(npts)
    for j, psi in enumerate(states):
        res = decompose_state(psi, ref, part, H.basis)
        sigma_ext[j], c_int[j], residuals[j] = res.sigma_ext, res.psi_act[cas], res.residual
    heffs = np.empty((npts, len(cas), len(cas)), dtype=complex)
    for j, dot in enumerate(sigma_dot_grid(sigma_ext, dt / 2, order=fd_order)):
        # differencing noise breaks anti-hermiticity
        heffs[j] = ducc_projection(H, sigma_ext[j], cas, 0.5 * (dot - dot.conj().T))
    return QuenchStudy(
        dt=dt, cas=cas, states=states,
        energies=np.array([(s.conj() @ (H.matrix @ s)).real for s in states]),
        norms=np.array([np.linalg.norm(s) for s in states]),
        sigma_ext=sigma_ext, c_int=c_int, residuals=residuals, heffs=heffs,
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
    pq = determinant_table(basis, ref).classes(part) != DetClass.EXTERNAL
    ket_i, ddt_int = exp_anti_hermitian(sigma_int, phi, sigma_int_dot)
    ket_i_pq = np.where(pq, ket_i, 0.0)
    U, L = exp_anti_hermitian(sigma_ext, np.stack([ket_i, ddt_int, ket_i_pq], axis=1),
                              sigma_ext_dot)
    ket, ket_pq = U[:, 0], U[:, 2]

    # raw: d/dt (e^{s_ext} e^{s_int}) = L_ext e^{s_int} + e^{s_ext} L_int
    ddt_full = L[:, 0] + U[:, 1]
    l_a = ket.conj() @ (1j * ddt_full - H.matrix @ ket)

    # transformed: (hbar - i A_ext) e^{s_int}|phi> with hbar = e^{-s_ext} H e^{s_ext}
    l_b = 1j * (ket_i.conj() @ ddt_int) - ket.conj() @ (H.matrix @ ket - 1j * L[:, 0])

    # effective: (P + Q_int) (hbar - i A_ext) (P + Q_int) on the same ket
    l_c = 1j * (ket_i.conj() @ ddt_int) - ket_pq.conj() @ (H.matrix @ ket_pq - 1j * L[:, 2])
    return complex(l_a), complex(l_b), complex(l_c)


def evaluate_sescc_lagrangian(H: QOperator, t_int: Amplitudes, t_ext: Amplitudes,
                              lam_int: Amplitudes, lam_ext: Amplitudes,
                              dt_int: Amplitudes, dt_ext: Amplitudes,
                              ref: Determinant) -> tuple[complex, complex]:
    """Two assembly routes of the bi-variational Lagrangian with the bra
    <ref|(1 + Lambda) e^{-T}.

    form1 evaluates the single expression directly; form2 evaluates the
    split into an internal block and an external-coupling block.  Equality
    is a pure operator identity (excitation operators commute and external
    excitations leave the active block).
    """
    basis = H.basis
    phi = basis.unit_vector(basis.index_of(ref))
    Ti = excitation_matrix(t_int, basis)
    Te = excitation_matrix(t_ext, basis)
    dTi = excitation_matrix(dt_int, basis)
    dTe = excitation_matrix(dt_ext, basis)
    Li = deexcitation_matrix(lam_int, basis)
    Le = deexcitation_matrix(lam_ext, basis)
    eye = np.eye(basis.size)
    eTi, eTe, eTim, eTem = (exp_nilpotent(a, eye, basis) for a in (Ti, Te, -Ti, -Te))

    ket = eTe @ (eTi @ phi)
    bra1 = phi.conj() @ (eye + Li + Le)
    form1 = bra1 @ (eTim @ (eTem @ (1j * ((dTe + dTi) @ ket) - H.matrix @ ket)))

    hbar = eTem @ H.matrix @ eTe
    ket_i = eTi @ phi
    inner = 1j * (dTi @ ket_i) - hbar @ ket_i
    term1 = (phi.conj() @ (eye + Li)) @ (eTim @ inner)
    term2 = (phi.conj() @ Le) @ (eTim @ (1j * (dTe @ ket_i) + inner))
    return complex(form1), complex(term1 + term2)


# -- export -------------------------------------------------------------------


def trajectory_to_csv(study: QuenchStudy, path):
    """CSV dump on the whole-step grid: time, energy expectation, norm,
    active-space weight and the eigenvalues of Heff(t_k).

    Floats are written with 17 significant digits for bit-exact re-reading.
    """
    header = ["time", "energy", "norm", "cas_weight"]
    header += [f"heff_eig_{r}" for r in range(len(study.cas))]
    lines = [",".join(header)]
    for k, j in enumerate(range(0, len(study.states), 2)):
        row = [study.dt * k, study.energies[j], study.norms[j],
               np.linalg.norm(study.states[j, study.cas]),
               *np.linalg.eigvalsh(study.heffs[j])]
        lines.append(",".join(format(float(x), ".17g") for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
