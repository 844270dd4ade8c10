"""Real-time propagation and its downfolded counterparts.

The full-space propagation is the oracle: exact stepping with a precomputed
exponential propagator.  The downfolded side propagates active-space
coefficients under the time-dependent Hermitian effective Hamiltonian
(P+Q_int){e^{-sigma} H e^{sigma} - i e^{-sigma} d/dt e^{sigma}}(P+Q_int),
built from the external generator and its velocity.  The velocity term is
the derivative of the exponential map, evaluated in closed form from one
eigendecomposition of the generator (:func:`ducclab.downfold.exp_dexp`),
which the Lagrangian evaluators share.  The commutator series that it sums
is kept in ``tests/oracles.py`` as the independent reference.  hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .cluster import Amplitudes, deexcitation_matrix, excitation_matrix, exp_nilpotent
from .downfold import EffectiveHamiltonian, ducc_projection, exp_dexp
from .errors import NormDriftError, OperatorPropertyError
from .fock import (DetClass, Determinant, FockBasis, SpinOrbitalPartition,
                   determinant_table)
from .operators import QOperator
from .sweeps import decompose_state

#: Largest per-step norm drift of the RK4 integrator: the generator is
#: Hermitian, so the exact flow preserves the norm.
DRIFT_TOL = 1e-6


@dataclass
class TimeDecomposition:
    """Per-time sweep products: external generator, CAS coefficients of the
    internal state, global phase, reconstruction residual."""

    sigma_ext: QOperator
    c_int: np.ndarray
    delta: float
    residual: float


@dataclass
class Trajectory:
    """Stored states of a unitary evolution on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray            # shape (n_times, dim)
    basis: FockBasis
    decompositions: list[TimeDecomposition] | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def propagate_full(H: QOperator, psi0: np.ndarray, dt: float,
                   nsteps: int) -> Trajectory:
    """Exact full-space evolution: state(t_k) = exp(-i H t_k) psi0.

    H must be Hermitian and time-independent; the step propagator is
    exponentiated once.  The initial state is normalized.
    """
    if not H.is_hermitian():
        raise OperatorPropertyError(
            f"propagation Hamiltonian not Hermitian (defect {H.hermiticity_defect():.3e})")
    if dt <= 0 or nsteps < 0:
        raise ValueError("need dt > 0 and nsteps >= 0")
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    u_dt = scipy.linalg.expm(-1j * dt * H.matrix)
    states = np.empty((nsteps + 1, H.basis.size), dtype=complex)
    states[0] = psi
    for k in range(nsteps):
        states[k + 1] = u_dt @ states[k]
    times = dt * np.arange(nsteps + 1)
    return Trajectory(times, states, H.basis)


def build_heff_td(H: QOperator, sigma_ext: QOperator, sigma_ext_dot: QOperator,
                  ref: Determinant, part: SpinOrbitalPartition) -> EffectiveHamiltonian:
    """Time-dependent downfolded Hamiltonian
    (P+Q_int){ e^{-sigma} H e^{sigma} - i A(sigma, sigma_dot) }(P+Q_int),
    where e^{sigma} A = d/dt e^{sigma}.

    Both terms come from one eigendecomposition of the anti-Hermitian
    generator: the transformed Hamiltonian as ``R^+ H R`` with the CAS
    columns ``R`` of e^{sigma}, and A in the closed Daleckii-Krein form
    (see :func:`ducclab.downfold.exp_dexp`).  Hermitian, since -iA is
    Hermitian for anti-Hermitian A.
    """
    cas = determinant_table(H.basis, ref).cas(part)
    sub = ducc_projection(H, sigma_ext, cas, sigma_ext_dot)
    return EffectiveHamiltonian(sub, cas, H.basis, "ducc-td", hermitian=True)


# -- trajectory decomposition -------------------------------------------------


def decompose_trajectory(traj: Trajectory, ref: Determinant,
                         part: SpinOrbitalPartition) -> Trajectory:
    """Sweep-decompose every stored state; the global phase delta(t) is
    unwrapped continuously across steps so the generators stay smooth."""
    basis = traj.basis
    cas = determinant_table(basis, ref).cas(part)
    decos: list[TimeDecomposition] = []
    prev_delta = None
    e_ref = basis.unit_vector(basis.index_of(ref))
    for k in range(len(traj.times)):
        res = decompose_state(traj.states[k], ref, part, basis)
        delta = res.delta
        if prev_delta is not None:
            delta += 2 * np.pi * round((prev_delta - delta) / (2 * np.pi))
        prev_delta = delta
        c_full = np.exp(1j * delta) * (res.omega3.matrix.conj().T @ e_ref)
        decos.append(TimeDecomposition(
            sigma_ext=res.sigma_ext, c_int=c_full[cas],
            delta=delta, residual=res.residual))
    return Trajectory(traj.times, traj.states, basis, decompositions=decos)


def sigma_dot_grid(sigmas: Sequence[np.ndarray], dt: float,
                   order: int = 2) -> list[np.ndarray]:
    """Finite-difference velocities of a matrix-valued grid function.

    Central differences in the interior, one-sided stencils of matching
    order at the endpoints.  order in {2, 4}.
    """
    n = len(sigmas)
    if order not in (2, 4):
        raise ValueError("finite-difference order must be 2 or 4")
    need = order + 1
    if n < need:
        raise ValueError(f"need at least {need} grid points for order {order}")
    f = sigmas
    out: list[np.ndarray] = []
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
        out.append(d)
    return out


def heff_grid(H: QOperator, traj: Trajectory, ref: Determinant,
              part: SpinOrbitalPartition,
              fd_order: int = 2) -> list[EffectiveHamiltonian]:
    """Time-dependent effective Hamiltonians on the trajectory's grid, with
    the generator velocity obtained by differencing the sweep output."""
    if traj.decompositions is None:
        traj = decompose_trajectory(traj, ref, part)
    sigmas = [d.sigma_ext.matrix for d in traj.decompositions]
    dots = sigma_dot_grid(sigmas, traj.dt, order=fd_order)
    out = []
    for sig, dot in zip(sigmas, dots):
        dot = 0.5 * (dot - dot.conj().T)  # differencing noise breaks anti-hermiticity
        out.append(build_heff_td(H, QOperator(sig, traj.basis),
                                 QOperator(dot, traj.basis), ref, part))
    return out


def propagate_internal(heffs: Sequence[np.ndarray], c0: np.ndarray, dt: float,
                       nsteps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step classical RK4 for i dc/dt = Heff(t) c.

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
    times = dt * np.arange(nsteps + 1)
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
    return times, out


# -- Lagrangian evaluators ----------------------------------------------------


def evaluate_lagrangians(H: QOperator, sigma_int: QOperator, sigma_ext: QOperator,
                         sigma_int_dot: QOperator, sigma_ext_dot: QOperator,
                         ref: Determinant, part: SpinOrbitalPartition
                         ) -> tuple[complex, complex, complex]:
    """Three assembly routes of the double-unitary Lagrangian
    <ref| e^{-s_int} e^{-s_ext} (i d/dt - H) e^{s_ext} e^{s_int} |ref>.

    L_a: raw form, with both exponential derivatives.
    L_b: transformed form with the external velocity operator split off.
    L_c: effective-Hamiltonian form with active-space projectors inserted.
    All three agree identically for active-space-preserving internal
    generators; computing them independently cross-checks the plumbing.
    Every route takes e^{s}, its adjoint e^{-s} and A(s, s_dot) from one
    :func:`ducclab.downfold.exp_dexp` per generator: they differ in assembly only.
    """
    basis = H.basis
    phi = basis.unit_vector(basis.index_of(ref))
    Ui, Ai = exp_dexp(sigma_int.matrix, sigma_int_dot.matrix, slice(None))
    Ue, Ae = exp_dexp(sigma_ext.matrix, sigma_ext_dot.matrix, slice(None))
    Uim = Ui.conj().T
    Uem = Ue.conj().T

    ket_i = Ui @ phi
    # raw: d/dt (e^{s_ext} e^{s_int}) = e^{s_ext} A_ext e^{s_int} + e^{s_ext} e^{s_int} A_int
    ddt_full = Ue @ (Ae @ ket_i) + Ue @ (Ui @ (Ai @ phi))
    l_a = phi.conj() @ (Uim @ (Uem @ (1j * ddt_full - H.matrix @ (Ue @ ket_i))))

    hbar = Uem @ H.matrix @ Ue
    ddt_int = Ui @ (Ai @ phi)
    l_b = phi.conj() @ (Uim @ (1j * ddt_int - (hbar - 1j * Ae) @ ket_i))

    # (P + Q_int) X (P + Q_int): the rows and columns of the CAS determinants
    pq = determinant_table(basis, ref).classes(part) != DetClass.EXTERNAL
    heff_full = np.where(np.outer(pq, pq), hbar - 1j * Ae, 0.0)
    l_c = phi.conj() @ (Uim @ (1j * ddt_int - heff_full @ ket_i))
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


def trajectory_to_csv(traj: Trajectory, H: QOperator, cas: np.ndarray, path,
                      heff_eigs: Sequence[np.ndarray] | None = None):
    """CSV dump: time, energy expectation, norm, active-space weight, and
    optionally the per-root effective-Hamiltonian eigenvalues.

    Floats are written with 17 significant digits for bit-exact re-reading.
    """
    g = lambda x: format(float(x), ".17g")
    header = ["time", "energy", "norm", "cas_weight"]
    if heff_eigs is not None:
        header += [f"heff_eig_{r}" for r in range(len(heff_eigs[0]))]
    lines = [",".join(header)]
    for k in range(len(traj.times)):
        psi = traj.states[k]
        energy = (psi.conj() @ (H.matrix @ psi)).real
        row = [g(traj.times[k]), g(energy), g(np.linalg.norm(psi)),
               g(np.linalg.norm(psi[cas]))]
        if heff_eigs is not None:
            row += [g(e) for e in heff_eigs[k]]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
