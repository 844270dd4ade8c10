"""Wick-rotated flows of the downfolded Hamiltonian.

Shifted steepest-descent evolution of active-space coefficients,
c(tau+dtau) = N exp(-dtau (Heff - S)) c(tau) with the shift S recomputed
each step as the instantaneous energy of the normalized state, stepped
exactly through the eigensystem of Heff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .downfold import EffectiveHamiltonian
from .errors import ConvergenceError, OperatorPropertyError


@dataclass
class ImaginaryFlowState:
    """One point of the flow: unit-norm CAS vector and the shift used to
    reach it (energy of the pre-step state)."""

    tau: float
    c_int: np.ndarray
    shift: float


class FlowResult(NamedTuple):
    energy: float
    c_int: np.ndarray
    history: list[tuple[float, float, float]]  # (tau, shift, residual norm)


def _rayleigh(mat: np.ndarray, c: np.ndarray) -> float:
    return float((c.conj() @ (mat @ c)).real / (c.conj() @ c).real)


def initial_flow_state(c0: np.ndarray, heff: EffectiveHamiltonian) -> ImaginaryFlowState:
    c = np.asarray(c0, dtype=complex)
    c = c / np.linalg.norm(c)
    s = _rayleigh(heff.matrix, c)
    return ImaginaryFlowState(0.0, c, s)


def imaginary_step(state: ImaginaryFlowState, heff: EffectiveHamiltonian,
                   dtau: float) -> ImaginaryFlowState:
    """One shifted descent step followed by renormalization.

    The step is exponential, so the shift, the energy of the incoming
    state, only rescales the norm, and descent monotonicity is exact.
    A tau-dependent generator is followed by passing, at every step, its
    value at ``state.tau``.  A step whose vector has no finite norm (``dtau
    (S - E_0)`` past about 350) is refused with a :class:`ConvergenceError`.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    if not heff.hermitian:
        raise OperatorPropertyError("imaginary-time flow needs a Hermitian generator")
    c = state.c_int
    s = _rayleigh(heff.matrix, c)
    vals, vecs = heff.eigensystem()  # cached on the operator
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        c1 = vecs @ (np.exp(-dtau * (vals - s)) * (vecs.conj().T @ c))
        norm = np.linalg.norm(c1)
    if not np.isfinite(norm):
        raise ConvergenceError(f"imaginary-time step of dtau={dtau:g} at tau={state.tau:g} "
                               f"overflows: the stepped vector has norm {norm}")
    c1 = c1 / norm
    return ImaginaryFlowState(state.tau + dtau, c1, s)


def imaginary_evolve(heff: EffectiveHamiltonian, c0: np.ndarray,
                     dtau: float = 0.1, tol: float = 1e-10,
                     max_steps: int = 100_000) -> FlowResult:
    """Iterate the stationary flow until successive shifts agree within tol.

    Converges to the lowest eigenpair the start vector overlaps; a start
    exactly orthogonal to the ground state descends to the lowest reachable
    excited state instead (the flow preserves exact orthogonality).
    """
    state = initial_flow_state(c0, heff)
    energy = state.shift
    history: list[tuple[float, float, float]] = []
    resid = float(np.linalg.norm(heff.matrix @ state.c_int - energy * state.c_int))
    history.append((state.tau, energy, resid))
    for _ in range(max_steps):
        prev_energy = energy
        state = imaginary_step(state, heff, dtau)
        energy = _rayleigh(heff.matrix, state.c_int)
        resid = float(np.linalg.norm(heff.matrix @ state.c_int - energy * state.c_int))
        history.append((state.tau, energy, resid))
        if abs(energy - prev_energy) < tol:
            return FlowResult(energy, state.c_int, history)
    raise ConvergenceError(f"imaginary-time flow not converged in {max_steps} steps")
