"""Wick-rotated flows of the downfolded Hamiltonian.

Steepest-descent evolution of active-space coefficients,
c(tau+dtau) = N exp(-dtau (Heff - lambda_lo)) c(tau), stepped exactly
through the cached eigensystem of Heff.  The shift lambda_lo, the lowest
eigenvalue of Heff that the vector holds, only rescales the norm: every
held component is scaled by a factor in [0, 1], the one on lambda_lo by 1,
so a finite vector keeps a finite, positive norm at any dtau.  Each point
of the flow records the energy of its normalized state as its shift.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .downfold import EffectiveHamiltonian
from .errors import ConvergenceError, OperatorPropertyError


class FlowResult(NamedTuple):
    energy: float
    c_int: np.ndarray
    history: list[tuple[float, float, float]]  # (tau, shift, residual norm)


def _rayleigh(mat: np.ndarray, c: np.ndarray) -> float:
    return float((c.conj() @ (mat @ c)).real / (c.conj() @ c).real)


def imaginary_evolve(heff: EffectiveHamiltonian, c0: np.ndarray,
                     dtau: float = 0.1, tol: float = 1e-10,
                     max_steps: int = 100_000) -> FlowResult:
    """Step the stationary flow until successive shifts agree within tol.

    Converges to the lowest eigenpair the start vector overlaps; a start
    exactly orthogonal to the ground state descends to the lowest reachable
    excited state instead (the flow preserves exact orthogonality).  The
    shifts never increase.  A ``dtau`` that is not positive, a non-Hermitian
    generator and a start vector whose norm is zero or not finite are
    refused.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    if not heff.hermitian:
        raise OperatorPropertyError("imaginary-time flow needs a Hermitian generator")
    c = np.asarray(c0, dtype=complex)
    norm = np.linalg.norm(c)
    if not 0 < norm < np.inf:   # NaN too
        raise ValueError(f"the start vector has norm {norm}, not a finite positive one")
    vals, vecs = heff.eigensystem()  # cached on the operator
    c, tau, history = c / norm, 0.0, []
    while True:
        energy = _rayleigh(heff.matrix, c)
        history.append((tau, energy, float(np.linalg.norm(heff.matrix @ c - energy * c))))
        if len(history) > 1 and abs(energy - history[-2][1]) < tol:
            return FlowResult(energy, c, history)
        if len(history) > max_steps:
            raise ConvergenceError(f"imaginary-time flow not converged in {max_steps} steps")
        coeffs = vecs.conj().T @ c
        # the vector holds nothing below lambda_lo: the clip only keeps those
        # factors finite; an exponent past the float range is inf, its factor 0
        with np.errstate(over="ignore"):
            gaps = dtau * (vals - vals[coeffs != 0].min()).clip(0)
        c = vecs @ (np.exp(-gaps) * coeffs)
        c, tau = c / np.linalg.norm(c), tau + dtau
