"""Matrix-level checks of the extended-coupled-cluster functional identities.

The bra is parametrized as <ref| e^{X} e^{-T} with X a de-excitation and T
an excitation operator, both split into internal and external parts.  The
time-derivative and energy pieces of the action integrand each admit two or
three algebraically equivalent forms; evaluating them along independent
matrix routes verifies the operator identities numerically.  Connected-part
restrictions are never taken in isolation: the similarity-transformed
operators are evaluated as full products, which agree inside the bracketed
expectation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cluster import Amplitudes, deexcitation_matrix, excitation_matrix, exp_nilpotent
from .fock import Determinant, FockBasis
from .operators import QOperator


@dataclass
class EccConfiguration:
    """Excitation amplitudes T, de-excitation amplitudes X, and the time
    derivatives of T, each split into internal and external parts."""

    t_int: Amplitudes
    t_ext: Amplitudes
    x_int: Amplitudes
    x_ext: Amplitudes
    dt_int: Amplitudes
    dt_ext: Amplitudes


def _matrices(cfg: EccConfiguration, basis: FockBasis):
    return {
        "Ti": excitation_matrix(cfg.t_int, basis),
        "Te": excitation_matrix(cfg.t_ext, basis),
        "Xi": deexcitation_matrix(cfg.x_int, basis),
        "Xe": deexcitation_matrix(cfg.x_ext, basis),
        "dTi": excitation_matrix(cfg.dt_int, basis),
        "dTe": excitation_matrix(cfg.dt_ext, basis),
    }


def _exponentials(m: dict, basis: FockBasis):
    """e^{X_int}, e^{X_ext}, e^{T_int}, e^{T_ext}, e^{-T_int}, e^{-T_ext} as
    terminating series: every one of these matrices is nilpotent."""
    eye = np.eye(basis.size)
    return tuple(exp_nilpotent(a, eye, basis)
                 for a in (m["Xi"], m["Xe"], m["Ti"], m["Te"], -m["Ti"], -m["Te"]))


def eval_ldt_forms(cfg: EccConfiguration, ref: Determinant,
                   basis: FockBasis) -> tuple[complex, complex, complex]:
    """Time-derivative Lagrangian piece along three routes.

    v1: single product, the derivative expanded exactly through the
        commutativity of excitation operators.
    v2: split into an external-velocity term and an internal-derivative term.
    v4: the B-operator route, B = e^{T_int} (e^{X_ext} dT_ext) e^{-T_int}
        evaluated with the full (unrestricted) product.
    v1 == v2 is an identity; |v4 - v1| is reported by callers as the
    connectedness deviation.
    """
    m = _matrices(cfg, basis)
    phi = basis.unit_vector(basis.index_of(ref))
    eXi, eXe, eTi, eTe, eTim, eTem = _exponentials(m, basis)

    ket = eTe @ (eTi @ phi)
    v1 = 1j * (phi.conj() @ (eXi @ (eXe @ (eTim @ (eTem @ ((m["dTe"] + m["dTi"]) @ ket))))))

    v2 = (1j * (phi.conj() @ (eXi @ (eXe @ (m["dTe"] @ phi))))
          + 1j * (phi.conj() @ (eXi @ (eTim @ (m["dTi"] @ (eTi @ phi))))))

    b_full = eTi @ (eXe @ m["dTe"]) @ eTim
    v4 = (1j * (phi.conj() @ (eXi @ (eTim @ (b_full @ (eTi @ phi)))))
          + 1j * (phi.conj() @ (eXi @ (eTim @ (m["dTi"] @ (eTi @ phi))))))
    return complex(v1), complex(v2), complex(v4)


def eval_lh_forms(cfg: EccConfiguration, H: QOperator,
                  ref: Determinant) -> tuple[complex, complex]:
    """Energy Lagrangian piece along two routes.

    w1: direct product of all six exponentials around H.
    w2: via the doubly transformed Hamiltonian
        e^{X^int_ext} e^{-T_ext} H e^{T_ext} e^{-X^int_ext}
        with X^int_ext = e^{T_int} X_ext e^{-T_int}.
    Equal by similarity-transform algebra.
    """
    basis = H.basis
    m = _matrices(cfg, basis)
    phi = basis.unit_vector(basis.index_of(ref))
    eXi, eXe, eTi, eTe, eTim, eTem = _exponentials(m, basis)

    w1 = phi.conj() @ (eXi @ (eXe @ (eTim @ (eTem @ (H.matrix @ (eTe @ (eTi @ phi)))))))

    x_int_ext = eTi @ m["Xe"] @ eTim
    eX = scipy.linalg.expm(x_int_ext)
    eXm = scipy.linalg.expm(-x_int_ext)
    h_ecc = eX @ (eTem @ H.matrix @ eTe) @ eXm
    w2 = phi.conj() @ (eXi @ (eTim @ (h_ecc @ (eTi @ phi))))
    return complex(w1), complex(w2)


def x_int_ext_bch(cfg: EccConfiguration, basis: FockBasis,
                  max_terms: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Similarity-transformed external de-excitation two ways.

    Returns (direct product e^{T_int} X_ext e^{-T_int}, terminating nested-
    commutator series sum_n ad_{T_int}^n(X_ext)/n!, number of series terms).
    The series terminates: every surviving operator path climbs the
    excitation-rank ladder except for the single de-excitation drop, and the
    ladder height R = min(N, M-N) caps the commutator depth at 3R.
    """
    Ti = excitation_matrix(cfg.t_int, basis)
    Xe = deexcitation_matrix(cfg.x_ext, basis)
    direct = scipy.linalg.expm(Ti) @ Xe @ scipy.linalg.expm(-Ti)
    ladder = min(basis.N, basis.M - basis.N)
    cap = max_terms if max_terms is not None else 3 * ladder + 2
    # cancellation roundoff keeps dead terms from being exact zeros
    dead = 1e-14 * max(1.0, float(np.abs(Xe).max(initial=0.0)))
    series = np.zeros_like(Xe)
    term = Xe.copy()
    n = 0
    while True:
        series = series + term / math.factorial(n)
        n += 1
        term = Ti @ term - term @ Ti
        if float(np.abs(term).max(initial=0.0)) <= dead:
            break
        if n > cap:
            raise ArithmeticError(f"nested-commutator series did not terminate by n={cap}")
    return direct, series, n


def action_deviation(v1: complex, v4: complex, w1: complex,
                     w2: complex) -> tuple[complex, float]:
    """Action integrand from the B-operator and doubly transformed
    Hamiltonian pieces (v4 - w2), and its deviation from the direct
    single-product evaluation (v1 - w1)."""
    assembled = v4 - w2
    return complex(assembled), float(abs(assembled - (v1 - w1)))


def eval_ecc_action_integrand(cfg: EccConfiguration, H: QOperator,
                              ref: Determinant) -> tuple[complex, float]:
    """:func:`action_deviation` of the forms of :func:`eval_ldt_forms` and
    :func:`eval_lh_forms`."""
    v1, _, v4 = eval_ldt_forms(cfg, ref, H.basis)
    w1, w2 = eval_lh_forms(cfg, H, ref)
    return action_deviation(v1, v4, w1, w2)
