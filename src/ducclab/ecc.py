"""Checks of the extended-coupled-cluster functional identities.

The bra is parametrized as <ref| e^{X} e^{-T} with X a de-excitation and T
an excitation operator, both split into internal and external parts.  The
time-derivative and energy pieces of the action integrand each admit two or
three algebraically equivalent forms; evaluating them along independent
routes verifies the operator identities numerically.  Connected-part
restrictions are never taken in isolation: the similarity-transformed
operators are applied as full products, which agree inside the bracketed
expectation values.

Every amplitude set acts as an :class:`ducclab.cluster.AmplitudeOperator`,
from its pairs of determinants.  Every bracket <ref| ... |ref> is a chain of
operator-vector products, and no ``dim x dim`` exponential is formed.  A
ket factor e^{A} is applied by the terminating series of
:func:`exp_nilpotent`; a bra factor <ref| e^{A} is the transpose of
e^{A^T} |ref>, and A^T is again a nilpotent excitation operator.  The
routes stay independent: w2 applies e^{+-X^int_ext}, with
X^int_ext = e^{T_int} X_ext e^{-T_int}, by its own series in X^int_ext,
never as e^{T_int} e^{+-X_ext} e^{-T_int}, which is the identity that
w1 = w2 tests.  :func:`x_int_ext_bch` compares matrices, so it alone forms
a dense amplitude matrix, X_ext; it applies T_int to ``dim x dim`` arrays
from either side, one row scatter per signature, and forms no exponential
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import Amplitudes, AmplitudeOperator, exp_nilpotent
from .fock import Determinant, FockBasis
from .operators import QOperator

#: relative size of the first dropped term of the e^{+-X^int_ext} series,
#: which is nilpotent only up to round-off
X_INT_EXT_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class EccMatrices:
    """The six amplitude operators of one configuration over ``basis``,
    built once and shared by the bracket routes and the series check; X_int
    and X_ext in de-excitation form."""

    Ti: AmplitudeOperator
    Te: AmplitudeOperator
    Xi: AmplitudeOperator
    Xe: AmplitudeOperator
    dTi: AmplitudeOperator
    dTe: AmplitudeOperator
    basis: FockBasis

    @classmethod
    def build(cls, basis: FockBasis, *, t_int: Amplitudes, t_ext: Amplitudes,
              x_int: Amplitudes, x_ext: Amplitudes, dt_int: Amplitudes,
              dt_ext: Amplitudes) -> "EccMatrices":
        """From the excitation amplitudes T, the de-excitation amplitudes X
        and the time derivatives of T, each split into internal and external
        parts."""
        op = lambda amps: AmplitudeOperator(amps, basis)
        return cls(Ti=op(t_int), Te=op(t_ext), Xi=op(x_int).T, Xe=op(x_ext).T,
                   dTi=op(dt_int), dTe=op(dt_ext), basis=basis)

    def exp(self, A: AmplitudeOperator, v: np.ndarray) -> np.ndarray:
        """e^{A} v for a nilpotent amplitude operator ``A``."""
        return exp_nilpotent(A, v, self.basis)

    def exp_x_int_ext(self, sign: int, v: np.ndarray) -> np.ndarray:
        """e^{sign X^int_ext} v by the series in X^int_ext, one application
        being e^{T_int} (X_ext (e^{-T_int} w))."""
        x = lambda w: sign * self.exp(self.Ti, self.Xe @ self.exp(-self.Ti, w))
        return exp_nilpotent(x, v, self.basis, rtol=X_INT_EXT_RTOL)


def eval_ldt_forms(m: EccMatrices, ref: Determinant) -> tuple[complex, complex, complex]:
    """Time-derivative Lagrangian piece along three routes.

    v1: single product, the derivative expanded exactly through the
        commutativity of excitation operators.
    v2: split into an external-velocity term and an internal-derivative term.
    v4: the B-operator route, B = e^{T_int} (e^{X_ext} dT_ext) e^{-T_int}
        applied factor by factor as the full (unrestricted) product.
    v1 == v2 is an identity; |v4 - v1| is reported by callers as the
    connectedness deviation.
    """
    phi = m.basis.unit_vector(ref)
    u = m.exp(m.Ti, phi)                         # e^{T_int} |ref>
    ket = m.exp(m.Te, u)
    bra_xi = m.exp(m.Xi.T, phi)                  # <ref| e^{X_int}
    bra_xixe = m.exp(m.Xe.T, bra_xi)             # <ref| e^{X_int} e^{X_ext}
    bra_xitim = m.exp(-m.Ti.T, bra_xi)           # <ref| e^{X_int} e^{-T_int}
    bra_all = m.exp(-m.Te.T, m.exp(-m.Ti.T, bra_xixe))

    v1 = 1j * (bra_all @ (m.dTe @ ket + m.dTi @ ket))
    internal = 1j * (bra_xitim @ (m.dTi @ u))
    v2 = 1j * (bra_xixe @ (m.dTe @ phi)) + internal
    b_full_u = m.exp(m.Ti, m.exp(m.Xe, m.dTe @ m.exp(-m.Ti, u)))
    v4 = 1j * (bra_xitim @ b_full_u) + internal
    return complex(v1), complex(v2), complex(v4)


def eval_lh_forms(m: EccMatrices, H: QOperator,
                  ref: Determinant) -> tuple[complex, complex]:
    """Energy Lagrangian piece along two routes.

    w1: direct product of all six exponentials around H.
    w2: via the doubly transformed Hamiltonian
        e^{X^int_ext} e^{-T_ext} H e^{T_ext} e^{-X^int_ext}
        with X^int_ext = e^{T_int} X_ext e^{-T_int}, applied factor by factor.
    Equal by similarity-transform algebra.
    """
    phi = m.basis.unit_vector(ref)
    u = m.exp(m.Ti, phi)
    bra_xi = m.exp(m.Xi.T, phi)
    bra_all = m.exp(-m.Te.T, m.exp(-m.Ti.T, m.exp(m.Xe.T, bra_xi)))
    w1 = bra_all @ (H @ m.exp(m.Te, u))

    h_ecc_u = m.exp_x_int_ext(+1, m.exp(-m.Te, H @ m.exp(
        m.Te, m.exp_x_int_ext(-1, u))))
    w2 = m.exp(-m.Ti.T, bra_xi) @ h_ecc_u
    return complex(w1), complex(w2)


def x_int_ext_bch(m: EccMatrices) -> tuple[np.ndarray, np.ndarray, int]:
    """Similarity-transformed external de-excitation two ways.

    Returns (direct product e^{T_int} X_ext e^{-T_int}, terminating nested-
    commutator series sum_n ad_{T_int}^n(X_ext)/n!, number of series terms).
    X_ext is the one dense amplitude matrix; T_int acts on the left or the
    right of a ``dim x dim`` array as an operator, ``Y T_int`` being
    ``(T_int^T Y^T)^T``: the direct product is the left series e^{T_int} X_ext
    followed by the right series of e^{-T_int}, and the commutators are
    T_int Y - Y T_int.
    The series terminates: every surviving operator path climbs the
    excitation-rank ladder except for the single de-excitation drop, and the
    ladder height R = min(N, M-N) caps the commutator depth at 3R.
    """
    Ti, basis = m.Ti, m.basis
    Xe = m.Xe.toarray()
    right = lambda Y: (Ti.T @ Y.T).T
    direct = exp_nilpotent(lambda Y: (-Ti.T @ Y.T).T, exp_nilpotent(Ti, Xe, basis), basis)
    ladder = min(basis.N, basis.M - basis.N)
    cap = 3 * ladder + 2
    # cancellation roundoff keeps dead terms from being exact zeros
    dead = 1e-14 * max(1.0, float(np.abs(Xe).max(initial=0.0)))
    series = np.zeros_like(Xe)
    term = Xe.copy()
    n = 0
    while True:
        series = series + term / math.factorial(n)
        n += 1
        term = Ti @ term - right(term)
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
