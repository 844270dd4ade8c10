"""Checks of the extended-coupled-cluster functional identities.

The bra is parametrized as <ref| e^{X} e^{-T} with X a de-excitation and T
an excitation operator, both split into internal and external parts.  The
time-derivative and energy pieces of the action integrand each admit two or
three algebraically equivalent forms; evaluating them along independent
routes verifies the operator identities numerically.  Connected-part
restrictions are never taken in isolation: the similarity-transformed
operators are applied as full products, which agree inside the bracketed
expectation values.

Every amplitude array acts as an :class:`ducclab.cluster.AmplitudeOperator`,
from its table's pairs of determinants; a ``(dim, B)`` stack of B
configurations gives operators of width B, which act on ``(dim, B)`` blocks,
one configuration per column.  Every bracket <ref| ... |ref> is a chain of
operator-vector products, one bracket per column of a stack, and no
``dim x dim`` exponential is formed.  A ket factor e^{A} is applied by the
terminating series of :func:`exp_nilpotent`; a bra factor <ref| e^{A} is
the transpose of e^{A^T} |ref>, and A^T is again a nilpotent excitation
operator.  The routes stay independent: w2 applies e^{+-X^int_ext}, with
X^int_ext = e^{T_int} X_ext e^{-T_int}, by its own series in X^int_ext,
never as e^{T_int} e^{+-X_ext} e^{-T_int}, which is the identity that
w1 = w2 tests.  :func:`x_int_ext_bch` compares matrices: it works on the
small blocks of the classes of determinants that share their inactive
occupation, where T_int lives, returns them as they are and forms no
``dim x dim`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import AmplitudeOperator, exp_nilpotent
from .errors import OperatorPropertyError
from .fock import DeterminantTable, FockBasis, inactive_classes
from .operators import QOperator
from .shape import Determinant, SpinOrbitalPartition

#: relative size of the first dropped term of the e^{+-X^int_ext} series,
#: which is nilpotent only up to round-off
X_INT_EXT_RTOL = 1e-14


def _bracket(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<bra|ket>, no conjugation: a number, or one per column of a stack."""
    return (bra * ket).sum(axis=0)


def _values(*brackets) -> tuple:
    """Complex numbers for one configuration, arrays for a stack."""
    return tuple(complex(z) if np.ndim(z) == 0 else z for z in brackets)


@dataclass(frozen=True, eq=False)
class EccMatrices:
    """The six amplitude operators of one configuration, or of a stack of
    configurations, over ``basis``, built once and shared by the bracket
    routes and the series check; X_int and X_ext in de-excitation form."""

    Ti: AmplitudeOperator
    Te: AmplitudeOperator
    Xi: AmplitudeOperator
    Xe: AmplitudeOperator
    dTi: AmplitudeOperator
    dTe: AmplitudeOperator
    basis: FockBasis

    @classmethod
    def build(cls, table: DeterminantTable, *, t_int: np.ndarray, t_ext: np.ndarray,
              x_int: np.ndarray, x_ext: np.ndarray, dt_int: np.ndarray,
              dt_ext: np.ndarray) -> "EccMatrices":
        """From the excitation amplitudes T, the de-excitation amplitudes X
        and the time derivatives of T, each split into internal and external
        parts: each an amplitude array over the rows of ``table``, ``(dim,)``
        for one configuration or ``(dim, B)`` for a stack of B."""
        op = lambda t: AmplitudeOperator(t, table)
        return cls(Ti=op(t_int), Te=op(t_ext), Xi=op(x_int).T, Xe=op(x_ext).T,
                   dTi=op(dt_int), dTe=op(dt_ext), basis=table.basis)

    def config(self, b: int) -> "EccMatrices":
        """Configuration ``b`` of a stack, on the stack's pair lists."""
        return EccMatrices(self.Ti[b], self.Te[b], self.Xi[b], self.Xe[b], self.dTi[b],
                           self.dTe[b], self.basis)

    def unit(self, ref: Determinant) -> np.ndarray:
        """|ref>: a vector, or one column per configuration of a stack."""
        phi = self.basis.unit_vector(ref)
        return phi if self.Ti.width is None else np.repeat(phi[:, None], self.Ti.width, 1)

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
    connectedness deviation.  Complex numbers for one configuration, arrays
    of B for a stack.
    """
    phi = m.unit(ref)
    u = m.exp(m.Ti, phi)                         # e^{T_int} |ref>
    ket = m.exp(m.Te, u)
    bra_xi = m.exp(m.Xi.T, phi)                  # <ref| e^{X_int}
    bra_xixe = m.exp(m.Xe.T, bra_xi)             # <ref| e^{X_int} e^{X_ext}
    bra_xitim = m.exp(-m.Ti.T, bra_xi)           # <ref| e^{X_int} e^{-T_int}
    bra_all = m.exp(-m.Te.T, m.exp(-m.Ti.T, bra_xixe))

    v1 = 1j * _bracket(bra_all, m.dTe @ ket + m.dTi @ ket)
    internal = 1j * _bracket(bra_xitim, m.dTi @ u)
    v2 = 1j * _bracket(bra_xixe, m.dTe @ phi) + internal
    b_full_u = m.exp(m.Ti, m.exp(m.Xe, m.dTe @ m.exp(-m.Ti, u)))
    v4 = 1j * _bracket(bra_xitim, b_full_u) + internal
    return _values(v1, v2, v4)


def eval_lh_forms(m: EccMatrices, H: QOperator,
                  ref: Determinant) -> tuple[complex, complex]:
    """Energy Lagrangian piece along two routes.

    w1: direct product of all six exponentials around H.
    w2: via the doubly transformed Hamiltonian
        e^{X^int_ext} e^{-T_ext} H e^{T_ext} e^{-X^int_ext}
        with X^int_ext = e^{T_int} X_ext e^{-T_int}, applied factor by factor.
    Equal by similarity-transform algebra.  Complex numbers for one
    configuration, arrays of B for a stack.
    """
    phi = m.unit(ref)
    u = m.exp(m.Ti, phi)
    bra_xi = m.exp(m.Xi.T, phi)
    bra_all = m.exp(-m.Te.T, m.exp(-m.Ti.T, m.exp(m.Xe.T, bra_xi)))
    w1 = _bracket(bra_all, H @ m.exp(m.Te, u))

    h_ecc_u = m.exp_x_int_ext(+1, m.exp(-m.Te, H @ m.exp(
        m.Te, m.exp_x_int_ext(-1, u))))
    w2 = _bracket(m.exp(-m.Ti.T, bra_xi), h_ecc_u)
    return _values(w1, w2)


def x_int_ext_bch(m: EccMatrices, part: SpinOrbitalPartition
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Similarity-transformed external de-excitation two ways, for one
    configuration.

    Returns (direct product e^{T_int} X_ext e^{-T_int}, terminating nested-
    commutator series sum_n ad_{T_int}^n(X_ext)/n!, number of series terms),
    the first two as ``(nblocks, w, w)`` stacks of class blocks.  T_int
    moves electrons among the active orbitals of ``part`` only, so it is a
    direct sum over the classes of determinants that share their inactive
    occupation (:func:`ducclab.fock.inactive_classes`): block (c, c') of
    the direct product is e^{T_c} X_cc' e^{-T_c'}, and of a commutator
    T_c Y_cc' - Y_cc' T_c'.  Both routes run on the nblocks class pairs
    (c, c') that X_ext couples, ascending in (c, c'), padded to the width w
    of the largest class, as stacked small products; the direct one takes
    e^{+-T_c} of every class from their series.  Padding, and every entry
    outside these blocks, is zero on both routes.
    The series terminates: every surviving operator path climbs the
    excitation-rank ladder except for the single de-excitation drop, and the
    ladder height R = min(N, M-N) caps the commutator depth at 3R.
    """
    Ti, Xe, basis = m.Ti, m.Xe, m.basis
    if Ti.width is not None:
        raise TypeError("x_int_ext_bch checks one configuration: pass m.config(b)")
    cls, pos = inactive_classes(basis, part)
    if np.any(cls[Ti.lows] != cls[Ti.highs]):
        raise OperatorPropertyError("T_int couples determinants of different inactive "
                                    "occupation: it holds an external signature")
    n_cls, width = int(cls.max()) + 1, int(pos.max()) + 1
    t_blocks = np.zeros((n_cls, width, width), Ti.dtype)
    t_blocks[cls[Ti.highs], pos[Ti.highs], pos[Ti.lows]] = Ti.vals
    # the class blocks (c, c') that X_ext couples, and its entries in them
    keys, block = np.unique(cls[Xe.highs] * n_cls + cls[Xe.lows], return_inverse=True)
    row_cls, col_cls = np.divmod(keys, n_cls)
    x_blocks = np.zeros((keys.size, width, width), Xe.dtype)
    x_blocks[block, pos[Xe.highs], pos[Xe.lows]] = Xe.vals

    unit = np.zeros((n_cls, width, width))
    unit[:, range(width), range(width)] = 1.0
    e_plus, e_minus = (exp_nilpotent(lambda Y: sign * (t_blocks @ Y), unit, basis)
                       for sign in (1, -1))
    direct = e_plus[row_cls] @ x_blocks @ e_minus[col_cls]

    left, right = t_blocks[row_cls], t_blocks[col_cls]
    cap = 3 * min(basis.N, basis.M - basis.N) + 2
    # cancellation roundoff keeps dead terms from being exact zeros
    dead = 1e-14 * max(1.0, float(np.abs(Xe.vals).max(initial=0.0)))
    series = np.zeros_like(x_blocks)
    term = x_blocks
    n = 0
    while True:
        series += term / math.factorial(n)
        n += 1
        term = left @ term - term @ right
        if float(np.abs(term).max(initial=0.0)) <= dead:
            return direct, series, n
        if n > cap:
            raise ArithmeticError(f"nested-commutator series did not terminate by n={cap}")


def action_deviation(v1: complex, v4: complex, w1: complex,
                     w2: complex) -> tuple[complex, float]:
    """Action integrand from the B-operator and doubly transformed
    Hamiltonian pieces (v4 - w2), and its deviation from the direct
    single-product evaluation (v1 - w1)."""
    assembled = v4 - w2
    return complex(assembled), float(abs(assembled - (v1 - w1)))
