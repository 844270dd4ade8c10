"""Cluster amplitudes: extraction from exact states, internal/external
splitting, lowest-order anti-Hermitian generators, random amplitude sets.

An amplitude set is an array over the rows of a
:class:`ducclab.fock.DeterminantTable`: ``(dim,)``, or ``(dim, B)`` for a
stack of B sets, row j holding the amplitude of row j's signature and the
reference row that of the identity, which is zero in every set the lab
builds.  Excitation sets (T and its internal/external parts) and
de-excitation sets (Lambda, X) alike; the latter act in adjoint form
(:attr:`AmplitudeOperator.T`).  A set or a stack acts as an
:class:`AmplitudeOperator`, from the table's pair list, on vectors and on
``(dim, B)`` blocks; its exponential acts by the terminating series of
:func:`exp_nilpotent`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

import numpy as np

from .errors import IntermediateNormalizationError, SectorMismatchError
from .fock import DeterminantTable, FockBasis, determinant_table
from .operators import _inexact
from .shape import Determinant, SpinOrbitalPartition


class AmplitudeOperator:
    """sum_j t_j E_j of an amplitude array ``t`` over the rows of ``table``,
    E_j the excitation of row j's signature, applied from the table's pair
    list, never as a dense matrix; or of a ``(dim, B)`` stack of B sets.

    The pairs are those of :attr:`ducclab.fock.DeterminantTable.pair_list`
    whose row has a nonzero amplitude in some set, in the list's order, each
    weighted by ``t_j * phase``.  A pair fixes its row, so no pair repeats.
    ``lows``, ``highs`` and ``vals`` hold them sorted by high, stably;
    ``vals`` is ``(npairs,)`` for one set and ``(npairs, B)`` for a stack,
    whose ``width`` is B (``None`` for one set).  Negation and a set of a
    stack share these arrays.

    ``op @ X`` has the dtype of the amplitudes times ``X``: a gather, a
    multiply and an ``np.add.reduceat`` over the rows that the pairs reach.
    One set acts on a vector, or on a block column by column; a stack acts
    on a ``(dim, B)`` block, set b on column b, all columns in one pass.
    ``op[b]`` is set b alone, on the stack's pair list.
    ``op.T`` is the de-excitation form sum_j t_j (E_j)^T, coefficients
    not conjugated (the phases are real), and ``-op`` the negated operator;
    each is built once and cached.  Neither links back to ``op``: a
    reference cycle would keep every operator of a loop alive until the
    cyclic garbage collector runs.
    """

    __array_ufunc__ = None     # no ``X @ op``: numpy defers, and Python raises

    def __init__(self, t: np.ndarray, table: DeterminantTable):
        t = _inexact(t)
        if t.ndim not in (1, 2) or len(t) != table.basis.size:
            raise ValueError(f"an amplitude array over {table.basis.size} table rows is "
                             f"(dim,) or (dim, B), not {t.shape}")
        rows, lows, highs, phases = table.pair_list
        keep = np.flatnonzero(t.reshape(len(t), -1).any(axis=1)[rows])
        weights = phases[keep] if t.ndim == 1 else phases[keep, None]
        self._set(len(t), t.dtype, t.shape[1] if t.ndim == 2 else None, lows[keep],
                  highs[keep], t[rows[keep]] * weights, 1)

    def _set(self, size: int, dtype: np.dtype, width: int | None, lows: np.ndarray,
             highs: np.ndarray, vals: np.ndarray, sign: int) -> None:
        self.shape, self.dtype, self.width, self._sign = (size, size), dtype, width, sign
        order = np.argsort(highs, kind="stable")
        self.lows, self.highs, self._vals = lows[order], highs[order], vals[order]
        self._starts = np.flatnonzero(np.diff(self.highs, prepend=-1))
        self._rows = self.highs[self._starts]

    def _view(self, vals: np.ndarray, width: int | None, sign: int) -> "AmplitudeOperator":
        """These pairs with other weights, sharing the pair arrays."""
        op = object.__new__(AmplitudeOperator)
        op.shape, op.dtype, op.width, op._sign = self.shape, self.dtype, width, sign
        op.lows, op.highs, op._vals = self.lows, self.highs, vals
        op._starts, op._rows = self._starts, self._rows
        return op

    @property
    def vals(self) -> np.ndarray:
        return self._vals if self._sign > 0 else -self._vals

    @cached_property
    def T(self) -> "AmplitudeOperator":
        op = object.__new__(AmplitudeOperator)
        op._set(self.shape[0], self.dtype, self.width, self.highs, self.lows, self._vals,
                self._sign)
        return op

    @cached_property
    def _negated(self) -> "AmplitudeOperator":
        return self._view(self._vals, self.width, -self._sign)

    def __neg__(self) -> "AmplitudeOperator":
        return self._negated

    def __getitem__(self, b: int) -> "AmplitudeOperator":
        if self.width is None:
            raise TypeError("a one-set amplitude operator has no sets to index")
        return self._view(self._vals[:, b], None, self._sign)

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if (X.ndim not in (1, 2) or X.shape[0] != self.shape[1]
                or self.width is not None and X.shape[1:] != (self.width,)):
            raise ValueError(f"cannot apply a {self.shape} operator of width "
                             f"{self.width} to shape {X.shape}")
        out = np.zeros(X.shape, np.result_type(self.dtype, X))
        if not self._rows.size:
            return out
        if self.width is not None:
            gathered = np.take(X, self.lows, axis=0)
            out[self._rows] = np.add.reduceat(self._vals * gathered, self._starts, axis=0)
        else:
            # column by column: on a long pair list, a 2-D gather and sum
            # take twice the time of these 1-D ones
            for x, y in zip(X.reshape(len(X), -1).T, out.reshape(len(X), -1).T):
                y[self._rows] = np.add.reduceat(self._vals * x[self.lows], self._starts)
        return np.negative(out, out=out) if self._sign < 0 else out

    def toarray(self) -> np.ndarray:
        """The dense matrix of a one-set operator, filled by one scatter of
        the pairs."""
        if self.width is not None:
            raise TypeError("a stack of amplitude sets has no one dense matrix")
        mat = np.zeros(self.shape, self.dtype)
        mat[self.highs, self.lows] += self.vals   # += onto zeros: a zero imaginary part stays +0
        return mat


def exp_nilpotent(T: np.ndarray | AmplitudeOperator | Callable[[np.ndarray], np.ndarray],
                  V: np.ndarray, basis: FockBasis, rtol: float = 0.0) -> np.ndarray:
    """e^T V as the terminating series sum_n T^n V / n!.

    ``T`` is a matrix, an :class:`AmplitudeOperator` or the linear map
    ``W -> T W``.  It must move every determinant up (excitation) or down
    (de-excitation) the excitation-rank ladder of height min(N, M-N), so
    T^n V is exactly zero from n = ladder + 1 on: products of structural
    zeros stay exact zeros.
    A map may also multiply its argument from the right by such a matrix,
    ``W -> W A``, which is nilpotent on the same ladder.  With ``rtol == 0``
    the series ends at the first term that is exactly zero (a NaN or inf
    term never is).  With ``rtol > 0``, ``T`` need only be nilpotent up to
    round-off, as a similarity transform ``e^A X e^-A`` of a nilpotent ``X``
    is; the series of a vector then ends at the first term whose norm is at
    most ``rtol`` times that of the partial sum, and that of each column of
    a ``(dim, B)`` block at its own such term: a column that has ended
    takes no further terms.  Raises ArithmeticError if the series has not
    ended by n = ladder + 1, e.g. for an amplitude set with a nonzero
    reference-row (identity) amplitude.  The result has the dtype of
    ``T @ V`` (of its terms for a map).
    """
    apply = T if callable(T) else T.__matmul__
    ladder = min(basis.N, basis.M - basis.N)
    out = np.array(V, dtype=np.result_type(V) if callable(T) else np.result_type(T.dtype, V))
    # the 2-norm of a vector, or of each column of a block
    norm = lambda a: np.linalg.norm(a, axis=0 if a.ndim == 2 else None)
    term = out
    for n in range(1, ladder + 2):
        term = apply(term) / n
        if rtol == 0:
            if not term.any():
                return out
        else:
            live = ~(norm(term) <= rtol * norm(out))   # NaN stays live
            if not live.any():
                return out
            if not live.all():
                term = np.where(live, term, 0)
        out = out + term
    raise ArithmeticError(f"series of a non-nilpotent matrix did not end by n={ladder + 1}")


#: smallest reference coefficient |<ref|psi>| intermediate normalisation accepts
C0_TOL = 1e-12


def cluster_analyze(psi: np.ndarray, ref: Determinant, basis: FockBasis) -> np.ndarray:
    """Extract T with e^T |ref> = psi / <ref|psi> exactly, as an amplitude
    array over the rows of ``determinant_table(basis, ref)``.

    Rank-by-rank recursion: the coefficient of a rank-k determinant in
    e^T|ref> is the rank-k amplitude (times a phase) plus disconnected
    products of lower ranks; the products are obtained by applying the
    terminating series of the lower-rank amplitude operators to the
    reference (:func:`exp_nilpotent`) rather than by hand-coded
    antisymmetrized sums, so one code path covers every rank.  Excitation
    operators commute, so e^{T_1 + .. + T_k} |ref> is e^{T_k} applied to
    e^{T_1 + .. + T_{k-1}} |ref>: each rank's operator is built once, from
    that rank's amplitudes.
    """
    if len(psi) != basis.size:
        raise SectorMismatchError("state vector length does not match basis")
    table = determinant_table(basis, ref)
    c0 = psi[table.ref_index]
    if abs(c0) < C0_TOL:
        raise IntermediateNormalizationError(
            f"reference coefficient {abs(c0):.3e} below {C0_TOL:.0e}")
    c = np.asarray(psi) / c0
    low = basis.unit_vector(table.ref_index)   # e^{T_1 + .. + T_{k-1}} |ref>
    t = np.zeros(basis.size, np.result_type(c, low))
    top = min(ref.N, ref.M - ref.N)
    for k in range(1, top + 1):
        t_k = np.where(table.ranks == k, (c - low) / table.phases, 0)
        t += t_k
        if k < top and t_k.any():
            low = exp_nilpotent(AmplitudeOperator(t_k, table), low, basis)
    return t


def split_amplitudes(t: np.ndarray, table: DeterminantTable, part: SpinOrbitalPartition
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Internal part (every index active; the reference row's identity
    counts as internal) and external remainder of an amplitude array or
    stack; their sum reproduces ``t`` exactly."""
    external = table.external(part)
    external = external.reshape(external.shape + (1,) * (np.ndim(t) - 1))
    return np.where(external, 0, t), np.where(external, t, 0)


def sigma_lowest_order(t: np.ndarray, table: DeterminantTable) -> np.ndarray:
    """Lowest-order anti-Hermitian generator T - T+, as a dense matrix."""
    m = AmplitudeOperator(t, table).toarray()
    return m - m.conj().T


def random_amplitudes(table: DeterminantTable, rng: np.random.Generator,
                      part: SpinOrbitalPartition | None = None,
                      kind: str = "any", scale: float = 0.1,
                      max_rank: int | None = None,
                      real: bool = False) -> np.ndarray:
    """Random amplitude array for property tests and verification batteries.

    kind: 'any', 'internal' or 'external' (the latter two need ``part``).
    Magnitudes are uniform in [-scale, scale] per quadrature component,
    drawn row by row (real part, then imaginary part) in the table's
    ``order``, the identity excluded and every other row of rank at most
    ``max_rank`` kept; a ``real`` set draws only the real parts and holds
    floats.  The rows not drawn hold zero.
    """
    if kind not in ("any", "internal", "external"):
        raise ValueError(f"unknown amplitude kind {kind!r}")
    rows = table.order[1:]   # the identity comes first
    if max_rank is not None:
        rows = rows[table.ranks[rows] <= max_rank]
    if kind != "any":
        rows = rows[table.external(part)[rows] == (kind == "external")]
    draws = rng.uniform(-scale, scale, size=(len(rows), 1 if real else 2))
    t = np.zeros(table.basis.size, float if real else complex)
    t[rows] = draws[:, 0] if real else draws[:, 0] + 1j * draws[:, 1]
    return t
