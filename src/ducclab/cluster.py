"""Cluster amplitudes: extraction from exact states, internal/external
splitting, lowest-order anti-Hermitian generators, random amplitude sets.

An amplitude set, or a stack of sets over one signature list, acts as an
:class:`AmplitudeOperator`, from the flat list of the determinant pairs
that its signatures couple, on vectors and on ``(dim, B)`` blocks; its
exponential acts by the terminating series of :func:`exp_nilpotent`.
:func:`excitation_matrix` forms the dense matrix only where the matrix
itself is the object: the lowest-order generator T - T+.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

import numpy as np

from .errors import IntermediateNormalizationError, SectorMismatchError
from .fock import (Determinant, ExcitationSignature, FockBasis,
                   SpinOrbitalPartition, determinant_table, enumerate_signatures,
                   excitation_pair_lists)
from .operators import _inexact


#: a cluster amplitude set: excitation signature -> real or complex amplitude.
#: Excitation sets (T and its internal/external parts) and de-excitation sets
#: (Lambda, X), the latter applied in adjoint form (:attr:`AmplitudeOperator.T`).
Amplitudes = dict[ExcitationSignature, complex]


class AmplitudeOperator:
    """sum_sig t_sig E_sig of an amplitude set over a basis, applied from its
    pairs of determinants, never as a dense matrix; or of a stack of B sets
    over one signature list, which share that list.

    ``amps`` is one set (a dict) or a sequence of B sets with the same
    signatures in the same order.  The pairs are the memoised
    :func:`ducclab.fock.excitation_pairs` of the signatures with a nonzero
    amplitude in some set, each weighted by ``t_sig * phase``.
    Within one signature no low and no high repeats, and a pair fixes its
    signature, so no pair repeats across signatures either.  ``lows``,
    ``highs`` and ``vals`` hold them concatenated and sorted by high;
    ``vals`` is ``(npairs,)`` for one set and ``(npairs, B)`` for a stack,
    whose ``width`` is B (``None`` for one set).  Negation and a set of a
    stack share these arrays.

    ``op @ X`` has the dtype of the amplitudes times ``X``: a gather, a
    multiply and an ``np.add.reduceat`` over the rows that the pairs reach.
    One set acts on a vector, or on a block column by column; a stack acts
    on a ``(dim, B)`` block, set b on column b, all columns in one pass.
    ``op[b]`` is set b alone, on the stack's pair list.
    ``op.T`` is the de-excitation form sum_sig t_sig (E_sig)^T, coefficients
    not conjugated (the phases are real), and ``-op`` the negated operator;
    each is built once and cached.  Neither links back to ``op``: a
    reference cycle would keep every operator of a loop alive until the
    cyclic garbage collector runs.
    """

    __array_ufunc__ = None     # no ``X @ op``: numpy defers, and Python raises

    def __init__(self, amps: Amplitudes | Sequence[Amplitudes], basis: FockBasis):
        sets = [amps] if isinstance(amps, dict) else list(amps)
        sigs = list(sets[0]) if sets else None
        if sigs is None or any(list(s) != sigs for s in sets[1:]):
            raise ValueError("the amplitude sets of a stack must share one signature list")
        t = _inexact([list(s.values()) for s in sets]).reshape(len(sets), len(sigs)).T
        keep = t.any(axis=1)
        pairs = excitation_pair_lists([sig for sig, k in zip(sigs, keep.tolist()) if k], basis)
        lows, highs, phases = (np.concatenate([p[k] for p in pairs] or [np.zeros(0, int)])
                               for k in range(3))
        vals = np.repeat(t[keep], [p[0].size for p in pairs], axis=0) * phases[:, None]
        width = None if isinstance(amps, dict) else len(sets)
        self._set(basis.size, t.dtype, width, lows, highs,
                  vals if width is not None else vals[:, 0], 1)

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


def excitation_matrix(amps: Amplitudes, basis: FockBasis) -> np.ndarray:
    """Matrix of sum_sig t_sig E_sig over the basis (rank 0 contributes the
    identity), float64 unless an amplitude is complex: the dense form of
    :class:`AmplitudeOperator`, for where the matrix itself is the object."""
    return AmplitudeOperator(amps, basis).toarray()


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
    ended by n = ladder + 1, e.g. for an amplitude set holding the rank-0
    (identity) signature.  The result has the dtype of ``T @ V`` (of its
    terms for a map).
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


def cluster_analyze(psi: np.ndarray, ref: Determinant, basis: FockBasis) -> Amplitudes:
    """Extract T with e^T |ref> = psi / <ref|psi> exactly.

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

    entries: Amplitudes = {}
    ranks = table.ranks[table.order]
    top = min(ref.N, ref.M - ref.N)
    for k in range(1, top + 1):
        rows = table.order[ranks == k]
        amps = (c[rows] - low[rows]) / table.phases[rows]
        rank_k = {table.signatures[j]: t for j, t in zip(rows.tolist(), amps.tolist())
                  if t != 0}
        entries.update(rank_k)
        if rank_k and k < top:
            low = exp_nilpotent(AmplitudeOperator(rank_k, basis), low, basis)
    return entries


def split_amplitudes(T: Amplitudes, part: SpinOrbitalPartition
                     ) -> tuple[Amplitudes, Amplitudes]:
    """Internal part (all indices active) and external remainder; their
    union reproduces T exactly."""
    t_int, t_ext = {}, {}
    for sig, t in T.items():
        (t_int if part.is_internal_signature(sig) else t_ext)[sig] = t
    return t_int, t_ext


def sigma_lowest_order(tpart: Amplitudes, basis: FockBasis) -> np.ndarray:
    """Lowest-order anti-Hermitian generator T - T+."""
    m = excitation_matrix(tpart, basis)
    return m - m.conj().T


@lru_cache(maxsize=64)
def _amplitude_signatures(ref: Determinant, part: SpinOrbitalPartition | None,
                          kind: str, max_rank: int | None
                          ) -> tuple[ExcitationSignature, ...]:
    """The signatures of :func:`enumerate_signatures` that ``kind`` keeps,
    in its order."""
    sigs = enumerate_signatures(ref, max_rank=max_rank)
    if kind == "any":
        return tuple(sigs)
    internal = kind == "internal"
    return tuple(sig for sig in sigs if part.is_internal_signature(sig) == internal)


def random_amplitudes(ref: Determinant, rng: np.random.Generator,
                      part: SpinOrbitalPartition | None = None,
                      kind: str = "any", scale: float = 0.1,
                      max_rank: int | None = None,
                      real: bool = False) -> Amplitudes:
    """Random amplitude set for property tests and verification batteries.

    kind: 'any', 'internal' or 'external' (the latter two need ``part``).
    Magnitudes are uniform in [-scale, scale] per quadrature component,
    drawn signature by signature (real part, then imaginary part) in
    :func:`enumerate_signatures` order; a ``real`` set draws only the real
    parts and holds floats.
    """
    if kind not in ("any", "internal", "external"):
        raise ValueError(f"unknown amplitude kind {kind!r}")
    sigs = _amplitude_signatures(ref, part, kind, max_rank)
    draws = rng.uniform(-scale, scale, size=(len(sigs), 1 if real else 2))
    vals = draws[:, 0] if real else draws[:, 0] + 1j * draws[:, 1]
    return dict(zip(sigs, vals.tolist()))
