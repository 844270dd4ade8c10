"""Cluster amplitudes: extraction from exact states, internal/external
splitting, lowest-order anti-Hermitian generators, random amplitude sets.

An amplitude set acts as an :class:`AmplitudeOperator`, from the flat list
of the determinant pairs that its signatures couple, on vectors and on
``(dim, B)`` blocks; its exponential acts by the terminating series of
:func:`exp_nilpotent`.  :func:`excitation_matrix` forms the dense matrix
only where the matrix itself is the object: the lowest-order generator
T - T+ and the X_ext that :func:`ducclab.ecc.x_int_ext_bch` compares.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, lru_cache

import numpy as np

from .errors import IntermediateNormalizationError, SectorMismatchError
from .fock import (Determinant, ExcitationSignature, FockBasis,
                   SpinOrbitalPartition, determinant_table, enumerate_signatures,
                   excitation_pairs)
from .operators import _inexact


#: a cluster amplitude set: excitation signature -> real or complex amplitude.
#: Excitation sets (T and its internal/external parts) and de-excitation sets
#: (Lambda, X), the latter applied in adjoint form (:attr:`AmplitudeOperator.T`).
Amplitudes = dict[ExcitationSignature, complex]


class AmplitudeOperator:
    """sum_sig t_sig E_sig of an amplitude set over a basis, applied from its
    pairs of determinants, never as a dense matrix.

    The pairs are the memoised :func:`ducclab.fock.excitation_pairs` of the
    nonzero amplitudes, each weighted by ``t_sig * phase``.  Within one
    signature no low and no high repeats, and a pair fixes its signature, so
    no pair repeats across signatures either.  ``lows``, ``highs`` and
    ``vals`` hold them concatenated and sorted by high.

    ``op @ X`` has the dtype of the amplitudes times ``X``, and takes the
    kernel with the fewer numpy calls: per column of ``X`` (a vector is one
    column) one gather, one multiply and one ``np.add.reduceat`` over the
    rows that the pairs reach, or per signature one row gather and one row
    scatter.
    ``op.T`` is the de-excitation form sum_sig t_sig (E_sig)^T, coefficients
    not conjugated (the phases are real), and ``-op`` the negated operator;
    each is built once and cached.  Neither links back to ``op``: a
    reference cycle would keep every operator of a loop alive until the
    cyclic garbage collector runs.
    """

    __array_ufunc__ = None     # no ``X @ op``: numpy defers, and Python raises

    def __init__(self, amps: Amplitudes, basis: FockBasis):
        dtype = _inexact(list(amps.values())).dtype
        nonzero = [(excitation_pairs(sig, basis), t) for sig, t in amps.items() if t != 0]
        lows, highs, phases = (np.concatenate([p[k] for p, _ in nonzero] or [np.zeros(0, int)])
                               for k in range(3))
        sizes = [p[0].size for p, _ in nonzero]
        vals = np.repeat(np.array([t for _, t in nonzero], dtype), sizes) * phases
        self._set(basis.size, dtype, lows, highs, vals, np.cumsum([0] + sizes))

    def _set(self, size: int, dtype: np.dtype, lows: np.ndarray, highs: np.ndarray,
             vals: np.ndarray, bounds: np.ndarray, order: np.ndarray | None = None) -> None:
        """The pairs in signature order, signature k at ``bounds[k]:bounds[k+1]``,
        and ``order``, an argsort of ``highs``, if known."""
        self.shape, self.dtype = (size, size), dtype
        self._signed = lows, highs, vals, bounds
        self._order = np.argsort(highs) if order is None else order
        self.lows, self.highs, self.vals = lows[self._order], highs[self._order], vals[self._order]
        self._starts = np.flatnonzero(np.diff(self.highs, prepend=-1))
        self._rows = self.highs[self._starts]

    def _derived(self, lows: np.ndarray, highs: np.ndarray, vals: np.ndarray,
                 order: np.ndarray | None = None) -> "AmplitudeOperator":
        op = object.__new__(AmplitudeOperator)
        op._set(self.shape[0], self.dtype, lows, highs, vals, self._signed[3], order)
        return op

    @cached_property
    def T(self) -> "AmplitudeOperator":
        lows, highs, vals, _ = self._signed
        return self._derived(highs, lows, vals)

    @cached_property
    def _negated(self) -> "AmplitudeOperator":
        lows, highs, vals, _ = self._signed
        return self._derived(lows, highs, -vals, self._order)

    def __neg__(self) -> "AmplitudeOperator":
        return self._negated

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim not in (1, 2) or X.shape[0] != self.shape[1]:
            raise ValueError(f"cannot apply a {self.shape} operator to shape {X.shape}")
        X2 = X.reshape(X.shape[0], -1)
        out = np.zeros(X2.shape, np.result_type(self.dtype, X))
        lows, highs, vals, bounds = self._signed
        if X2.shape[1] < len(bounds) - 1:
            for x, y in zip(X2.T, out.T):
                y[self._rows] = np.add.reduceat(self.vals * x[self.lows], self._starts)
        else:
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                out[highs[a:b]] += vals[a:b, None] * X2[lows[a:b]]
        return out.reshape(X.shape)

    def toarray(self) -> np.ndarray:
        """The dense matrix, filled by one scatter of the pairs."""
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
    is; the series then ends at the first term whose norm is at most
    ``rtol`` times that of the partial sum.  Raises ArithmeticError if the
    series has not ended by n = ladder + 1, e.g. for an amplitude set
    holding the rank-0 (identity) signature.  The result has the dtype of
    ``T @ V`` (of its terms for a map).
    """
    apply = T if callable(T) else T.__matmul__
    ladder = min(basis.N, basis.M - basis.N)
    out = np.array(V, dtype=np.result_type(V) if callable(T) else np.result_type(T.dtype, V))
    term = out
    for n in range(1, ladder + 2):
        term = apply(term) / n
        if (not term.any() if rtol == 0
                else np.linalg.norm(term) <= rtol * np.linalg.norm(out)):
            return out
        out = out + term
    raise ArithmeticError(f"series of a non-nilpotent matrix did not end by n={ladder + 1}")


#: smallest reference coefficient |<ref|psi>| intermediate normalisation accepts
C0_TOL = 1e-12


def cluster_analyze(psi: np.ndarray, ref: Determinant, basis: FockBasis) -> Amplitudes:
    """Extract T with e^T |ref> = psi / <ref|psi> exactly.

    Rank-by-rank recursion: the coefficient of a rank-k determinant in
    e^T|ref> is the rank-k amplitude (times a phase) plus disconnected
    products of lower ranks; the products are obtained by applying the
    terminating series of the lower-rank amplitude operator to the reference
    (:func:`exp_nilpotent`) rather than by hand-coded antisymmetrized sums,
    so one code path covers every rank.
    """
    if len(psi) != basis.size:
        raise SectorMismatchError("state vector length does not match basis")
    table = determinant_table(basis, ref)
    c0 = psi[table.ref_index]
    if abs(c0) < C0_TOL:
        raise IntermediateNormalizationError(
            f"reference coefficient {abs(c0):.3e} below {C0_TOL:.0e}")
    c = np.asarray(psi) / c0
    e_ref = basis.unit_vector(table.ref_index)

    entries: Amplitudes = {}
    ranks = table.ranks[table.order]
    for k in range(1, min(ref.N, ref.M - ref.N) + 1):
        if entries:
            low = exp_nilpotent(AmplitudeOperator(entries, basis), e_ref, basis)
        else:
            low = e_ref
        rows = table.order[ranks == k]
        amps = (c[rows] - low[rows]) / table.phases[rows]
        for j, t in zip(rows.tolist(), amps.tolist()):
            if t != 0:
                entries[table.signatures[j]] = t
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
