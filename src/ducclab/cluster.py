"""Cluster amplitudes: extraction from exact states, internal/external
splitting, lowest-order anti-Hermitian generators, random amplitude sets.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .errors import IntermediateNormalizationError, SectorMismatchError
from .fock import (Determinant, ExcitationSignature, FockBasis,
                   SpinOrbitalPartition, determinant_table, enumerate_signatures,
                   excitation_pairs)
from .operators import _inexact


#: a cluster amplitude set: excitation signature -> real or complex amplitude.
#: Excitation sets (T and its internal/external parts) and de-excitation sets
#: (Lambda, X), the latter applied in adjoint form by :func:`deexcitation_matrix`.
Amplitudes = dict[ExcitationSignature, complex]


def amplitude_pairs(amps: Amplitudes, basis: FockBasis
                    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzero entries of sum_sig t_sig E_sig over the basis, signature
    by signature: (lows, highs, t_sig * phases) from the memoised
    :func:`ducclab.fock.excitation_pairs` of each nonzero amplitude.  Within
    a signature no low and no high repeats, and a pair fixes its signature,
    so no pair repeats across signatures either."""
    return [(lows, highs, t * phases) for sig, t in amps.items() if t != 0
            for lows, highs, phases in (excitation_pairs(sig, basis),)]


def excitation_matrix(amps: Amplitudes, basis: FockBasis) -> np.ndarray:
    """Matrix of sum_sig t_sig E_sig over the basis (rank 0 contributes the
    identity), float64 unless an amplitude is complex, filled by one scatter
    of the concatenated :func:`amplitude_pairs`."""
    mat = np.zeros((basis.size, basis.size), dtype=_inexact(list(amps.values())).dtype)
    pairs = amplitude_pairs(amps, basis)
    if pairs:
        lows, highs, vals = map(np.concatenate, zip(*pairs))
        mat[highs, lows] += vals   # += onto zeros: a zero imaginary part stays +0
    return mat


def deexcitation_matrix(amps: Amplitudes, basis: FockBasis) -> np.ndarray:
    """Matrix of sum_sig x_sig (E_sig)+ -- amplitude sets applied in adjoint
    (de-excitation) form, coefficients NOT conjugated.  The phases are real,
    so this is the transpose of :func:`excitation_matrix`."""
    return excitation_matrix(amps, basis).T


def exp_nilpotent(T: np.ndarray | Callable[[np.ndarray], np.ndarray], V: np.ndarray,
                  basis: FockBasis, rtol: float = 0.0) -> np.ndarray:
    """e^T V as the terminating series sum_n T^n V / n!.

    ``T`` is a matrix or the linear map ``W -> T W``.  It must move every
    determinant up (excitation) or down (de-excitation) the excitation-rank
    ladder of height min(N, M-N), so T^n V is exactly zero from
    n = ladder + 1 on: products of structural zeros stay exact zeros.
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
    out = np.array(V, dtype=np.result_type(V) if callable(T) else np.result_type(T, V))
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
    terminating series of the lower-rank amplitude matrix to the reference
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
            low = exp_nilpotent(excitation_matrix(entries, basis), e_ref, basis)
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
