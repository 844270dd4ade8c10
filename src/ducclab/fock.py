"""Determinants, fermionic phases, and active-space classification.

Conventions used everywhere downstream:

* Spin orbitals are indexed 0..M-1. Bit p of a determinant's occupation
  mask is set iff orbital p is occupied; printed bitstrings put orbital 0
  leftmost, so ``|1100>`` means orbitals 0 and 1 occupied.
* An excitation string ``a+_{a1}..a+_{ak} a_{ik}..a_{i1}`` acts right to
  left, and every elementary creator/annihilator picks up the sign
  ``(-1)**(number of occupied orbitals with smaller index at the moment it
  acts)``.
* A spin-orbital partition lists its four classes as occupied-inactive,
  occupied-active, virtual-active, virtual-inactive.  By default the four
  classes must be contiguous ascending index blocks in that order; the
  elimination-order guarantees of the sweep module rely on this ordering.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import InvalidDimensionError, SectorMismatchError

#: Desk-scale guard: dense sector matrices up to C(16,8)^2 stay tractable.
MAX_ORBITALS = 16


def _mask(orbitals) -> int:
    return sum(1 << p for p in orbitals)


class DetClass(Enum):
    REFERENCE = "reference"
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Determinant:
    """An M-orbital occupation-number state with a fixed particle content."""

    occupation: int
    M: int

    def __post_init__(self):
        if not 1 <= self.M <= MAX_ORBITALS:
            raise InvalidDimensionError(
                f"orbital count {self.M} outside 1..{MAX_ORBITALS}")
        if self.occupation < 0 or self.occupation >> self.M:
            raise InvalidDimensionError(
                f"occupation mask {self.occupation:#x} has bits outside 0..{self.M - 1}")

    @property
    def N(self) -> int:
        return self.occupation.bit_count()

    def occupied(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.M) if self.occupation >> p & 1)

    def virtuals(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.M) if not self.occupation >> p & 1)

    def bitstring(self) -> str:
        return "".join("1" if self.occupation >> p & 1 else "0" for p in range(self.M))

    def __str__(self) -> str:
        return f"|{self.bitstring()}>"


@dataclass(frozen=True)
class ExcitationSignature:
    """Ordered occupied/virtual index tuples of an excitation operator.

    ``occ`` are the reference orbitals annihilated and ``virt`` the ones
    created; both tuples are strictly ascending and of equal length.  The
    rank-0 signature ``((), ())`` is the identity.
    """

    occ: tuple[int, ...]
    virt: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(self.occ)
        virt = tuple(self.virt)
        object.__setattr__(self, "occ", occ)
        object.__setattr__(self, "virt", virt)
        if len(occ) != len(virt):
            raise InvalidDimensionError("occ and virt tuples differ in length")
        for tup in (occ, virt):
            if any(b <= a for a, b in zip(tup, tup[1:])):
                raise InvalidDimensionError(f"index tuple {tup} not strictly ascending")
        if set(occ) & set(virt):
            raise InvalidDimensionError("occ and virt tuples overlap")

    @property
    def rank(self) -> int:
        return len(self.occ)


@dataclass(frozen=True)
class SpinOrbitalPartition:
    """The four orbital classes of an active-space partition.

    ``occ_inactive`` and ``occ_active`` together must be exactly the
    orbitals occupied in the reference determinant this partition is used
    with; :meth:`reference` builds that determinant.
    """

    occ_inactive: tuple[int, ...]
    occ_active: tuple[int, ...]
    virt_active: tuple[int, ...]
    virt_inactive: tuple[int, ...]
    allow_arbitrary: bool = False

    def __post_init__(self):
        blocks = [tuple(sorted(b)) for b in
                  (self.occ_inactive, self.occ_active, self.virt_active, self.virt_inactive)]
        for name, blk in zip(
                ("occ_inactive", "occ_active", "virt_active", "virt_inactive"), blocks):
            object.__setattr__(self, name, blk)
        flat = [p for blk in blocks for p in blk]
        if sorted(flat) != list(range(len(flat))):
            raise InvalidDimensionError(
                "partition classes must be disjoint and cover 0..M-1 exactly")
        if not self.allow_arbitrary and flat != sorted(flat):
            raise InvalidDimensionError(
                "partition classes must be contiguous ascending blocks "
                "(occ_inactive < occ_active < virt_active < virt_inactive); "
                "pass allow_arbitrary=True to bypass")

    @property
    def M(self) -> int:
        return (len(self.occ_inactive) + len(self.occ_active)
                + len(self.virt_active) + len(self.virt_inactive))

    @property
    def N(self) -> int:
        return len(self.occ_inactive) + len(self.occ_active)

    def reference(self) -> Determinant:
        return Determinant(_mask(self.occ_inactive + self.occ_active), self.M)

    def is_internal_signature(self, sig: ExcitationSignature) -> bool:
        """True iff every index of ``sig`` lies in the active classes.

        Rank-0 (the scalar/identity signature) counts as internal.
        """
        return (set(sig.occ) <= set(self.occ_active)
                and set(sig.virt) <= set(self.virt_active))


def homo_lumo_partition(M: int, N: int, n_occ_active: int,
                        n_virt_active: int) -> SpinOrbitalPartition:
    """Contiguous partition placing the active window around the Fermi level
    of the aufbau reference (orbitals 0..N-1 occupied)."""
    if not (0 <= n_occ_active <= N and 0 <= n_virt_active <= M - N):
        raise InvalidDimensionError(
            f"active window ({n_occ_active},{n_virt_active}) does not fit M={M}, N={N}")
    return SpinOrbitalPartition(
        occ_inactive=tuple(range(N - n_occ_active)),
        occ_active=tuple(range(N - n_occ_active, N)),
        virt_active=tuple(range(N, N + n_virt_active)),
        virt_inactive=tuple(range(N + n_virt_active, M)),
    )


class FockBasis:
    """All N-electron determinants of M spin orbitals, ordered by ascending
    occupation-mask value (deterministic).

    ``masks`` is the tuple of occupation masks and ``mask_array`` the same
    masks as a sorted int64 array for whole-basis (vectorised) work.  The
    basis also holds the memo of :func:`excitation_pairs`, which so lives
    and dies with it.
    """

    def __init__(self, M: int, N: int):
        if not (0 <= N <= M <= MAX_ORBITALS):
            raise InvalidDimensionError(
                f"need 0 <= N <= M <= {MAX_ORBITALS}, got M={M}, N={N}")
        self.M = M
        self.N = N
        masks = sorted(_mask(occ) for occ in combinations(range(M), N))
        self.masks = tuple(masks)
        self.mask_array = np.array(masks, dtype=np.int64)
        self.dets = tuple(Determinant(m, M) for m in masks)
        self._index = {m: i for i, m in enumerate(masks)}
        self._pairs = {}
        assert len(masks) == comb(M, N)

    @property
    def size(self) -> int:
        return len(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.dets)

    def index_of(self, det: Determinant | int) -> int:
        mask = det.occupation if isinstance(det, Determinant) else det
        try:
            return self._index[mask]
        except KeyError:
            raise SectorMismatchError(
                f"determinant {mask:#x} is not in the (M={self.M}, N={self.N}) sector"
            ) from None

    def determinant(self, i: int) -> Determinant:
        return self.dets[i]

    def unit_vector(self, det: Determinant | int) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.index_of(det) if isinstance(det, Determinant) else det] = 1.0
        return v


def build_basis(M: int, N: int) -> FockBasis:
    """All N-electron determinants over M spin orbitals (desk-scale guarded)."""
    return FockBasis(M, N)


def aufbau_reference(M: int, N: int) -> Determinant:
    """Reference determinant with the N lowest-index orbitals occupied."""
    return Determinant((1 << N) - 1, M)


def string_elements(masks: np.ndarray, annihilated: tuple[int, ...],
                    created: np.ndarray):
    """Nonzero matrix elements of the strings ``a+_{c1}..a+_{ck} a_{xk}..a_{x1}``
    over the basis of ascending ``masks``, one string per row ``c`` of the
    ``(n, k)`` array ``created`` (each row ascending), all sharing the
    ascending ``annihilated`` orbitals ``x``: ``(cols, string, rows, signs)``,
    string ``created[string[i]]`` taking basis column ``cols[i]`` to
    ``signs[i]`` times row ``rows[i]``, with ``cols`` ascending.

    The annihilators act in ascending, then the creators in descending index
    order, each contributing the parity of the occupied orbitals below it,
    as the module conventions state; vectorised over the basis columns and
    the strings.  Every reached determinant must lie in the basis.
    """
    ann = _mask(annihilated)
    cols = np.flatnonzero(masks & ann == ann)
    m = masks[cols]
    parity = np.zeros(cols.size, dtype=np.int64)
    for x in annihilated:
        parity += np.bitwise_count(m & ((1 << x) - 1))
        m = m & ~(1 << x)
    jj, string = np.nonzero(m[:, None] & (1 << created).sum(axis=1) == 0)
    new, parity = m[jj], parity[jj]
    for p in created[string].T[::-1]:
        parity = parity + np.bitwise_count(new & ((1 << p) - 1))
        new = new | (1 << p)
    return cols[jj], string, np.searchsorted(masks, new), 1.0 - 2.0 * (parity & 1)


def excitation_pairs(sig: ExcitationSignature, basis: FockBasis
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All determinant pairs coupled by E_sig, for the whole basis at once:
    (low indices ascending, high indices, phases of <high|E_sig|low>), the
    elements of the one string of :func:`string_elements`; the scalar string
    algebra this vectorises is the reference in ``tests/oracles.py``.
    Memoised per ``(sig, basis)``, the basis keyed by identity; every caller
    shares one result, so its arrays are read-only.
    """
    return basis._pairs.get(sig) or excitation_pair_lists((sig,), basis)[0]


def excitation_pair_lists(sigs: Sequence[ExcitationSignature], basis: FockBasis
                          ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`excitation_pairs` of each signature of ``sigs``, in order, for
    a caller that needs many at once.  The signatures not yet memoised are
    built with one :func:`string_elements` call per annihilated tuple
    ``occ``, their created tuples its strings: the same arrays as one call
    per signature, at a fraction of the numpy calls.
    """
    memo = basis._pairs
    todo = {}
    for sig in sigs:
        if sig not in memo:
            todo.setdefault(sig.occ, {})[sig] = None
    for occ, group in todo.items():
        created = np.array([sig.virt for sig in group], dtype=np.int64)
        lows, string, highs, phases = string_elements(
            basis.mask_array, occ, created.reshape(len(group), len(occ)))
        for i, sig in enumerate(group):
            pick = np.flatnonzero(string == i)
            arrays = (lows[pick], highs[pick], phases[pick])
            for arr in arrays:
                arr.flags.writeable = False
            memo[sig] = arrays
    return [memo[sig] for sig in sigs]


class DeterminantTable:
    """How every determinant of a basis relates to one reference.

    Row ``j`` holds the signature ``signatures[j]`` with ``E_sig |ref> =
    phases[j] |det_j>``, its rank, and the hole and particle masks of
    ``det_j`` against ``ref``; the reference row holds the identity, phase
    +1, rank 0.  ``order`` lists the rows in ``(rank, occ, virt)`` order,
    the order of :func:`enumerate_signatures` with the identity first.  The
    class and CAS order of every row follow per partition from the masks
    (:meth:`classes`, :meth:`cas`).  The row arrays are read-only: one table
    is shared per ``(basis, ref)`` (:func:`determinant_table`).
    """

    def __init__(self, basis: FockBasis, ref: Determinant):
        if basis.M != ref.M or basis.N != ref.N:
            raise SectorMismatchError("basis and reference disagree on sector")
        self.basis, self.ref = basis, ref
        self.ref_index = basis.index_of(ref)
        masks, r = basis.mask_array, ref.occupation
        self.holes, self.particles = r & ~masks, masks & ~r
        # E_sig annihilates the holes ascending from ref, then creates the
        # particles descending on the remaining occupation r & masks
        parity = np.zeros(basis.size, dtype=np.int64)
        for p in range(basis.M):
            below = (1 << p) - 1
            parity += (self.holes >> p & 1) * (
                (r & below).bit_count() - np.bitwise_count(self.holes & below))
            parity += (self.particles >> p & 1) * np.bitwise_count(r & masks & below)
        self.phases = 1.0 - 2.0 * (parity & 1)
        self.ranks = np.bitwise_count(self.holes).astype(np.int64)
        bits = lambda m: tuple(p for p in range(basis.M) if m >> p & 1)
        self.signatures = tuple(ExcitationSignature(bits(h), bits(q)) for h, q
                                in zip(self.holes.tolist(), self.particles.tolist()))
        self.order = np.array(sorted(range(basis.size), key=lambda j: (
            self.ranks[j], self.signatures[j].occ, self.signatures[j].virt)), dtype=np.int64)
        for arr in (self.holes, self.particles, self.phases, self.ranks, self.order):
            arr.flags.writeable = False

    def classes(self, part: SpinOrbitalPartition) -> np.ndarray:
        """Reference / internal / external :class:`DetClass` of every row.

        Internal means every hole lies in ``occ_active`` and every particle
        in ``virt_active``; anything touching an inactive orbital is
        external.
        """
        if part.M != self.ref.M:
            raise SectorMismatchError("partition and reference disagree on sector")
        internal = ((self.holes & ~_mask(part.occ_active) == 0)
                    & (self.particles & ~_mask(part.virt_active) == 0))
        classes = np.where(internal, DetClass.INTERNAL, DetClass.EXTERNAL)
        classes[self.ref_index] = DetClass.REFERENCE
        return classes

    def cas(self, part: SpinOrbitalPartition) -> np.ndarray:
        """Rows of the CAS sub-basis: the reference first, then the internal
        determinants in basis order."""
        internal = np.flatnonzero(self.classes(part) == DetClass.INTERNAL)
        return np.concatenate(([self.ref_index], internal))


@lru_cache(maxsize=16)
def determinant_table(basis: FockBasis, ref: Determinant) -> DeterminantTable:
    """The :class:`DeterminantTable` of ``(basis, ref)``, memoised: the
    basis keys by identity, the reference by value."""
    return DeterminantTable(basis, ref)


@lru_cache(maxsize=16)
def inactive_classes(basis: FockBasis, part: SpinOrbitalPartition
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The determinants of ``basis`` grouped by their occupation of the
    inactive orbitals of ``part``, in ascending order of that occupation's
    mask: ``(cls, pos, members)``, determinant ``i`` being entry ``pos[i]``
    of class ``cls[i]``, and row ``c`` of ``members`` listing the
    determinants of class ``c`` ascending, padded with -1 to the largest
    class.  An internal excitation moves electrons among active orbitals
    only, so it never leaves its class.  Memoised, read-only arrays.
    """
    if part.M != basis.M:
        raise SectorMismatchError("partition and basis disagree on sector")
    inactive = _mask(part.occ_inactive + part.virt_inactive)
    _, cls = np.unique(basis.mask_array & inactive, return_inverse=True)
    sizes = np.bincount(cls)
    order = np.argsort(cls, kind="stable")
    pos = np.empty(basis.size, dtype=np.int64)
    pos[order] = np.arange(basis.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    members = np.full((sizes.size, sizes.max()), -1, dtype=np.int64)
    members[cls, pos] = np.arange(basis.size)
    for arr in (cls, pos, members):
        arr.flags.writeable = False
    return cls, pos, members


def enumerate_signatures(ref: Determinant, max_rank: int | None = None,
                         include_identity: bool = False):
    """Yield excitation signatures of the reference in (rank, occ, virt)
    lexicographic order."""
    occ = ref.occupied()
    virt = ref.virtuals()
    top = min(len(occ), len(virt))
    if max_rank is not None:
        top = min(top, max_rank)
    if include_identity:
        yield ExcitationSignature((), ())
    for k in range(1, top + 1):
        for o in combinations(occ, k):
            for v in combinations(virt, k):
                yield ExcitationSignature(o, v)
