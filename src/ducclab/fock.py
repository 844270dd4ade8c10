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
  occupied-active, virtual-active, virtual-inactive, any disjoint cover of
  the orbitals; only the sweeps ask for an order, the inactive classes at
  the index extremes (``_check_sweep_ordering``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import InvalidDimensionError, SectorMismatchError

#: Desk-scale guard on the orbital count: it bounds the M^4 two-body integral
#: arrays and keeps every occupation mask an int64.  What fits in memory is
#: the run's byte budget (``ducclab.cli.MAX_PEAK_BYTES``).
MAX_ORBITALS = 16


def _mask(orbitals) -> int:
    return sum(1 << p for p in orbitals)


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

    def __post_init__(self):
        names = ("occ_inactive", "occ_active", "virt_active", "virt_inactive")
        for name in names:
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))
        if sorted(p for name in names for p in getattr(self, name)) != list(range(self.M)):
            raise InvalidDimensionError(
                "partition classes must be disjoint and cover 0..M-1 exactly")

    @property
    def M(self) -> int:
        return self.N + len(self.virt_active) + len(self.virt_inactive)

    @property
    def N(self) -> int:
        return len(self.occ_inactive) + len(self.occ_active)

    def reference(self) -> Determinant:
        return Determinant(_mask(self.occ_inactive + self.occ_active), self.M)


def _check_sweep_ordering(part: SpinOrbitalPartition):
    """The non-reintroduction guarantee of the sweeps needs the inactive
    classes at the index extremes: every inactive hole below the active
    holes, every inactive particle above the active particles."""
    if max(part.occ_inactive, default=-1) > min(part.occ_active, default=part.M):
        raise InvalidDimensionError(
            "sweep ordering requires all occ_inactive indices below occ_active")
    if min(part.virt_inactive, default=part.M) < max(part.virt_active, default=-1):
        raise InvalidDimensionError(
            "sweep ordering requires all virt_inactive indices above virt_active")


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

    ``mask_array`` holds the occupation masks as one sorted, read-only int64
    array, the codes below ``1 << M`` with N bits set.  :meth:`index_of`
    finds a mask by binary search, and :meth:`determinant` and iteration
    build :class:`Determinant` records on demand.
    """

    def __init__(self, M: int, N: int):
        sector_size(M, N)
        self.M = M
        self.N = N
        codes = np.arange(1 << M, dtype=np.int64)
        self.mask_array = codes[np.bitwise_count(codes) == N]
        self.mask_array.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.mask_array)

    def __len__(self) -> int:
        return len(self.mask_array)

    def __iter__(self):
        return (Determinant(m, self.M) for m in self.mask_array.tolist())

    def index_of(self, det: Determinant | int) -> int:
        mask = det.occupation if isinstance(det, Determinant) else det
        i = int(np.searchsorted(self.mask_array, mask))
        if i == self.size or self.mask_array[i] != mask:
            raise SectorMismatchError(
                f"determinant {mask:#x} is not in the (M={self.M}, N={self.N}) sector")
        return i

    def determinant(self, i: int) -> Determinant:
        return Determinant(int(self.mask_array[i]), self.M)

    def unit_vector(self, det: Determinant | int) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.index_of(det) if isinstance(det, Determinant) else det] = 1.0
        return v


def sector_size(M: int, N: int) -> int:
    """Number of determinants C(M, N) of the N-electron sector over M spin
    orbitals; refused outside ``0 <= N <= M`` and ``1 <= M <= MAX_ORBITALS``."""
    if not (0 <= N <= M and 1 <= M <= MAX_ORBITALS):
        raise InvalidDimensionError(
            f"need 0 <= N <= M and 1 <= M <= {MAX_ORBITALS}, got M={M}, N={N}")
    return comb(M, N)


def pair_count(M: int, N: int) -> int:
    """Length of the pair list of every :class:`DeterminantTable` of the
    sector: C(N, k) C(M-N, k) rows of rank k, each coupling C(M-2k, N-k)
    determinants (:attr:`DeterminantTable.pair_list`)."""
    return sum(comb(N, k) * comb(M - N, k) * comb(M - 2 * k, N - k)
               for k in range(min(N, M - N) + 1))


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


class DeterminantTable:
    """How every determinant of a basis relates to one reference.

    Row ``j`` holds the signature ``signatures[j]`` with ``E_sig |ref> =
    phases[j] |det_j>``, its rank, and the hole and particle masks of
    ``det_j`` against ``ref``; the reference row holds the identity, phase
    +1, rank 0.  ``order`` lists the rows in ``(rank, occ, virt)``
    lexicographic order, the identity first.  Which rows are external, and
    the CAS order of the others, follow per partition from the masks
    (:meth:`external`, :meth:`cas`), and the determinant pairs that each
    row's signature couples from :attr:`pair_list` (:meth:`pairs`).  An
    amplitude set is an array over the rows, ``(dim,)`` or ``(dim, B)`` for
    a stack of B sets, the reference row holding the identity's amplitude.
    The row arrays are read-only: one table is shared per ``(basis, ref)``
    (:func:`determinant_table`).
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

    def external(self, part: SpinOrbitalPartition) -> np.ndarray:
        """Boolean mask over the rows, True where a row's holes leave
        ``occ_active`` or its particles leave ``virt_active``.  The
        reference row and the internal rows, which make the CAS, are False."""
        if part.M != self.ref.M:
            raise SectorMismatchError("partition and reference disagree on sector")
        return ((self.holes & ~_mask(part.occ_active) != 0)
                | (self.particles & ~_mask(part.virt_active) != 0))

    def cas(self, part: SpinOrbitalPartition) -> np.ndarray:
        """Rows of the CAS sub-basis: the reference first, then the internal
        determinants in basis order."""
        internal = np.flatnonzero(~self.external(part) & (self.ranks > 0))
        return np.concatenate(([self.ref_index], internal))

    @cached_property
    def pair_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every determinant pair that some row's signature couples:
        ``(rows, lows, highs, phases)``, E of row ``rows[i]``'s signature
        taking determinant ``lows[i]`` to ``phases[i]`` times ``highs[i]``;
        the reference row's identity gives the diagonal.  The rows come in
        :attr:`order`, each row's lows ascending (:meth:`pairs`).

        A rank-k signature couples the C(M-2k, N-k) determinants that hold
        its holes and lack its particles, so every row's place is known up
        front: one :func:`string_elements` call per annihilated tuple, its
        created tuples the strings, writes each group straight into place.
        Built once per table, read-only.
        """
        basis, M, N = self.basis, self.basis.M, self.basis.N
        sizes = np.array([comb(M - 2 * k, N - k) for k in range(min(N, M - N) + 1)])
        self._size = sizes[self.ranks]
        self._first = np.empty(basis.size, dtype=np.int64)
        self._first[self.order] = np.cumsum(self._size[self.order]) - self._size[self.order]
        total = int(self._size.sum())
        rows, lows, highs = (np.empty(total, dtype=np.int64) for _ in range(3))
        phases = np.empty(total)
        by_holes = np.argsort(self.holes, kind="stable")
        cuts = np.flatnonzero(np.diff(self.holes[by_holes])) + 1
        for group in np.split(by_holes, cuts):
            occ, size = self.signatures[group[0]].occ, self._size[group[0]]
            created = np.array([self.signatures[j].virt for j in group.tolist()],
                               dtype=np.int64).reshape(len(group), len(occ))
            cols, string, reached, signs = string_elements(basis.mask_array, occ, created)
            by_string = np.argsort(string, kind="stable")   # size pairs per string
            at = (self._first[group][:, None] + np.arange(size)).ravel()
            rows[at] = np.repeat(group, size)
            lows[at], highs[at], phases[at] = (
                cols[by_string], reached[by_string], signs[by_string])
        for arr in (rows, lows, highs, phases):
            arr.flags.writeable = False
        return rows, lows, highs, phases

    def pairs(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ``j``'s pairs of :attr:`pair_list`, as read-only views:
        ``(lows ascending, highs, phases of <high|E_sig|low>)``."""
        _, lows, highs, phases = self.pair_list
        at = slice(self._first[j], self._first[j] + self._size[j])
        return lows[at], highs[at], phases[at]


@lru_cache(maxsize=16)
def determinant_table(basis: FockBasis, ref: Determinant) -> DeterminantTable:
    """The :class:`DeterminantTable` of ``(basis, ref)``, memoised: the
    basis keys by identity, the reference by value."""
    return DeterminantTable(basis, ref)


@lru_cache(maxsize=16)
def inactive_classes(basis: FockBasis, part: SpinOrbitalPartition
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The determinants of ``basis`` grouped by their occupation of the
    inactive orbitals of ``part``, in ascending order of that occupation's
    mask: ``(cls, pos)``, determinant ``i`` being entry ``pos[i]`` of class
    ``cls[i]``, the entries of a class in ascending determinant order.  An
    internal excitation moves electrons among active orbitals only, so it
    never leaves its class.  Memoised, read-only arrays.
    """
    if part.M != basis.M:
        raise SectorMismatchError("partition and basis disagree on sector")
    inactive = _mask(part.occ_inactive + part.virt_inactive)
    _, cls = np.unique(basis.mask_array & inactive, return_inverse=True)
    sizes = np.bincount(cls)
    order = np.argsort(cls, kind="stable")
    pos = np.empty(basis.size, dtype=np.int64)
    pos[order] = np.arange(basis.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    for arr in (cls, pos):
        arr.flags.writeable = False
    return cls, pos


def inactive_class_shape(part: SpinOrbitalPartition) -> tuple[int, int, int]:
    """Sizes of :func:`inactive_classes` for ``part``, counted without a
    basis: the number of classes, the size of the largest, and the number
    of ordered class pairs that an external excitation set with every
    amplitude nonzero couples.

    A class holds h1 holes in ``occ_inactive`` and p1 particles in
    ``virt_inactive`` (C(n_oi, h1) C(n_vi, p1) classes), and its
    determinants spread the remaining e = n_oa + h1 - p1 electrons over the
    active orbitals.  An external excitation adds h2 inactive holes and p2
    inactive particles, not both zero, and active holes ha and particles pa
    with ha + h2 = pa + p2; a determinant of the class with x = min(n_oa, e)
    active holes still occupied admits one when 0 <= ha <= x and pa <=
    n_va - e + x.
    """
    n_oi, n_oa, n_va, n_vi = (len(c) for c in (part.occ_inactive, part.occ_active,
                                               part.virt_active, part.virt_inactive))
    sizes = {(h1, p1): comb(n_oa + n_va, n_oa + h1 - p1)
             for h1 in range(n_oi + 1) for p1 in range(n_vi + 1)
             if 0 <= n_oa + h1 - p1 <= n_oa + n_va}
    count = lambda h1, p1: comb(n_oi, h1) * comb(n_vi, p1)
    coupled = 0
    for h1, p1 in sizes:
        e = n_oa + h1 - p1
        x = min(n_oa, e)
        for h2 in range(n_oi - h1 + 1):
            for p2 in range(n_vi - p1 + 1):
                lowest_ha = max(0, p2 - h2)   # pa = ha + h2 - p2 >= 0
                if (h2 or p2) and lowest_ha <= min(x, n_va - e + x - (h2 - p2)):
                    coupled += count(h1, p1) * comb(n_oi - h1, h2) * comb(n_vi - p1, p2)
    return sum(count(*key) for key in sizes), max(sizes.values()), coupled
