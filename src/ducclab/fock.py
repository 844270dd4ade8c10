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
  the index extremes (``shape._check_sweep_ordering``).

The determinant and partition records live in :mod:`ducclab.shape`, without numpy.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import SectorMismatchError
from .shape import Determinant, ExcitationSignature, SpinOrbitalPartition, _mask, sector_size


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


def build_basis(M: int, N: int) -> FockBasis:
    """All N-electron determinants over M spin orbitals (desk-scale guarded)."""
    return FockBasis(M, N)


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
    the strings.  A string that reaches a determinant outside the basis is
    refused with a :class:`SectorMismatchError` naming its mask.
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
    rows = np.searchsorted(masks, new)
    outside = masks.take(rows, mode="clip") != new
    if outside.any():
        raise SectorMismatchError(
            f"a string reaches determinant {int(new[outside][0]):#x}, outside the basis")
    return cols[jj], string, rows, 1.0 - 2.0 * (parity & 1)


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

        The rows that share their holes stand together in :attr:`order`.
        One :func:`string_elements` call per annihilated tuple, its rows'
        created tuples the strings, finds their pairs, and a stable sort by
        string lays them out row by row.  Only the pairs found are listed,
        so any basis that the reached determinants stay in serves.  Built
        once per table, read-only.
        """
        cuts = np.flatnonzero(np.diff(self.holes[self.order])) + 1
        found = []
        for group in np.split(self.order, cuts):
            occ = self.signatures[group[0]].occ
            created = np.array([self.signatures[j].virt for j in group.tolist()],
                               dtype=np.int64).reshape(len(group), len(occ))
            cols, string, reached, signs = string_elements(self.basis.mask_array, occ, created)
            by_string = np.argsort(string, kind="stable")
            found.append([arr[by_string] for arr in (group[string], cols, reached, signs)])
        pair_list = tuple(np.concatenate(arrs) for arrs in zip(*found))
        for arr in pair_list:
            arr.flags.writeable = False
        return pair_list

    @cached_property
    def _pair_slices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, stop)`` of each row's pairs in :attr:`pair_list`."""
        counts = np.bincount(self.pair_list[0], minlength=self.basis.size)
        stop = np.cumsum(counts[self.order])[np.argsort(self.order)]
        return stop - counts, stop

    def pairs(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ``j``'s pairs of :attr:`pair_list`, as read-only views:
        ``(lows ascending, highs, phases of <high|E_sig|low>)``."""
        _, lows, highs, phases = self.pair_list
        first, stop = self._pair_slices
        at = slice(first[j], stop[j])
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
