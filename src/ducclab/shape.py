"""What ``ducclab validate`` checks a config with, without numpy: the
determinant and partition records, the sector counts, and an FCIDUMP's line
pass.  This is their one home: every other module imports them from here.
The conventions of :mod:`ducclab.fock` hold here."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import comb, isfinite
from typing import NamedTuple

from .errors import InvalidDimensionError, OperatorPropertyError

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


def aufbau_reference(M: int, N: int) -> Determinant:
    """Reference determinant with the N lowest-index orbitals occupied."""
    return Determinant((1 << N) - 1, M)


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


_FCIDUMP_HEADER = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE)
_FCIDUMP_NELEC = re.compile(r"NELEC\s*=\s*(\d+)", re.IGNORECASE)


class FcidumpLines(NamedTuple):
    """An FCIDUMP file's header and entries by 1-based index: one-electron
    ``(i, j)`` with ``i <= j``, two-electron by the canonical member of the
    symmetry class (each pair ascending, then the pairs); ``nelec`` -1 if absent."""

    norb: int
    nelec: int
    one_body: dict
    two_body: dict
    core: float


def class_members(i, j, k, l) -> tuple:
    """The index quadruples of the real symmetry class of (ij|kl)."""
    return ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i))


def _class_key(i, j, k, l) -> tuple[int, int, int, int]:
    ij = (i, j) if i <= j else (j, i)
    kl = (k, l) if k <= l else (l, k)
    return ij + kl if ij <= kl else kl + ij


def read_fcidump_lines(path) -> FcidumpLines:
    """The line pass of :func:`ducclab.operators.read_fcidump`: of the
    header only NORB, refused outside 1..``MAX_ORBITALS``, and NELEC are
    read.  One pass over the data lines in file order parses, checks and
    stores each line, so the first faulty line is the one refused, by name,
    and of the lines that set one entry the last wins; then the values whose
    antisymmetrized integrals overflow are refused."""
    with open(path) as fh:
        text = fh.read()
    m = _FCIDUMP_HEADER.search(text)
    if m is None:
        raise OperatorPropertyError("FCIDUMP header lacks NORB")
    norb = int(m.group(1))
    if not 1 <= norb <= MAX_ORBITALS:
        raise InvalidDimensionError(f"FCIDUMP NORB={norb} outside 1..{MAX_ORBITALS} orbitals")
    m = _FCIDUMP_NELEC.search(text)
    nelec = int(m.group(1)) if m else -1

    lines = text.splitlines()
    # the data follow the header's "&END" or "/" line; a one-line header
    # has neither
    start = next((k + 1 for k, line in enumerate(lines)
                  if "&END" in line.upper() or line.strip() == "/"), 1)
    one_body, two_body = {}, {}
    core = 0.0
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 5:
            if parts:
                raise OperatorPropertyError(f"malformed FCIDUMP line: {line!r}")
            continue
        val = float(parts[0].replace("D", "E").replace("d", "e"))
        if not isfinite(val):
            raise OperatorPropertyError(f"non-finite FCIDUMP value: {line!r}")
        i, j, k, l = int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])
        if not (i or j or k or l):
            core = val
            continue
        if not (0 < i <= norb and 0 < j <= norb
                and (k == l == 0 or 0 < k <= norb and 0 < l <= norb)):
            raise OperatorPropertyError(f"FCIDUMP index outside 1..NORB={norb}: {line!r}")
        if k:   # k and l are both 0 on a one-electron line, both past 0 on a two-electron one
            two_body[_class_key(i, j, k, l)] = val
        else:
            one_body[(i, j) if i <= j else (j, i)] = val
    # <pq||rs> = (pr|qs) - (ps|qr) pairs member (a, b, c, d) of a class with
    # the class of (a, d, c, b); only a value above max / 2 can overflow it
    for key, val in two_body.items():
        if abs(val) > sys.float_info.max / 2:
            for a, b, c, d in class_members(*key):
                if not isfinite(val - two_body.get(_class_key(a, d, c, b), 0.0)):
                    raise OperatorPropertyError("integrals have non-finite entries")
    return FcidumpLines(norb, nelec, one_body, two_body, core)
