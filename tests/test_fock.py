from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab as dl
from ducclab.errors import InvalidDimensionError, SectorMismatchError
from ducclab.shape import inactive_class_shape, pair_count, sector_size

from conftest import count_calls
from oracles import (DetClass, apply_deexcitation, apply_excitation, classify_determinant,
                     enumerate_signatures, excitation_matrix, signature_between)


class TestBuildBasis:
    @pytest.mark.parametrize("M,N,size", [(4, 2, 6), (8, 4, 70), (4, 0, 1), (5, 5, 1)])
    def test_sizes(self, M, N, size):
        assert dl.build_basis(M, N).size == size

    def test_deterministic_lexicographic(self):
        basis = dl.build_basis(5, 2)
        masks = basis.mask_array.tolist()
        assert masks == sorted(sum(1 << p for p in occ) for occ in combinations(range(5), 2))
        assert not basis.mask_array.flags.writeable

    def test_guards(self):
        with pytest.raises(InvalidDimensionError):
            dl.build_basis(4, 5)
        with pytest.raises(InvalidDimensionError):
            dl.build_basis(17, 2)
        with pytest.raises(InvalidDimensionError):
            dl.build_basis(4, -1)
        with pytest.raises(InvalidDimensionError, match="M=0"):
            dl.build_basis(0, 0)

    def test_index_roundtrip(self):
        basis = dl.build_basis(6, 3)
        for j, det in enumerate(basis):
            assert basis.index_of(det) == j
        for mask in (0b1, 1 << 6 | 0b11):   # below and above every mask of the basis
            with pytest.raises(SectorMismatchError):
                basis.index_of(mask)
        with pytest.raises(SectorMismatchError):
            basis.index_of(dl.Determinant(0b1, 6))


class TestApplyExcitation:
    def test_single_excitation_phase(self):
        # occ=(0) -> virt=(2) on |1100> gives |0110> with phase -1
        sig = dl.ExcitationSignature((0,), (2,))
        det = dl.Determinant(0b0011, 4)
        new, ph = apply_excitation(sig, det)
        assert new.bitstring() == "0110"
        assert ph == -1

    def test_annihilating_empty_orbital(self):
        sig = dl.ExcitationSignature((0,), (2,))
        det = dl.Determinant(0b0110, 4)  # orbital 0 empty
        assert apply_excitation(sig, det) is None

    def test_creating_filled_orbital(self):
        sig = dl.ExcitationSignature((0,), (1,))
        det = dl.Determinant(0b0011, 4)
        assert apply_excitation(sig, det) is None

    def test_identity_rank0(self):
        sig = dl.ExcitationSignature((), ())
        for mask in (0b0011, 0b1010):
            det = dl.Determinant(mask, 4)
            new, ph = apply_excitation(sig, det)
            assert new == det and ph == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_excite_then_deexcite_phase(self, data):
        M = data.draw(st.integers(2, 8))
        N = data.draw(st.integers(1, M - 1))
        basis = dl.build_basis(M, N)
        det = basis.determinant(data.draw(st.integers(0, basis.size - 1)))
        k = data.draw(st.integers(1, min(N, M - N)))
        # draw a signature applicable to det
        occ = tuple(sorted(data.draw(st.sets(
            st.sampled_from(det.occupied()), min_size=k, max_size=k))))
        virt = tuple(sorted(data.draw(st.sets(
            st.sampled_from(det.virtuals()), min_size=k, max_size=k))))
        sig = dl.ExcitationSignature(occ, virt)
        up = apply_excitation(sig, det)
        assert up is not None
        excited, ph_up = up
        down = apply_deexcitation(sig, excited)
        assert down is not None
        back, ph_down = down
        assert back == det
        assert ph_up * ph_down == 1


class TestSignatures:
    def test_validation(self):
        with pytest.raises(InvalidDimensionError):
            dl.ExcitationSignature((1, 0), (2, 3))  # not ascending
        with pytest.raises(InvalidDimensionError):
            dl.ExcitationSignature((0,), (1, 2))  # length mismatch
        with pytest.raises(InvalidDimensionError):
            dl.ExcitationSignature((0,), (0,))  # overlap

    def test_signature_between(self):
        ref = dl.Determinant(0b0011, 4)
        det = dl.Determinant(0b1010, 4)
        sig = signature_between(ref, det)
        assert sig.occ == (0,) and sig.virt == (3,)
        new, _ = apply_excitation(sig, ref)
        assert new == det

    def test_enumeration_count(self):
        ref = dl.aufbau_reference(6, 3)
        sigs = list(enumerate_signatures(ref))
        assert len(sigs) == comb(6, 3) - 1  # bijection with non-reference dets


class TestPartition:
    def test_any_disjoint_cover(self):
        # the classes need not be contiguous blocks: only the sweeps ask for
        # an order, and they check their own
        part = dl.SpinOrbitalPartition((0,), (2,), (1,), (3,))
        assert part.M == 4 and part.N == 2
        assert part.reference() == dl.Determinant(0b0101, 4)
        with pytest.raises(TypeError):
            dl.SpinOrbitalPartition((0,), (2,), (1,), (3,), allow_arbitrary=True)

    def test_cover_and_disjoint(self):
        with pytest.raises(InvalidDimensionError):
            dl.SpinOrbitalPartition((0,), (0,), (1,), (2,))
        with pytest.raises(InvalidDimensionError):
            dl.SpinOrbitalPartition((0,), (1,), (2,), (4,))

    def test_homo_lumo(self):
        part = dl.homo_lumo_partition(8, 4, 2, 2)
        assert part.occ_inactive == (0, 1)
        assert part.occ_active == (2, 3)
        assert part.virt_active == (4, 5)
        assert part.virt_inactive == (6, 7)
        assert part.reference() == dl.aufbau_reference(8, 4)
        with pytest.raises(InvalidDimensionError):
            dl.homo_lumo_partition(8, 4, 5, 2)


class TestClassify:
    def test_reference(self, m8_basis, m8_ref, m8_part):
        assert classify_determinant(m8_ref, m8_ref, m8_part) is DetClass.REFERENCE

    def test_internal_hole_active_particle_active(self):
        part = dl.homo_lumo_partition(4, 2, 1, 1)
        ref = part.reference()
        det, _ = apply_excitation(dl.ExcitationSignature((1,), (2,)), ref)
        assert classify_determinant(det, ref, part) is DetClass.INTERNAL

    def test_inactive_hole_is_external(self):
        part = dl.homo_lumo_partition(4, 2, 1, 1)
        ref = part.reference()
        det, _ = apply_excitation(dl.ExcitationSignature((0,), (2,)), ref)
        assert classify_determinant(det, ref, part) is DetClass.EXTERNAL

    def test_sector_mismatch(self, m8_part, m8_ref):
        with pytest.raises(SectorMismatchError):
            classify_determinant(dl.Determinant(0b111, 8), m8_ref, m8_part)

    @pytest.mark.parametrize("no,nv", [(0, 0), (1, 1), (2, 2), (4, 4), (2, 3)])
    def test_partition_counts(self, m8_basis, m8_ref, no, nv):
        part = dl.homo_lumo_partition(8, 4, no, nv)
        counts = {cls: 0 for cls in DetClass}
        for det in m8_basis:
            counts[classify_determinant(det, m8_ref, part)] += 1
        assert counts[DetClass.REFERENCE] == 1
        assert sum(counts.values()) == m8_basis.size
        # all redistributions of the active electrons over active orbitals
        assert counts[DetClass.INTERNAL] == comb(no + nv, no) - 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partition_counts_random_sectors(self, data):
        M = data.draw(st.integers(2, 8))
        N = data.draw(st.integers(1, M - 1))
        no = data.draw(st.integers(0, N))
        nv = data.draw(st.integers(0, M - N))
        basis = dl.build_basis(M, N)
        ref = dl.aufbau_reference(M, N)
        part = dl.homo_lumo_partition(M, N, no, nv)
        counts = {cls: 0 for cls in DetClass}
        for det in basis:
            counts[classify_determinant(det, ref, part)] += 1
        assert counts[DetClass.REFERENCE] == 1
        assert counts[DetClass.INTERNAL] == comb(no + nv, no) - 1
        assert sum(counts.values()) == basis.size


def _interleaved_reference(M: int, N: int) -> dl.Determinant:
    """Every other orbital occupied, so signatures mix low and high indices."""
    return dl.Determinant(sum(1 << p for p in range(0, 2 * N, 2)), M)


class TestDeterminantTable:
    """The vectorised table against the scalar reference implementations."""

    @pytest.mark.parametrize("M,N", [(6, 3), (8, 4), (10, 5), (4, 2)])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_excitation_pairs_match_apply_excitation(self, M, N, interleaved):
        # every row's pairs are those its signature reaches determinant by
        # determinant; the reference row's identity is the diagonal
        basis = dl.build_basis(M, N)
        ref = _interleaved_reference(M, N) if interleaved else dl.aufbau_reference(M, N)
        table = dl.determinant_table(basis, ref)
        for j, sig in enumerate(table.signatures):
            expected = []
            for low, det in enumerate(basis):
                res = apply_excitation(sig, det)
                if res is not None:
                    expected.append((low, basis.index_of(res[0]), res[1]))
            lows, highs, phases = table.pairs(j)
            assert list(zip(lows.tolist(), highs.tolist(), phases.tolist())) == expected
        lows, highs, phases = table.pairs(table.ref_index)
        assert np.array_equal(lows, np.arange(basis.size))
        assert np.array_equal(highs, lows) and (phases == 1.0).all()
        # the list runs through the rows in the table's order
        rows = table.pair_list[0]
        assert np.array_equal(rows, np.repeat(table.order, [
            table.pairs(j)[0].size for j in table.order.tolist()]))

    @pytest.mark.parametrize("part", [
        dl.homo_lumo_partition(8, 4, 2, 2),
        dl.SpinOrbitalPartition((1,), (0, 3, 6), (2, 5), (4, 7)),
    ])
    def test_classify_sector_matches_classify_determinant(self, m8_basis, part):
        ref = part.reference()
        external = dl.determinant_table(m8_basis, ref).external(part)
        classes = [classify_determinant(det, ref, part) for det in m8_basis]
        assert external.dtype == bool
        assert external.tolist() == [cls is DetClass.EXTERNAL for cls in classes]
        assert len(set(classes)) == 3

    def test_classify_sector_mismatch(self, m8_part):
        with pytest.raises(SectorMismatchError):
            dl.determinant_table(dl.build_basis(8, 3), m8_part.reference())
        with pytest.raises(SectorMismatchError):
            dl.determinant_table(dl.build_basis(6, 4), dl.aufbau_reference(6, 4)).external(m8_part)

    @pytest.mark.parametrize("M,N,part", [
        (6, 3, None),
        (8, 4, dl.homo_lumo_partition(8, 4, 2, 2)),
        (10, 5, dl.homo_lumo_partition(10, 5, 1, 3)),
        (8, 4, dl.SpinOrbitalPartition((1,), (0, 3, 6), (2, 5), (4, 7))),
        (10, 4, dl.SpinOrbitalPartition((0, 8), (2, 5), (1, 3), (4, 6, 7, 9))),
    ])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_reference_table_matches_scalar_oracles(self, M, N, part, interleaved):
        basis = dl.build_basis(M, N)
        ref = _interleaved_reference(M, N) if interleaved else dl.aufbau_reference(M, N)
        if part is not None and interleaved:
            # the partition's own (non-aufbau) reference
            ref = part.reference()
        table = dl.determinant_table(basis, ref)
        assert table is dl.determinant_table(basis, dl.Determinant(ref.occupation, M))
        assert table.ref_index == basis.index_of(ref)
        phases = []
        for j, det in enumerate(basis):
            sig = signature_between(ref, det)
            assert table.signatures[j] == sig
            new, ph = apply_excitation(sig, ref)
            assert new == det
            phases.append(ph)
        assert np.array_equal(table.phases, np.array(phases, dtype=float))
        assert np.array_equal(table.ranks, [sig.rank for sig in table.signatures])
        enumerated = list(enumerate_signatures(ref, include_identity=True))
        assert [table.signatures[j] for j in table.order] == enumerated
        for arr in (table.holes, table.particles, table.phases, table.ranks, table.order):
            assert not arr.flags.writeable
        if part is None:
            return
        classes = [classify_determinant(det, ref, part) for det in basis]
        assert table.external(part).tolist() == [cls is DetClass.EXTERNAL for cls in classes]
        internal = [j for j, cls in enumerate(classes) if cls is DetClass.INTERNAL]
        assert np.array_equal(table.cas(part), [basis.index_of(ref)] + internal)

    @pytest.mark.parametrize("M,N", [(6, 3), (8, 4)])
    def test_matrices_match_scalar_loops(self, M, N):
        basis = dl.build_basis(M, N)
        table = dl.determinant_table(basis, _interleaved_reference(M, N))
        amps = dl.random_amplitudes(table, np.random.default_rng(M))
        amps[table.ref_index] = 0.3 - 0.2j
        # the de-excitation form is the transposed operator, coefficients not conjugated
        deexcitation = lambda amps, table: dl.AmplitudeOperator(amps, table).T.toarray()
        for build, apply in ((excitation_matrix, apply_excitation),
                             (deexcitation, apply_deexcitation)):
            expected = np.zeros((basis.size, basis.size), dtype=complex)
            for row in np.flatnonzero(amps):
                for j, det in enumerate(basis):
                    res = apply(table.signatures[row], det)
                    if res is not None:
                        expected[basis.index_of(res[0]), j] += amps[row] * res[1]
            assert np.array_equal(build(amps, table), expected)
        assert np.array_equal(deexcitation(amps, table), excitation_matrix(amps, table).T)

    def test_pair_table_memoised_and_read_only(self, m8_basis, m8_ref, m8_table):
        assert m8_table.pair_list is m8_table.pair_list
        for j, sig in enumerate(m8_table.signatures):
            lows, _, highs, phases = dl.fock.string_elements(
                m8_basis.mask_array, sig.occ, np.array([sig.virt], dtype=np.int64))
            for cached, computed in zip(m8_table.pairs(j), (lows, highs, phases)):
                assert np.array_equal(cached, computed) and cached.dtype == computed.dtype
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[...] = 0
        for arr in m8_table.pair_list:
            assert not arr.flags.writeable
        # a new basis object is a new table: no list leaks across bases
        other = dl.determinant_table(dl.build_basis(8, 4), m8_ref)
        assert other is not m8_table and other.pair_list[1] is not m8_table.pair_list[1]

    @pytest.mark.parametrize("dropped", [0b1001, 0b1100])
    def test_string_elements_refuses_a_determinant_outside_the_basis(self, dropped):
        # a+_3 a_1 reaches masks 0b1001 and 0b1100, the largest: without
        # one of them, a binary search alone gives its image the next row
        # or one past the last
        masks = dl.build_basis(4, 2).mask_array
        with pytest.raises(SectorMismatchError, match=f"{dropped:#x}, outside"):
            dl.fock.string_elements(masks[masks != dropped], (1,),
                                    np.array([[3]], dtype=np.int64))

    @pytest.mark.parametrize("M,N", [(4, 2), (8, 4), (9, 3), (10, 5)])
    def test_pair_lists_batch_per_annihilated_tuple(self, M, N, monkeypatch):
        basis = dl.build_basis(M, N)
        ref = _interleaved_reference(M, N) if M % 2 else dl.aufbau_reference(M, N)
        table = dl.fock.DeterminantTable(basis, ref)
        # one string_elements call per signature, as the rows were built before
        expected = [dl.fock.string_elements(basis.mask_array, sig.occ,
                                            np.array([sig.virt], dtype=np.int64))
                    for sig in table.signatures]
        calls = {}
        count_calls(monkeypatch, dl.fock, "string_elements", calls,
                    key=lambda masks, occ, created: occ)
        table.pair_list
        assert calls == {sig.occ: 1 for sig in table.signatures}
        for j, (lows, _, highs, phases) in enumerate(expected):
            for got, want in zip(table.pairs(j), (lows, highs, phases)):
                assert np.array_equal(got, want) and got.dtype == want.dtype
        # the built list costs no further call
        table.pairs(0), table.pair_list
        assert calls == {sig.occ: 1 for sig in table.signatures}


def _random_cover(M: int, N: int, rng: np.random.Generator) -> dl.SpinOrbitalPartition:
    """A partition whose four classes are a random disjoint cover of the M
    orbitals, N of them occupied in its reference."""
    perm = rng.permutation(M).tolist()
    n_oa, n_va = int(rng.integers(N + 1)), int(rng.integers(M - N + 1))
    occ, virt = perm[:N], perm[N:]
    return dl.SpinOrbitalPartition(occ[n_oa:], occ[:n_oa], virt[:n_va], virt[n_va:])


@pytest.mark.parametrize("M", range(1, 11))
def test_shape_counts_match_the_built_tables(M):
    # the byte budget counts the tables without building them: each closed
    # form of ducclab.shape against the table that fock builds, for random
    # covers and the references they occupy
    rng = np.random.default_rng(M)
    for N in range(M + 1):
        basis = dl.build_basis(M, N)
        assert sector_size(M, N) == basis.size
        for _ in range(4):
            part = _random_cover(M, N, rng)
            table = dl.fock.DeterminantTable(basis, part.reference())
            assert pair_count(M, N) == len(table.pair_list[0])
            cls, pos = dl.fock.inactive_classes(basis, part)
            xe = dl.AmplitudeOperator(table.external(part).astype(float), table).T
            coupled = np.unique(cls[xe.highs] * basis.size + cls[xe.lows]).size
            assert inactive_class_shape(part) == (
                int(cls.max()) + 1, int(pos.max()) + 1, coupled)
