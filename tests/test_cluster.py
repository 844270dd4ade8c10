from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab as dl
from ducclab.errors import IntermediateNormalizationError

from conftest import random_state
from oracles import (amplitude_array, anti_hermiticity_defect, apply_excitation,
                     build_projectors, deexcitation_matrix, enumerate_signatures,
                     excitation_matrix, per_signature_excitation_matrix,
                     random_amplitudes_by_enumeration, random_hermitian_hamiltonian)


class TestClusterAnalyze:
    def test_reference_state(self, m6_basis, m6_ref):
        psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        amps = dl.cluster_analyze(psi, m6_ref, m6_basis)
        assert amps.shape == (m6_basis.size,) and not amps.any()

    def test_single_excited_determinant(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((1,), (4,))
        det, ph = apply_excitation(sig, m6_ref)
        c0, c1 = 0.8, 0.3 + 0.2j
        psi = c0 * m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        psi = psi + c1 * ph * m6_basis.unit_vector(m6_basis.index_of(det))
        amps = dl.cluster_analyze(psi, m6_ref, m6_basis)
        assert amps[m6_basis.index_of(det)] == pytest.approx(c1 / c0)
        assert np.count_nonzero(np.abs(amps) > 1e-14) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip_m8(self, m8_basis, m8_ref, m8_table, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        amps = dl.cluster_analyze(psi, m8_ref, m8_basis)
        tmat = excitation_matrix(amps, m8_table)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        recon = scipy.linalg.expm(tmat) @ e_ref
        c0 = psi[m8_basis.index_of(m8_ref)]
        assert np.linalg.norm(recon - psi / c0) < 1e-10

    def test_one_operator_per_rank(self, monkeypatch, m8_basis, m8_ref, m8_table):
        # each rank below the top builds one operator, from its own amplitudes
        # only; the amplitudes match the series of all lower ranks at once
        psi = random_state(m8_basis, np.random.default_rng(4), ref=m8_ref)
        built = []
        init = dl.AmplitudeOperator.__init__

        def recorded(op, t, table):
            built.append(set(table.ranks[np.flatnonzero(t)].tolist()))
            init(op, t, table)
        monkeypatch.setattr(dl.AmplitudeOperator, "__init__", recorded)
        amps = dl.cluster_analyze(psi, m8_ref, m8_basis)
        monkeypatch.undo()
        assert built == [{1}, {2}, {3}]
        table = m8_table
        c = psi / psi[table.ref_index]
        e_ref = m8_basis.unit_vector(table.ref_index)
        for k in range(1, 5):
            lower = np.where(table.ranks < k, amps, 0)
            low = dl.exp_nilpotent(dl.AmplitudeOperator(lower, table), e_ref, m8_basis)
            rows = table.ranks == k
            want = (c[rows] - low[rows]) / table.phases[rows]
            assert np.abs(amps[rows] - want).max() < 1e-12

    def test_intermediate_normalization_guard(self, m6_basis, m6_ref):
        psi = np.zeros(m6_basis.size, dtype=complex)
        psi[-1] = 1.0
        with pytest.raises(IntermediateNormalizationError):
            dl.cluster_analyze(psi, m6_ref, m6_basis)

    def test_cc_residual_for_eigenstate(self, m8_basis, m8_ref, m8_table):
        # T from an exact eigenstate solves the projected equations:
        # Q e^{-T} H e^{T} |ref> = 0 and the reference expectation is E
        rng = np.random.default_rng(11)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        tmat = excitation_matrix(amps, m8_table)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        r = scipy.linalg.expm(-tmat) @ (H.matrix @ (scipy.linalg.expm(tmat) @ e_ref))
        energy = r[m8_basis.index_of(m8_ref)]
        assert abs(energy - vals[0]) < 1e-9
        r[m8_basis.index_of(m8_ref)] = 0.0  # project out the reference
        assert np.linalg.norm(r) < 1e-9

    def test_hybrid_equivalence_at_solution(self, m8_basis, m8_ref, m8_part, m8_table):
        # with exact T = T_int + T_ext the partially transformed equations
        # hold on the reference-plus-internal block
        rng = np.random.default_rng(12)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        t_int, t_ext = dl.split_amplitudes(amps, m8_table, m8_part)
        me = excitation_matrix(t_ext, m8_table)
        mi = excitation_matrix(t_int, m8_table)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        hbar_ext = scipy.linalg.expm(-me) @ H.matrix @ scipy.linalg.expm(me)
        ket = scipy.linalg.expm(mi) @ e_ref
        resid = hbar_ext @ ket - vals[0] * ket
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        pq = projs.P + projs.Q_int
        assert np.linalg.norm(pq @ resid) < 1e-9


class TestExpNilpotent:
    @staticmethod
    def generators(table, part, rng, scale):
        """Excitation matrices of every rank (all, internal, external), their
        negations and the de-excitation transposes, each with its operator."""
        for kind in ("any", "internal", "external"):
            amps = dl.random_amplitudes(table, rng, part, kind, scale)
            op = dl.AmplitudeOperator(amps, table)
            yield excitation_matrix(amps, table), op
            yield -excitation_matrix(amps, table), -op
            yield deexcitation_matrix(amps, table), op.T

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_matches_expm(self, m8_basis, m8_table, m8_part, scale):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=m8_basis.size) + 1j * rng.normal(size=m8_basis.size)
        cols = np.eye(m8_basis.size)[:, m8_table.cas(m8_part)]
        for T, op in self.generators(m8_table, m8_part, rng, scale):
            dense = scipy.linalg.expm(T)
            for V in (vec, cols):
                want = dense @ V
                for gen in (T, op):
                    got = dl.exp_nilpotent(gen, V, m8_basis)
                    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_generator_returns_input(self, m6_basis):
        v = np.arange(m6_basis.size, dtype=complex)
        out = dl.exp_nilpotent(np.zeros((m6_basis.size,) * 2), v, m6_basis)
        assert np.array_equal(out, v)

    def test_right_map_matches_expm(self, m8_basis, m8_table, m8_part):
        # W -> W A climbs the same ladder from the other side
        rng = np.random.default_rng(6)
        V = rng.normal(size=(m8_basis.size,) * 2)
        for A, _ in self.generators(m8_table, m8_part, rng, 0.5):
            got = dl.exp_nilpotent(lambda W: W @ A, V, m8_basis)
            want = V @ scipy.linalg.expm(A)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_never_ends_the_series(self, m6_basis, m6_ref, m6_table, row):
        # a NaN term is not a zero one, wherever the NaN enters
        T = excitation_matrix(dl.random_amplitudes(m6_table, np.random.default_rng(8)),
                              m6_table)
        v = m6_basis.unit_vector(m6_ref)
        v[row] = np.nan
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(T, v, m6_basis)

    def test_rank_zero_amplitude_raises(self, m6_basis, m6_ref, m6_table):
        amps = np.full(m6_basis.size, 0.1)   # every row, the identity's too
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(excitation_matrix(amps, m6_table), e_ref, m6_basis)

    @pytest.mark.parametrize("width", [None, 3])
    def test_identity_amplitude_raises(self, m6_basis, m6_table, width):
        # the reference row alone adds 0.1 I: the series never ends, for one
        # set and for a stack holding it in one column
        t = np.zeros(m6_basis.size if width is None else (m6_basis.size, width))
        t[m6_table.ref_index, ...] = 0.1
        if width is not None:
            t[m6_table.ref_index, :2] = 0.0
        op = dl.AmplitudeOperator(t, m6_table)
        assert np.array_equal(op.lows, op.highs)
        v = np.ones(t.shape)
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(op, v, m6_basis)


class TestAmplitudeStack:
    """A stack of B sets over one signature list acts as its B one-set
    operators do, set b on column b."""

    @staticmethod
    def stack(table, part, rng, kind="any", width=4, scale=0.5):
        sets = [dl.random_amplitudes(table, rng, part, kind, scale) for _ in range(width)]
        return sets, dl.AmplitudeOperator(np.stack(sets, axis=1), table)

    @pytest.mark.parametrize("kind", ["any", "internal", "external"])
    def test_columns_match_one_set_operators(self, m8_basis, m8_table, m8_part, kind):
        rng = np.random.default_rng(60)
        sets, op = self.stack(m8_table, m8_part, rng, kind)
        X = rng.normal(size=(m8_basis.size, 4)) + 1j * rng.normal(size=(m8_basis.size, 4))
        assert op.width == 4 and op.vals.shape == (op.lows.size, 4)
        for got_op, form in ((op, lambda o: o), (op.T, lambda o: o.T), (-op, lambda o: -o),
                             (-op.T, lambda o: -o.T)):
            got = got_op @ X
            for b, amps in enumerate(sets):
                one = form(dl.AmplitudeOperator(amps, m8_table))
                assert np.abs(got[:, b] - one @ X[:, b]).max() <= 1e-15
                assert np.abs(got[:, b] - form(op[b]) @ X[:, b]).max() <= 1e-15
        assert np.array_equal(op[2].toarray(), excitation_matrix(sets[2], m8_table))

    def test_zero_sets_and_zero_signatures(self, m8_basis, m8_table, m8_part):
        # a row zero in every set adds no pair; one zero in some sets keeps
        # its pairs, with zero weights in those columns
        rng = np.random.default_rng(61)
        sets = np.stack([dl.random_amplitudes(m8_table, rng, m8_part, "any", 0.0)
                         for _ in range(3)], axis=1)
        op = dl.AmplitudeOperator(sets, m8_table)
        assert op.vals.shape == (0, 3)
        assert not (op @ np.ones((m8_basis.size, 3))).any()
        row = m8_table.order[1]
        sets[row, 1] = 0.25
        op = dl.AmplitudeOperator(sets, m8_table)
        assert op.lows.size == m8_table.pairs(row)[0].size
        out = op @ np.ones((m8_basis.size, 3))
        assert not out[:, [0, 2]].any() and out[:, 1].any()

    def test_refusals(self, m8_basis, m8_table, m8_part):
        rng = np.random.default_rng(62)
        sets, op = self.stack(m8_table, m8_part, rng, width=3)
        for X in (np.ones(m8_basis.size), np.ones((m8_basis.size, 2)),
                  np.ones((m8_basis.size, 4))):
            with pytest.raises(ValueError):
                op @ X
        with pytest.raises(ValueError, match="table rows"):
            dl.AmplitudeOperator(np.stack(sets)[:, :-1], m8_table)
        with pytest.raises(ValueError, match="table rows"):
            dl.AmplitudeOperator([], m8_table)
        with pytest.raises(TypeError):
            op.toarray()
        with pytest.raises(TypeError):
            op[0][0]

    def test_series_of_a_stack_matches_column_by_column(self, m8_basis, m8_table, m8_part):
        rng = np.random.default_rng(63)
        sets, op = self.stack(m8_table, m8_part, rng, width=5)
        V = rng.normal(size=(m8_basis.size, 5))
        got = dl.exp_nilpotent(op, V, m8_basis)
        for b, amps in enumerate(sets):
            want = dl.exp_nilpotent(dl.AmplitudeOperator(amps, m8_table), V[:, b], m8_basis)
            assert np.abs(got[:, b] - want).max() <= 1e-15 * np.abs(want).max()

    def test_rtol_ends_each_column_at_its_own_term(self, m8_basis, m8_table):
        # a map scaled per column: the columns reach the stop at different
        # terms, and each sums exactly the terms its own series would
        rng = np.random.default_rng(64)
        T = dl.AmplitudeOperator(dl.random_amplitudes(m8_table, rng, scale=0.5), m8_table)
        scales = np.array([1e-9, 1e-3, 0.3, 1.0])
        V = rng.normal(size=(m8_basis.size, 4))
        got = dl.exp_nilpotent(lambda W: (T @ W) * scales, V, m8_basis, rtol=1e-12)
        for b, c in enumerate(scales):
            want = dl.exp_nilpotent(lambda w: c * (T @ w), V[:, b], m8_basis, rtol=1e-12)
            assert np.array_equal(got[:, b], want)


@cache
def _system(M, N, window):
    """One table and partition per sector, so that the table's pair list is
    built once across examples."""
    part = dl.homo_lumo_partition(M, N, *window)
    return dl.determinant_table(dl.build_basis(M, N), part.reference()), part


class TestAmplitudeOperator:
    """:class:`dl.AmplitudeOperator`, its transpose and its negation act as
    the dense per-signature matrix does, on vectors and on blocks of every
    width."""

    @settings(max_examples=60)
    @given(system=st.sampled_from([(4, 2, (1, 1)), (6, 3, (1, 2)), (8, 4, (2, 2))]),
           kind=st.sampled_from(["any", "internal", "external"]), real=st.booleans(),
           complex_x=st.booleans(), width=st.integers(0, 24), seed=st.integers(0, 2**16))
    def test_matches_dense_matrix(self, system, kind, real, complex_x, width, seed):
        table, part = _system(*system)
        basis = table.basis
        rng = np.random.default_rng(seed)
        amps = dl.random_amplitudes(table, rng, part, kind, 0.5, real=real)
        op = dl.AmplitudeOperator(amps, table)
        dense = per_signature_excitation_matrix(amps, table)
        # a vector (width 0), a narrow block and the full width
        for shape in ((basis.size,) if width == 0 else (basis.size, width),
                      (basis.size, basis.size)):
            X = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_x else 0)
            for got_op, mat in ((op, dense), (op.T, dense.T), (-op, -dense),
                                (-op.T, -dense.T)):
                got, want = got_op @ X, mat @ X
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-14 * max(
                    1.0, float(np.abs(want).max(initial=0.0)))
        assert np.array_equal(op.T.toarray(), dense.T)

    @pytest.mark.parametrize("amps", [{}, {dl.ExcitationSignature((0,), (4,)): -0.0}],
                             ids=["empty", "zero-valued"])
    def test_empty_set_gives_zeros_of_the_operand_dtype(self, m8_basis, m8_table, amps):
        op = dl.AmplitudeOperator(amplitude_array(amps, m8_table), m8_table)
        assert op.dtype == np.float64 and op.vals.size == 0
        for X in (np.ones(m8_basis.size), np.ones((m8_basis.size, 3), complex),
                  np.ones((m8_basis.size, m8_basis.size))):
            for got_op in (op, op.T, -op):
                got = got_op @ X
                assert got.dtype == X.dtype and got.shape == X.shape and not got.any()

    def test_transpose_and_negation_are_cached(self, m8_table):
        op = dl.AmplitudeOperator(dl.random_amplitudes(m8_table, np.random.default_rng(0)),
                                  m8_table)
        assert op.T is op.T and -op is -op and -op.T is -op.T
        assert op.T is not op and -op is not op

    def test_refuses_mismatched_operands(self, m8_basis, m8_table):
        op = dl.AmplitudeOperator(dl.random_amplitudes(m8_table, np.random.default_rng(1)),
                                  m8_table)
        for X in (np.ones(m8_basis.size - 1), np.ones((m8_basis.size,) * 3)):
            with pytest.raises(ValueError):
                op @ X
        with pytest.raises(TypeError):
            np.ones((2, m8_basis.size)) @ op

    @pytest.mark.parametrize("shape", [(), (69,), (71,), (70, 2, 2), (69, 3), (1, 70)])
    def test_refuses_amplitude_arrays_of_other_shapes(self, m8_table, shape):
        # the first axis runs over the 70 rows of the table: one set or a stack
        with pytest.raises(ValueError, match="table rows"):
            dl.AmplitudeOperator(np.ones(shape), m8_table)


class TestExcitationMatrix:
    @staticmethod
    def amplitude_set(kind, table, rng):
        real = dl.random_amplitudes(table, rng, scale=0.5, real=True)
        some_zero = dl.random_amplitudes(table, rng)
        some_zero[table.order[1::3]] = 0j
        return {
            "real": real,
            "complex": dl.random_amplitudes(table, rng, scale=0.5),
            # a complex amplitude with a zero imaginary part, against a
            # phase -1, gives -0.0, which a sum onto zeros turns into +0.0
            "complex-real-parts": real.astype(complex),
            # signed zeros add no pair
            "zero-valued": np.where(table.ranks > 0, -0.0, 0.0),
            "some-zero": some_zero,
            "empty": np.zeros(table.basis.size),
            # the reference row's pairs are the diagonal
            "with-identity": amplitude_array({sig: 0.25 for sig in enumerate_signatures(
                table.ref, max_rank=1, include_identity=True)}, table),
        }[kind]

    @pytest.mark.parametrize("kind", ["real", "complex", "complex-real-parts",
                                      "zero-valued", "some-zero", "empty", "with-identity"])
    def test_one_scatter_matches_per_signature_scatters(self, m8_table, kind):
        # the pairs fill the matrix in one scatter bit for bit as the scalar
        # string algebra does one signature and determinant at a time, in
        # the same dtype
        amps = self.amplitude_set(kind, m8_table, np.random.default_rng(3))
        got = dl.AmplitudeOperator(amps, m8_table).toarray()
        want = per_signature_excitation_matrix(amps, m8_table)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestSplitAmplitudes:
    def _amps(self, table, rng):
        return dl.random_amplitudes(table, rng, scale=0.2)

    def test_empty_active_space(self, m6_table):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 0, 0)
        amps = self._amps(m6_table, rng)
        t_int, t_ext = dl.split_amplitudes(amps, m6_table, part)
        assert not t_int.any()
        assert np.array_equal(t_ext, amps)

    def test_full_active_space(self, m6_table):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 3, 3)
        amps = self._amps(m6_table, rng)
        t_int, t_ext = dl.split_amplitudes(amps, m6_table, part)
        assert not t_ext.any()
        assert np.array_equal(t_int, amps)

    def test_mixed_signature_is_external(self, m6_table, m6_part):
        sig = dl.ExcitationSignature((2,), (5,))  # active hole, inactive particle
        amps = amplitude_array({sig: 0.1}, m6_table)
        t_int, t_ext = dl.split_amplitudes(amps, m6_table, m6_part)
        assert not t_int.any() and np.count_nonzero(t_ext) == 1

    def test_union_reproduces(self, m6_table, m6_part):
        rng = np.random.default_rng(1)
        amps = self._amps(m6_table, rng)
        # a stack splits column by column; the identity's row counts as internal
        stack = np.stack([amps, 2 * amps, np.full_like(amps, 0.5)], axis=1)
        for t in (amps, stack):
            t_int, t_ext = dl.split_amplitudes(t, m6_table, m6_part)
            assert t_int.dtype == t_ext.dtype == t.dtype
            assert np.array_equal(t_int + t_ext, t)
            assert not ((t_int != 0) & (t_ext != 0)).any()
            assert np.array_equal(t_int[m6_table.ref_index], t[m6_table.ref_index])


class TestSigmaLowestOrder:
    def test_empty(self, m6_basis, m6_table):
        sigma = dl.sigma_lowest_order(np.zeros(m6_basis.size), m6_table)
        assert np.linalg.norm(sigma) == 0.0

    def test_single_real_amplitude_is_givens_block(self, m6_basis, m6_ref, m6_table):
        theta = 0.3
        sig = dl.ExcitationSignature((2,), (3,))
        det, ph = apply_excitation(sig, m6_ref)
        sigma = dl.sigma_lowest_order(amplitude_array({sig: theta}, m6_table), m6_table)
        i, j = m6_basis.index_of(m6_ref), m6_basis.index_of(det)
        assert sigma[j, i] == pytest.approx(theta * ph)
        assert sigma[i, j] == pytest.approx(-theta * ph)

    def test_anti_hermitian(self, m8_table):
        rng = np.random.default_rng(2)
        amps = dl.random_amplitudes(m8_table, rng, scale=0.4)
        sigma = dl.sigma_lowest_order(amps, m8_table)
        assert anti_hermiticity_defect(sigma) < 1e-14


class TestProjectors:
    def test_full_active_space(self, m6_basis, m6_ref):
        part = dl.homo_lumo_partition(6, 3, 3, 3)
        projs = build_projectors(m6_ref, m6_basis, part)
        assert np.linalg.norm(projs.Q_ext) == 0.0

    def test_empty_active_space(self, m6_basis, m6_ref):
        part = dl.homo_lumo_partition(6, 3, 0, 0)
        projs = build_projectors(m6_ref, m6_basis, part)
        assert np.linalg.norm(projs.Q_int) == 0.0

    def test_resolution_of_identity(self, m8_basis, m8_ref, m8_part):
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        total = projs.P + projs.Q_int + projs.Q_ext
        assert np.allclose(total, np.eye(m8_basis.size))
        assert np.trace(projs.P).real == 1.0
        assert (np.trace(projs.Q_int) + np.trace(projs.Q_ext)).real \
            == m8_basis.size - 1
        assert np.abs(projs.P @ projs.Q_int).max() == 0.0


@pytest.mark.parametrize("M,N,window", [(6, 3, (1, 2)), (8, 4, (2, 2)), (10, 4, (2, 2))])
def test_random_amplitudes_bit_identical_to_enumeration(M, N, window):
    # the rows drawn, in the table's order, are the signatures of the
    # enumeration, in its order: the same draws land on the same signatures
    part = dl.homo_lumo_partition(M, N, *window)
    ref = part.reference()
    table = dl.determinant_table(dl.build_basis(M, N), ref)
    new, old = np.random.default_rng(M), np.random.default_rng(M)
    for kind in ("any", "internal", "external"):
        for real in (False, True):
            for max_rank in (None, 1, 2):
                a = dl.random_amplitudes(table, new, part, kind, 0.3, max_rank, real)
                b = random_amplitudes_by_enumeration(ref, old, part, kind, 0.3, max_rank, real)
                want = amplitude_array(b, table)
                assert a.dtype == (float if real else complex) and a.shape == (table.basis.size,)
                assert np.count_nonzero(a) == len(b)
                assert a.tobytes() == want.astype(a.dtype).tobytes()
    assert new.uniform() == old.uniform()   # both streams consumed alike
