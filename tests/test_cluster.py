from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab as dl
from ducclab.errors import IntermediateNormalizationError

from conftest import random_state
from oracles import (anti_hermiticity_defect, apply_excitation, build_projectors,
                     deexcitation_matrix, per_signature_excitation_matrix,
                     random_hermitian_hamiltonian)


class TestClusterAnalyze:
    def test_reference_state(self, m6_basis, m6_ref):
        psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        amps = dl.cluster_analyze(psi, m6_ref, m6_basis)
        assert len(amps) == 0

    def test_single_excited_determinant(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((1,), (4,))
        det, ph = apply_excitation(sig, m6_ref)
        c0, c1 = 0.8, 0.3 + 0.2j
        psi = c0 * m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        psi = psi + c1 * ph * m6_basis.unit_vector(m6_basis.index_of(det))
        amps = dl.cluster_analyze(psi, m6_ref, m6_basis)
        assert amps[sig] == pytest.approx(c1 / c0)
        assert sum(1 for t in amps.values() if abs(t) > 1e-14) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip_m8(self, m8_basis, m8_ref, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        amps = dl.cluster_analyze(psi, m8_ref, m8_basis)
        tmat = dl.excitation_matrix(amps, m8_basis)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        recon = scipy.linalg.expm(tmat) @ e_ref
        c0 = psi[m8_basis.index_of(m8_ref)]
        assert np.linalg.norm(recon - psi / c0) < 1e-10

    def test_one_operator_per_rank(self, monkeypatch, m8_basis, m8_ref):
        # each rank below the top builds one operator, from its own amplitudes
        # only; the amplitudes match the series of all lower ranks at once
        psi = random_state(m8_basis, np.random.default_rng(4), ref=m8_ref)
        built = []
        init = dl.AmplitudeOperator.__init__

        def recorded(op, amps, basis):
            built.append({sig.rank for sig in amps})
            init(op, amps, basis)
        monkeypatch.setattr(dl.AmplitudeOperator, "__init__", recorded)
        amps = dl.cluster_analyze(psi, m8_ref, m8_basis)
        monkeypatch.undo()
        assert built == [{1}, {2}, {3}]
        table = dl.determinant_table(m8_basis, m8_ref)
        c = psi / psi[table.ref_index]
        e_ref = m8_basis.unit_vector(table.ref_index)
        for k in range(1, 5):
            lower = {sig: t for sig, t in amps.items() if sig.rank < k}
            low = dl.exp_nilpotent(dl.AmplitudeOperator(lower, m8_basis), e_ref, m8_basis)
            rows = [j for j in range(m8_basis.size) if table.ranks[j] == k]
            want = (c[rows] - low[rows]) / table.phases[rows]
            got = [amps[table.signatures[j]] for j in rows]
            assert np.abs(np.subtract(got, want)).max() < 1e-12

    def test_intermediate_normalization_guard(self, m6_basis, m6_ref):
        psi = np.zeros(m6_basis.size, dtype=complex)
        psi[-1] = 1.0
        with pytest.raises(IntermediateNormalizationError):
            dl.cluster_analyze(psi, m6_ref, m6_basis)

    def test_cc_residual_for_eigenstate(self, m8_basis, m8_ref):
        # T from an exact eigenstate solves the projected equations:
        # Q e^{-T} H e^{T} |ref> = 0 and the reference expectation is E
        rng = np.random.default_rng(11)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        tmat = dl.excitation_matrix(amps, m8_basis)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        r = scipy.linalg.expm(-tmat) @ (H.matrix @ (scipy.linalg.expm(tmat) @ e_ref))
        energy = r[m8_basis.index_of(m8_ref)]
        assert abs(energy - vals[0]) < 1e-9
        r[m8_basis.index_of(m8_ref)] = 0.0  # project out the reference
        assert np.linalg.norm(r) < 1e-9

    def test_hybrid_equivalence_at_solution(self, m8_basis, m8_ref, m8_part):
        # with exact T = T_int + T_ext the partially transformed equations
        # hold on the reference-plus-internal block
        rng = np.random.default_rng(12)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        t_int, t_ext = dl.split_amplitudes(amps, m8_part)
        me = dl.excitation_matrix(t_ext, m8_basis)
        mi = dl.excitation_matrix(t_int, m8_basis)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        hbar_ext = scipy.linalg.expm(-me) @ H.matrix @ scipy.linalg.expm(me)
        ket = scipy.linalg.expm(mi) @ e_ref
        resid = hbar_ext @ ket - vals[0] * ket
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        pq = projs.P + projs.Q_int
        assert np.linalg.norm(pq @ resid) < 1e-9


class TestExpNilpotent:
    @staticmethod
    def generators(basis, ref, part, rng, scale):
        """Excitation matrices of every rank (all, internal, external), their
        negations and the de-excitation transposes, each with its operator."""
        for kind in ("any", "internal", "external"):
            amps = dl.random_amplitudes(ref, rng, part, kind, scale)
            op = dl.AmplitudeOperator(amps, basis)
            yield dl.excitation_matrix(amps, basis), op
            yield -dl.excitation_matrix(amps, basis), -op
            yield deexcitation_matrix(amps, basis), op.T

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_matches_expm(self, m8_basis, m8_ref, m8_part, scale):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=m8_basis.size) + 1j * rng.normal(size=m8_basis.size)
        cols = np.eye(m8_basis.size)[:, dl.determinant_table(m8_basis, m8_ref).cas(m8_part)]
        for T, op in self.generators(m8_basis, m8_ref, m8_part, rng, scale):
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

    def test_right_map_matches_expm(self, m8_basis, m8_ref, m8_part):
        # W -> W A climbs the same ladder from the other side
        rng = np.random.default_rng(6)
        V = rng.normal(size=(m8_basis.size,) * 2)
        for A, _ in self.generators(m8_basis, m8_ref, m8_part, rng, 0.5):
            got = dl.exp_nilpotent(lambda W: W @ A, V, m8_basis)
            want = V @ scipy.linalg.expm(A)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_never_ends_the_series(self, m6_basis, m6_ref, row):
        # a NaN term is not a zero one, wherever the NaN enters
        T = dl.excitation_matrix(dl.random_amplitudes(m6_ref, np.random.default_rng(8)),
                                 m6_basis)
        v = m6_basis.unit_vector(m6_ref)
        v[row] = np.nan
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(T, v, m6_basis)

    def test_rank_zero_amplitude_raises(self, m6_basis, m6_ref):
        amps = {sig: 0.1 for sig in dl.enumerate_signatures(m6_ref, include_identity=True)}
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(dl.excitation_matrix(amps, m6_basis), e_ref, m6_basis)


class TestAmplitudeStack:
    """A stack of B sets over one signature list acts as its B one-set
    operators do, set b on column b."""

    @staticmethod
    def stack(ref, part, basis, rng, kind="any", width=4, scale=0.5):
        sets = [dl.random_amplitudes(ref, rng, part, kind, scale) for _ in range(width)]
        return sets, dl.AmplitudeOperator(sets, basis)

    @pytest.mark.parametrize("kind", ["any", "internal", "external"])
    def test_columns_match_one_set_operators(self, m8_basis, m8_ref, m8_part, kind):
        rng = np.random.default_rng(60)
        sets, op = self.stack(m8_ref, m8_part, m8_basis, rng, kind)
        X = rng.normal(size=(m8_basis.size, 4)) + 1j * rng.normal(size=(m8_basis.size, 4))
        assert op.width == 4 and op.vals.shape == (op.lows.size, 4)
        for got_op, form in ((op, lambda o: o), (op.T, lambda o: o.T), (-op, lambda o: -o),
                             (-op.T, lambda o: -o.T)):
            got = got_op @ X
            for b, amps in enumerate(sets):
                one = form(dl.AmplitudeOperator(amps, m8_basis))
                assert np.abs(got[:, b] - one @ X[:, b]).max() <= 1e-15
                assert np.abs(got[:, b] - form(op[b]) @ X[:, b]).max() <= 1e-15
        assert np.array_equal(op[2].toarray(), dl.excitation_matrix(sets[2], m8_basis))

    def test_zero_sets_and_zero_signatures(self, m8_basis, m8_ref, m8_part):
        # a signature zero in every set adds no pair; one zero in some sets
        # keeps its pairs, with zero weights in those columns
        rng = np.random.default_rng(61)
        sets = [dl.random_amplitudes(m8_ref, rng, m8_part, "any", 0.0) for _ in range(3)]
        op = dl.AmplitudeOperator(sets, m8_basis)
        assert op.vals.shape == (0, 3)
        assert not (op @ np.ones((m8_basis.size, 3))).any()
        sig = next(iter(sets[1]))
        sets[1] = sets[1] | {sig: 0.25}
        op = dl.AmplitudeOperator(sets, m8_basis)
        assert op.lows.size == dl.excitation_pairs(sig, m8_basis)[0].size
        out = op @ np.ones((m8_basis.size, 3))
        assert not out[:, [0, 2]].any() and out[:, 1].any()

    def test_refusals(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(62)
        sets, op = self.stack(m8_ref, m8_part, m8_basis, rng, width=3)
        for X in (np.ones(m8_basis.size), np.ones((m8_basis.size, 2)),
                  np.ones((m8_basis.size, 4))):
            with pytest.raises(ValueError):
                op @ X
        with pytest.raises(ValueError, match="one signature list"):
            dl.AmplitudeOperator([sets[0], dict(reversed(sets[1].items()))], m8_basis)
        with pytest.raises(ValueError, match="one signature list"):
            dl.AmplitudeOperator([], m8_basis)
        with pytest.raises(TypeError):
            op.toarray()
        with pytest.raises(TypeError):
            op[0][0]

    def test_series_of_a_stack_matches_column_by_column(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(63)
        sets, op = self.stack(m8_ref, m8_part, m8_basis, rng, width=5)
        V = rng.normal(size=(m8_basis.size, 5))
        got = dl.exp_nilpotent(op, V, m8_basis)
        for b, amps in enumerate(sets):
            want = dl.exp_nilpotent(dl.AmplitudeOperator(amps, m8_basis), V[:, b], m8_basis)
            assert np.abs(got[:, b] - want).max() <= 1e-15 * np.abs(want).max()

    def test_rtol_ends_each_column_at_its_own_term(self, m8_basis, m8_ref):
        # a map scaled per column: the columns reach the stop at different
        # terms, and each sums exactly the terms its own series would
        rng = np.random.default_rng(64)
        T = dl.AmplitudeOperator(dl.random_amplitudes(m8_ref, rng, scale=0.5), m8_basis)
        scales = np.array([1e-9, 1e-3, 0.3, 1.0])
        V = rng.normal(size=(m8_basis.size, 4))
        got = dl.exp_nilpotent(lambda W: (T @ W) * scales, V, m8_basis, rtol=1e-12)
        for b, c in enumerate(scales):
            want = dl.exp_nilpotent(lambda w: c * (T @ w), V[:, b], m8_basis, rtol=1e-12)
            assert np.array_equal(got[:, b], want)


@cache
def _system(M, N, window):
    """One basis and partition per sector, so that the memoised pair lists
    are shared across examples."""
    return dl.build_basis(M, N), dl.homo_lumo_partition(M, N, *window)


class TestAmplitudeOperator:
    """:class:`dl.AmplitudeOperator`, its transpose and its negation act as
    the dense per-signature matrix does, on vectors and on blocks of every
    width."""

    @settings(max_examples=60)
    @given(system=st.sampled_from([(4, 2, (1, 1)), (6, 3, (1, 2)), (8, 4, (2, 2))]),
           kind=st.sampled_from(["any", "internal", "external"]), real=st.booleans(),
           complex_x=st.booleans(), width=st.integers(0, 24), seed=st.integers(0, 2**16))
    def test_matches_dense_matrix(self, system, kind, real, complex_x, width, seed):
        basis, part = _system(*system)
        rng = np.random.default_rng(seed)
        amps = dl.random_amplitudes(part.reference(), rng, part, kind, 0.5, real=real)
        op = dl.AmplitudeOperator(amps, basis)
        dense = per_signature_excitation_matrix(amps, basis)
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

    @pytest.mark.parametrize("amps", [{}, {dl.ExcitationSignature((0,), (4,)): 0.0}],
                             ids=["empty", "zero-valued"])
    def test_empty_set_gives_zeros_of_the_operand_dtype(self, m8_basis, amps):
        op = dl.AmplitudeOperator(amps, m8_basis)
        assert op.dtype == np.float64 and op.vals.size == 0
        for X in (np.ones(m8_basis.size), np.ones((m8_basis.size, 3), complex),
                  np.ones((m8_basis.size, m8_basis.size))):
            for got_op in (op, op.T, -op):
                got = got_op @ X
                assert got.dtype == X.dtype and got.shape == X.shape and not got.any()

    def test_transpose_and_negation_are_cached(self, m8_basis, m8_ref):
        op = dl.AmplitudeOperator(dl.random_amplitudes(m8_ref, np.random.default_rng(0)),
                                  m8_basis)
        assert op.T is op.T and -op is -op and -op.T is -op.T
        assert op.T is not op and -op is not op

    def test_refuses_mismatched_operands(self, m8_basis, m8_ref):
        op = dl.AmplitudeOperator(dl.random_amplitudes(m8_ref, np.random.default_rng(1)),
                                  m8_basis)
        for X in (np.ones(m8_basis.size - 1), np.ones((m8_basis.size,) * 3)):
            with pytest.raises(ValueError):
                op @ X
        with pytest.raises(TypeError):
            np.ones((2, m8_basis.size)) @ op


class TestExcitationMatrix:
    @staticmethod
    def amplitude_set(kind, ref, rng):
        real = dl.random_amplitudes(ref, rng, scale=0.5, real=True)
        sigs = list(real)
        return {
            "real": real,
            "complex": dl.random_amplitudes(ref, rng, scale=0.5),
            # a complex amplitude with a zero imaginary part, against a
            # phase -1, gives -0.0, which a sum onto zeros turns into +0.0
            "complex-real-parts": {sig: complex(t) for sig, t in real.items()},
            "zero-valued": dict.fromkeys(sigs, 0.0),
            "some-zero": {sig: (t if k % 3 else 0j) for k, (sig, t)
                          in enumerate(dl.random_amplitudes(ref, rng).items())},
            "empty": {},
            # the rank-0 signature's pairs are the diagonal
            "with-identity": {sig: 0.25 for sig in dl.enumerate_signatures(
                ref, max_rank=1, include_identity=True)},
        }[kind]

    @pytest.mark.parametrize("kind", ["real", "complex", "complex-real-parts",
                                      "zero-valued", "some-zero", "empty", "with-identity"])
    def test_one_scatter_matches_per_signature_scatters(self, m8_basis, m8_ref, kind):
        # the concatenated pairs fill the matrix bit for bit as the loop
        # of one scatter per signature does, in the same dtype
        amps = self.amplitude_set(kind, m8_ref, np.random.default_rng(3))
        got = dl.excitation_matrix(amps, m8_basis)
        want = per_signature_excitation_matrix(amps, m8_basis)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestSplitAmplitudes:
    def _amps(self, ref, rng):
        return dl.random_amplitudes(ref, rng, scale=0.2)

    def test_empty_active_space(self, m6_ref):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 0, 0)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, part)
        assert len(t_int) == 0
        assert t_ext == amps

    def test_full_active_space(self, m6_ref):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 3, 3)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, part)
        assert len(t_ext) == 0
        assert t_int == amps

    def test_mixed_signature_is_external(self, m6_part):
        sig = dl.ExcitationSignature((2,), (5,))  # active hole, inactive particle
        t_int, t_ext = dl.split_amplitudes({sig: 0.1}, m6_part)
        assert len(t_int) == 0 and len(t_ext) == 1

    def test_union_reproduces(self, m6_ref, m6_part):
        rng = np.random.default_rng(1)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, m6_part)
        merged = {**t_int, **t_ext}
        assert merged == amps


class TestSigmaLowestOrder:
    def test_empty(self, m6_basis):
        sigma = dl.sigma_lowest_order({}, m6_basis)
        assert np.linalg.norm(sigma) == 0.0

    def test_single_real_amplitude_is_givens_block(self, m6_basis, m6_ref):
        theta = 0.3
        sig = dl.ExcitationSignature((2,), (3,))
        det, ph = apply_excitation(sig, m6_ref)
        sigma = dl.sigma_lowest_order({sig: theta}, m6_basis)
        i, j = m6_basis.index_of(m6_ref), m6_basis.index_of(det)
        assert sigma[j, i] == pytest.approx(theta * ph)
        assert sigma[i, j] == pytest.approx(-theta * ph)

    def test_anti_hermitian(self, m8_basis, m8_ref):
        rng = np.random.default_rng(2)
        amps = dl.random_amplitudes(m8_ref, rng, scale=0.4)
        sigma = dl.sigma_lowest_order(amps, m8_basis)
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


def _random_amplitudes_by_enumeration(ref, rng, part=None, kind="any", scale=0.1,
                                      max_rank=None, real=False):
    """Signature-by-signature draw over a fresh enumeration, the reference
    for the memoised table of :func:`dl.random_amplitudes`."""
    entries = {}
    for sig in dl.enumerate_signatures(ref, max_rank=max_rank):
        if kind != "any" and (kind == "internal") != part.is_internal_signature(sig):
            continue
        val = rng.uniform(-scale, scale)
        if not real:
            val = val + 1j * rng.uniform(-scale, scale)
        entries[sig] = complex(val)
    return entries


@pytest.mark.parametrize("M,N,window", [(6, 3, (1, 2)), (8, 4, (2, 2)), (10, 4, (2, 2))])
def test_random_amplitudes_bit_identical_to_enumeration(M, N, window):
    part = dl.homo_lumo_partition(M, N, *window)
    ref = part.reference()
    new, old = np.random.default_rng(M), np.random.default_rng(M)
    for kind in ("any", "internal", "external"):
        for real in (False, True):
            for max_rank in (None, 1, 2):
                for _ in range(2):   # the second call reads the memoised table
                    a = dl.random_amplitudes(ref, new, part, kind, 0.3, max_rank, real)
                    b = _random_amplitudes_by_enumeration(ref, old, part, kind, 0.3,
                                                          max_rank, real)
                    assert list(a) == list(b)
                    assert [(t.real.hex(), t.imag.hex()) for t in a.values()] \
                        == [(t.real.hex(), t.imag.hex()) for t in b.values()]
    assert new.uniform() == old.uniform()   # both streams consumed alike
