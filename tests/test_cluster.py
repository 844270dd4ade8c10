import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab.errors import IntermediateNormalizationError

from conftest import random_state
from oracles import (anti_hermiticity_defect, apply_excitation, build_projectors,
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
        psi += c1 * ph * m6_basis.unit_vector(m6_basis.index_of(det))
        amps = dl.cluster_analyze(psi, m6_ref, m6_basis)
        assert amps[sig] == pytest.approx(c1 / c0)
        assert sum(1 for _, t in amps if abs(t) > 1e-14) == 1

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
        """Excitation matrices of every rank (all, internal, external) and
        the de-excitation transposes."""
        for kind in ("any", "internal", "external"):
            amps = dl.random_amplitudes(ref, rng, part, kind, scale)
            yield dl.excitation_matrix(amps, basis)
            yield -dl.excitation_matrix(amps, basis)
            yield dl.deexcitation_matrix(amps, basis)

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_matches_expm(self, m8_basis, m8_ref, m8_part, scale):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=m8_basis.size) + 1j * rng.normal(size=m8_basis.size)
        cols = np.eye(m8_basis.size)[:, dl.determinant_table(m8_basis, m8_ref).cas(m8_part)]
        for T in self.generators(m8_basis, m8_ref, m8_part, rng, scale):
            dense = scipy.linalg.expm(T)
            for V in (vec, cols):
                got = dl.exp_nilpotent(T, V, m8_basis)
                want = dense @ V
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_generator_returns_input(self, m6_basis):
        v = np.arange(m6_basis.size, dtype=complex)
        out = dl.exp_nilpotent(np.zeros((m6_basis.size,) * 2), v, m6_basis)
        assert np.array_equal(out, v)

    def test_rank_zero_amplitude_raises(self, m6_basis, m6_ref):
        amps = dl.Amplitudes({sig: 0.1 for sig in dl.enumerate_signatures(
            m6_ref, include_identity=True)})
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        with pytest.raises(ArithmeticError):
            dl.exp_nilpotent(dl.excitation_matrix(amps, m6_basis), e_ref, m6_basis)


class TestSplitAmplitudes:
    def _amps(self, ref, rng):
        return dl.random_amplitudes(ref, rng, scale=0.2)

    def test_empty_active_space(self, m6_ref):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 0, 0)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, part)
        assert len(t_int) == 0
        assert t_ext.entries == amps.entries

    def test_full_active_space(self, m6_ref):
        rng = np.random.default_rng(0)
        part = dl.homo_lumo_partition(6, 3, 3, 3)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, part)
        assert len(t_ext) == 0
        assert t_int.entries == amps.entries

    def test_mixed_signature_is_external(self, m6_part):
        sig = dl.ExcitationSignature((2,), (5,))  # active hole, inactive particle
        t_int, t_ext = dl.split_amplitudes(dl.Amplitudes({sig: 0.1}), m6_part)
        assert len(t_int) == 0 and len(t_ext) == 1

    def test_union_reproduces(self, m6_ref, m6_part):
        rng = np.random.default_rng(1)
        amps = self._amps(m6_ref, rng)
        t_int, t_ext = dl.split_amplitudes(amps, m6_part)
        merged = {**t_int.entries, **t_ext.entries}
        assert merged == amps.entries


class TestSigmaLowestOrder:
    def test_empty(self, m6_basis):
        sigma = dl.sigma_lowest_order(dl.Amplitudes({}), m6_basis)
        assert np.linalg.norm(sigma) == 0.0

    def test_single_real_amplitude_is_givens_block(self, m6_basis, m6_ref):
        theta = 0.3
        sig = dl.ExcitationSignature((2,), (3,))
        det, ph = apply_excitation(sig, m6_ref)
        sigma = dl.sigma_lowest_order(dl.Amplitudes({sig: theta}), m6_basis)
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
    return dl.Amplitudes(entries)


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
                    assert list(a.entries) == list(b.entries)
                    assert [(t.real.hex(), t.imag.hex()) for t in a.entries.values()] \
                        == [(t.real.hex(), t.imag.hex()) for t in b.entries.values()]
    assert new.uniform() == old.uniform()   # both streams consumed alike
