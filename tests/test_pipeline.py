"""Cross-cutting pipeline checks beyond single modules: excited roots,
larger sectors, a three-site chain, and the explicit-Euler flow flag."""

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl

from oracles import random_hermitian_hamiltonian


class TestExcitedStateDecomposition:
    def test_ducc_reproduces_excited_energy(self, m8_basis, m8_ref, m8_part):
        # the decomposition works for any eigenstate with nonzero reference
        # overlap; the matching root is found by eigenvector overlap, not by
        # energy ordering
        rng = np.random.default_rng(123)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        k = 1
        assert abs(vecs[m8_basis.index_of(m8_ref), k]) > 1e-3
        res = dl.decompose_state(vecs[:, k], m8_ref, m8_part, m8_basis)
        assert res.residual < 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, m8_ref, m8_part)
        c_int = heff.restrict(scipy.linalg.expm(res.sigma_int)
                              @ m8_basis.unit_vector(m8_basis.index_of(m8_ref)))
        root = dl.match_root(heff, c_int)
        evals, _ = heff.eigensystem()
        assert abs(evals[root] - vals[k]) < 1e-9
        # compression bound: no downfolded root lies below the true ground
        assert evals[0] > vals[0] - 1e-10

    def test_sescc_reproduces_excited_energy(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(123)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        k = 1
        amps = dl.cluster_analyze(vecs[:, k], m8_ref, m8_basis)
        t_int, t_ext = dl.split_amplitudes(amps, m8_part)
        heff = dl.downfold_sescc(H, t_ext, m8_ref, m8_part)
        target = heff.restrict(scipy.linalg.expm(
            dl.excitation_matrix(t_int, m8_basis))
            @ m8_basis.unit_vector(m8_basis.index_of(m8_ref)))
        root = dl.match_root(heff, target)
        evals, _ = heff.eigensystem()
        assert abs(complex(evals[root]) - vals[k]) < 1e-9


class TestDeskScaleCeiling:
    def test_m10_full_pipeline(self):
        # largest sector the verification battery targets: 252 determinants
        basis = dl.build_basis(10, 5)
        ref = dl.aufbau_reference(10, 5)
        part = dl.homo_lumo_partition(10, 5, 2, 2)
        rng = np.random.default_rng(7)
        H = random_hermitian_hamiltonian(basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], ref, part, basis)
        assert res.residual < 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, ref, part)
        assert abs(heff.eigensystem()[0][0] - vals[0]) < 1e-9
        amps = dl.cluster_analyze(vecs[:, 0], ref, basis)
        _, t_ext = dl.split_amplitudes(amps, part)
        heff_s = dl.downfold_sescc(H, t_ext, ref, part)
        svals, _ = heff_s.eigensystem()
        assert min(abs(complex(v) - vals[0]) for v in svals) < 1e-9


class TestThreeSiteChain:
    def test_full_downfold_pipeline(self):
        basis = dl.build_basis(6, 2)
        H = dl.build_hubbard(3, 1.0, 2.0, basis)
        part = dl.homo_lumo_partition(6, 2, 1, 1)
        ref = part.reference()
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], ref, part, basis)
        assert res.residual < 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, ref, part)
        assert abs(heff.eigensystem()[0][0] - vals[0]) < 1e-9

    def test_imaginary_flow_on_chain(self):
        basis = dl.build_basis(6, 2)
        H = dl.build_hubbard(3, 1.0, 2.0, basis)
        part = dl.homo_lumo_partition(6, 2, 2, 2)
        ref = part.reference()
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], ref, part, basis)
        heff = dl.downfold_ducc(H, res.sigma_ext, ref, part)
        rng = np.random.default_rng(0)
        c0 = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
        out = dl.imaginary_evolve(heff, c0, dtau=0.1, tol=1e-12)
        assert abs(out.energy - vals[0]) < 1e-8


class TestActiveSpaceEdges:
    @pytest.mark.parametrize("no,nv", [(0, 0), (3, 3)])
    def test_empty_and_full_active_windows(self, m6_basis, m6_ref, no, nv):
        # empty window: CAS is the bare reference, the single downfolded
        # matrix element is the exact energy; full window: the sweeps have
        # nothing external to do and the downfolded operator is H itself
        part = dl.homo_lumo_partition(6, 3, no, nv)
        rng = np.random.default_rng(17)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], m6_ref, part, m6_basis)
        assert res.residual < 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, m6_ref, part)
        if (no, nv) == (0, 0):
            assert heff.dim == 1
        else:
            assert heff.dim == m6_basis.size
            assert np.linalg.norm(res.sigma_ext) < 1e-12
        assert abs(heff.eigensystem()[0][0] - vals[0]) < 1e-9


class TestExplicitEulerFlow:
    def test_converges_to_ground_for_small_steps(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(4, 4))
        heff = dl.EffectiveHamiltonian((mat + mat.T).astype(complex) / 2,
                                       np.arange(4), dl.build_basis(4, 1),
                                       "ducc", hermitian=True)
        evals = np.linalg.eigvalsh(heff.matrix)
        res = dl.imaginary_evolve(heff, rng.normal(size=4), dtau=0.01,
                                  tol=1e-13, explicit_euler=True)
        assert res.energy == pytest.approx(evals[0], abs=1e-9)
