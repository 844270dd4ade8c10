"""Cross-cutting pipeline checks beyond single modules: excited roots,
larger sectors and a three-site chain."""

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl

from oracles import excitation_matrix, random_hermitian_hamiltonian


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

    def test_sescc_reproduces_excited_energy(self, m8_basis, m8_ref, m8_part, m8_table):
        rng = np.random.default_rng(123)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        k = 1
        amps = dl.cluster_analyze(vecs[:, k], m8_ref, m8_basis)
        t_int, t_ext = dl.split_amplitudes(amps, m8_table, m8_part)
        heff = dl.downfold_sescc(H, t_ext, m8_ref, m8_part)
        target = heff.restrict(scipy.linalg.expm(
            excitation_matrix(t_int, m8_table))
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
        _, t_ext = dl.split_amplitudes(amps, dl.determinant_table(basis, ref), part)
        heff_s = dl.downfold_sescc(H, t_ext, ref, part)
        svals, _ = heff_s.eigensystem()
        assert min(abs(complex(v) - vals[0]) for v in svals) < 1e-9


class TestThreeSiteChain:
    def test_full_downfold_pipeline(self):
        basis = dl.build_basis(6, 2)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(3, 1.0, 2.0), basis)
        part = dl.homo_lumo_partition(6, 2, 1, 1)
        ref = part.reference()
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], ref, part, basis)
        assert res.residual < 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, ref, part)
        assert abs(heff.eigensystem()[0][0] - vals[0]) < 1e-9

    def test_imaginary_flow_on_chain(self):
        basis = dl.build_basis(6, 2)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(3, 1.0, 2.0), basis)
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


class SpinSector(dl.FockBasis):
    """The determinants of the (M, N) sector with ``two_sz`` more spin-up
    (even) than spin-down (odd) orbitals occupied, in ascending mask order."""

    def __init__(self, M: int, N: int, two_sz: int):
        super().__init__(M, N)
        up = np.bitwise_count(self.mask_array & sum(1 << p for p in range(0, M, 2)))
        self.mask_array = self.mask_array[2 * up.astype(np.int64) - N == two_sz]
        self.mask_array.flags.writeable = False


class TestSpinSector:
    """Hubbard L = 5, N = 5 on its 2 S_z = +1 sector (dim 100) against the
    full space (dim 252): H conserves S_z, so every sector quantity is the
    full-space one on the sector, the full-space state being the sector's
    embedded."""

    @pytest.fixture(scope="class")
    def spaces(self):
        ints = dl.hubbard_integrals(5, 1.0, 4.0)
        sector, full = SpinSector(10, 5, 1), dl.build_basis(10, 5)
        assert sector.size == 100
        return (sector, dl.hamiltonian_from_integrals(ints, sector),
                full, dl.hamiltonian_from_integrals(ints, full),
                np.searchsorted(full.mask_array, sector.mask_array))

    @pytest.fixture(scope="class")
    def part(self):
        return dl.homo_lumo_partition(10, 5, 2, 2)

    def test_hamiltonian_and_pair_list_are_the_full_ones_on_the_sector(self, spaces, part):
        sector, H, full, H_full, at = spaces
        assert np.array_equal(H.matrix, H_full.matrix[np.ix_(at, at)])
        ref = part.reference()
        full_table = dl.determinant_table(full, ref)
        rows, lows, highs, phases = full_table.pair_list
        inside = np.zeros(full.size, dtype=bool)
        inside[at] = True
        keep = inside[rows] & inside[lows]
        assert inside[highs[keep]].all()
        local = np.full(full.size, -1)
        local[at] = np.arange(sector.size)
        table = dl.determinant_table(sector, ref)
        expected = (local[rows[keep]], local[lows[keep]], local[highs[keep]], phases[keep])
        for got, want in zip(table.pair_list, expected, strict=True):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        for j in range(sector.size):
            f_lows, f_highs, f_phases = full_table.pairs(at[j])
            k = inside[f_lows]
            for got, want in zip(table.pairs(j), (local[f_lows[k]], local[f_highs[k]],
                                                  f_phases[k]), strict=True):
                assert np.array_equal(got, want)

    def test_a_spin_flip_is_refused_not_misplaced(self, spaces):
        # h[0,1] moves an electron between the two spin orbitals of site 0,
        # out of the sector: its images must not take a neighbour's row
        ints = dl.hubbard_integrals(5, 1.0, 4.0)
        h = ints.one_body.copy()
        h[0, 1] = h[1, 0] = 0.3
        with pytest.raises(dl.SectorMismatchError, match="outside the basis"):
            dl.hamiltonian_from_integrals(dl.IntegralSet(h, ints.two_body), spaces[0])

    def test_ground_state_pipeline_matches_full_space(self, spaces, part):
        sector, H, full, H_full, at = spaces
        ref = part.reference()
        vals, vecs = np.linalg.eigh(H.matrix)
        psi_full = np.zeros(full.size)
        psi_full[at] = vecs[:, 0]
        amps = dl.cluster_analyze(vecs[:, 0], ref, sector)
        amps_full = dl.cluster_analyze(psi_full, ref, full)
        assert np.array_equal(amps, amps_full[at])
        assert not np.delete(amps_full, at).any()
        res = dl.decompose_state(vecs[:, 0], ref, part, sector)
        assert res.residual <= 1e-9
        heff = dl.downfold_ducc(H, res.sigma_ext, ref, part)
        assert heff.dim == 4
        assert abs(heff.eigensystem()[0][0] - vals[0]) <= 1e-9
        _, t_ext = dl.split_amplitudes(amps, dl.determinant_table(sector, ref), part)
        svals, _ = dl.downfold_sescc(H, t_ext, ref, part).eigensystem()
        assert min(abs(complex(v) - vals[0]) for v in svals) <= 1e-9

    def test_quench_from_the_reference_matches_full_space(self, spaces, part):
        sector, H, full, H_full, at = spaces
        ref = part.reference()
        study = dl.downfolded_quench(H, sector.unit_vector(ref), 0.02, 20, ref, part)
        study_full = dl.downfolded_quench(H_full, full.unit_vector(ref), 0.02, 20, ref, part)
        assert np.abs(study.states - study_full.states[:, at]).max() <= 1e-12
        assert np.abs(np.delete(study_full.states, at, axis=1)).max() <= 1e-12
        assert abs(study.rk4_deviation.max() - study_full.rk4_deviation.max()) <= 1e-12

    def test_ecc_forms_and_bch_hold(self, spaces, part):
        sector, H, _, _, _ = spaces
        ref = part.reference()
        table = dl.determinant_table(sector, ref)
        rng = np.random.default_rng(5)
        mk = lambda kind: dl.random_amplitudes(table, rng, part, kind, 0.1)
        for _ in range(5):
            m = dl.EccMatrices.build(table, t_int=mk("internal"), t_ext=mk("external"),
                                     x_int=mk("internal"), x_ext=mk("external"),
                                     dt_int=mk("internal"), dt_ext=mk("external"))
            v1, v2, _ = dl.eval_ldt_forms(m, ref)
            w1, w2 = dl.eval_lh_forms(m, H, ref)
            direct, series, _ = dl.x_int_ext_bch(m, part)
            assert abs(v1 - v2) < 1e-10 and abs(w1 - w2) < 1e-10
            assert np.abs(direct - series).max() < 1e-12
