import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab.errors import BranchCutError, InvalidDimensionError, OperatorPropertyError
from ducclab.operators import (_size_stacks, _stacked_unitarity_defect, eigh_direct_sum,
                               exp_anti_hermitian)

from oracles import (anti_hermiticity_defect, hamiltonian_from_terms, hubbard_terms,
                     pairing_terms, random_hermitian_hamiltonian,
                     scalar_hamiltonian_from_integrals, unitarity_defect)


def random_anti_hermitian(basis, rng, scale=0.5):
    a = rng.normal(size=(basis.size, basis.size)) \
        + 1j * rng.normal(size=(basis.size, basis.size))
    g = 0.5 * (a - a.conj().T)
    g *= scale / max(np.linalg.norm(g, 2), 1e-300)
    return g


class TestHamiltonianFromIntegrals:
    def test_core_energy_only(self, dimer_basis):
        M = dimer_basis.M
        ints = dl.IntegralSet(np.zeros((M, M)), np.zeros((M, M, M, M)), core_energy=1.25)
        H = dl.hamiltonian_from_integrals(ints, dimer_basis)
        assert np.allclose(H.matrix, 1.25 * np.eye(dimer_basis.size))

    def test_diagonal_one_body(self):
        basis = dl.build_basis(4, 2)
        eps = np.array([0.1, 0.7, 1.3, 2.9])
        ints = dl.IntegralSet(np.diag(eps), np.zeros((4, 4, 4, 4)))
        H = dl.hamiltonian_from_integrals(ints, basis)
        expected = np.diag([sum(eps[p] for p in det.occupied()) for det in basis])
        assert np.allclose(H.matrix, expected)

    def test_hubbard_cross_check(self, dimer_basis):
        # direct term application, the per-determinant integral build and the
        # vectorised one: identical matrices, element by element
        for L, t, U in ((2, 1.0, 4.0), (3, 0.7, 2.3), (4, 1.0, 0.0), (5, 0.37, 5.9),
                        (6, 1.3, 0.61)):
            basis = dimer_basis if L == 2 else dl.build_basis(2 * L, L)
            H = dl.build_hubbard(L, t, U, basis)
            direct = hamiltonian_from_terms(hubbard_terms(L, t, U), basis)
            assert np.array_equal(H.matrix, direct.matrix)
            ints = dl.hubbard_integrals(L, t, U)
            assert np.array_equal(H.matrix, dl.hamiltonian_from_integrals(ints, basis).matrix)
            assert np.array_equal(H.matrix,
                                  scalar_hamiltonian_from_integrals(ints, basis).matrix)

    @pytest.mark.parametrize("M,N", [(4, 2), (6, 3), (8, 3), (10, 5), (12, 4)])
    def test_matches_per_determinant_reference(self, M, N):
        # random complex antisymmetrised integrals with a core energy
        rng = np.random.default_rng([M, N])
        z = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h = z(M, M)
        h = h + h.conj().T
        v = z(M, M, M, M)
        v = v - v.transpose(1, 0, 2, 3)
        v = v - v.transpose(0, 1, 3, 2)
        v = v + v.transpose(2, 3, 0, 1).conj()
        ints = dl.IntegralSet(h, v, core_energy=rng.normal())
        basis = dl.build_basis(M, N)
        H = dl.hamiltonian_from_integrals(ints, basis)
        assert np.array_equal(H.matrix, scalar_hamiltonian_from_integrals(ints, basis).matrix)
        assert H.hermiticity_defect() < 1e-10

    def test_dimension_mismatch(self, dimer_basis):
        ints = dl.IntegralSet(np.zeros((6, 6)), np.zeros((6, 6, 6, 6)))
        with pytest.raises(InvalidDimensionError):
            dl.hamiltonian_from_integrals(ints, dimer_basis)

    def test_hermitian(self, m6_basis):
        rng = np.random.default_rng(0)
        M = m6_basis.M
        h = rng.normal(size=(M, M))
        h = h + h.T
        chem = rng.normal(size=(M, M, M, M))
        # real chemist integrals carry eightfold permutational symmetry
        chem = chem + chem.transpose(1, 0, 2, 3)
        chem = chem + chem.transpose(0, 1, 3, 2)
        chem = chem + chem.transpose(2, 3, 0, 1)
        H = dl.hamiltonian_from_integrals(dl.IntegralSet.from_chemist(h, chem), m6_basis)
        assert H.hermiticity_defect() < 1e-10


class TestBuildHubbard:
    def test_tight_binding_limit(self, dimer_basis):
        H = dl.build_hubbard(2, 1.0, 0.0, dimer_basis)
        assert np.linalg.eigvalsh(H.matrix)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_analytic_ground_energy(self, dimer_H):
        exact = (4.0 - np.sqrt(16.0 + 16.0)) / 2.0
        assert np.linalg.eigvalsh(dimer_H.matrix)[0] == pytest.approx(exact, abs=1e-12)

    def test_single_site(self):
        basis = dl.build_basis(2, 2)
        H = dl.build_hubbard(1, 0.7, 3.1, basis)
        assert H.matrix.shape == (1, 1)
        assert H.matrix[0, 0] == pytest.approx(3.1)

    def test_wrong_basis(self, m6_basis):
        with pytest.raises(InvalidDimensionError):
            dl.build_hubbard(2, 1.0, 1.0, m6_basis)


class TestPairing:
    def test_matches_integral_construction(self):
        for levels, N, g, spacing in ((3, 2, 0.37, 1.0), (3, 2, 0.41, 0.7),
                                      (4, 4, 0.23, 1.3), (5, 4, 1.1, 0.35)):
            basis = dl.build_basis(2 * levels, N)
            direct = dl.build_pairing(levels, g, basis, spacing=spacing)
            M = 2 * levels
            h = np.zeros((M, M), dtype=complex)
            for p in range(levels):
                h[2 * p, 2 * p] = h[2 * p + 1, 2 * p + 1] = spacing * p
            v = np.zeros((M, M, M, M), dtype=complex)
            for p in range(levels):
                for q in range(levels):
                    up_p, dn_p, up_q, dn_q = 2 * p, 2 * p + 1, 2 * q, 2 * q + 1
                    for (a, b), s1 in (((up_p, dn_p), 1), ((dn_p, up_p), -1)):
                        for (c, d), s2 in (((up_q, dn_q), 1), ((dn_q, up_q), -1)):
                            v[a, b, c, d] = -g * s1 * s2
            ints = dl.IntegralSet(h, v)
            # exact: the vectorised build of these integrals, the
            # per-determinant one and the applied term list, bit for bit
            for other in (dl.hamiltonian_from_integrals(ints, basis),
                          scalar_hamiltonian_from_integrals(ints, basis),
                          hamiltonian_from_terms(pairing_terms(levels, g, spacing), basis)):
                assert np.array_equal(direct.matrix, other.matrix)

    def test_seniority_zero_ground(self):
        # attractive pairing keeps the ground state in the paired sector
        basis = dl.build_basis(4, 2)
        H = dl.build_pairing(2, 0.5, basis)
        vals, vecs = np.linalg.eigh(H.matrix)
        gs = vecs[:, 0]
        for j, det in enumerate(basis):
            occ = det.occupied()
            paired = len(occ) == 2 and occ[0] // 2 == occ[1] // 2
            if not paired:
                assert abs(gs[j]) < 1e-12


class TestLogmUnitary:
    def test_identity(self, dimer_basis):
        L, _ = dl.logm_unitary(np.eye(dimer_basis.size))
        assert np.allclose(L, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, m6_basis, seed):
        rng = np.random.default_rng(seed)
        X = random_anti_hermitian(m6_basis, rng, scale=2.5)  # spectral radius < pi
        U = scipy.linalg.expm(X)
        L, defect = dl.logm_unitary(U)
        assert np.linalg.norm(L - X) < 1e-9
        assert anti_hermiticity_defect(L) < 1e-12
        # the defect it checked is the one the dense product gives
        assert abs(defect - unitarity_defect(U)) < 1e-14

    def test_branch_cut(self, dimer_basis):
        mat = np.eye(dimer_basis.size, dtype=complex)
        mat[0, 0] = -1.0
        with pytest.raises(BranchCutError):
            dl.logm_unitary(mat)

    def test_non_unitary_rejected(self, dimer_basis):
        with pytest.raises(OperatorPropertyError):
            dl.logm_unitary(2.0 * np.eye(dimer_basis.size))


def bfs_blocks(A):
    """Reference block search: one breadth-first search per block."""
    adj = (A != 0) | (A != 0).T
    unseen = np.ones(len(A), dtype=bool)
    blocks = []
    for i in range(len(A)):
        if not unseen[i]:
            continue
        members = np.zeros(len(A), dtype=bool)
        members[i] = True
        frontier = members.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def same_blocks(found, expected):
    return (len(found) == len(expected)
            and all(np.array_equal(f, e) for f, e in zip(found, expected)))


class TestDirectSumBlocks:
    """direct_sum_blocks returns the breadth-first blocks, in the same order."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("density", [0.005, 0.02, 0.06])
    def test_random_sparse_patterns(self, seed, density):
        rng = np.random.default_rng(seed)
        n = 80
        A = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
        A = A + A.T
        assert same_blocks(dl.direct_sum_blocks(A), bfs_blocks(A))

    def test_long_path(self):
        n = 60
        A = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        perm = np.random.default_rng(7).permutation(n)
        for mat in (A, A[np.ix_(perm, perm)]):
            found = dl.direct_sum_blocks(mat)
            assert same_blocks(found, bfs_blocks(mat))
            assert len(found) == 1

    def test_zero_matrix_gives_singletons(self):
        found = dl.direct_sum_blocks(np.zeros((7, 7), dtype=complex))
        assert same_blocks(found, [np.array([i]) for i in range(7)])

    def test_dense_matrix_is_one_block(self):
        A = np.random.default_rng(8).normal(size=(9, 9)) + 1.0
        assert same_blocks(dl.direct_sum_blocks(A), [np.arange(9)])


class TestBlockwiseLogm:
    """logm_unitary and eigh_direct_sum work on the blocks of the exact-zero
    pattern, with equal-size blocks stacked into one Cayley-transform solve
    and one eigh."""

    @staticmethod
    def permuted_direct_sum(blocks, rng):
        n = sum(len(b) for b in blocks)
        U = scipy.linalg.block_diag(*blocks)
        perm = rng.permutation(n)
        return U[np.ix_(perm, perm)], perm

    @staticmethod
    def random_unitary(rng, n, scale=2.5):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = 0.5 * (a - a.conj().T)
        return scipy.linalg.expm(g * (scale / np.linalg.norm(g, 2)))

    @staticmethod
    def unitary_with_angles(rng, angles):
        n = len(angles)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T

    @staticmethod
    def schur_log(U):
        T, Z = scipy.linalg.schur(U, output="complex")
        whole = (Z * np.log(np.diag(T))) @ Z.conj().T
        return 0.5 * (whole - whole.conj().T)

    def test_direct_sum_matches_whole_matrix_schur(self):
        rng = np.random.default_rng(31)
        blocks = [self.random_unitary(rng, n) for n in (9, 6, 4, 1)]
        U, perm = self.permuted_direct_sum(blocks, rng)
        found = sorted(sorted(perm[b].tolist()) for b in dl.direct_sum_blocks(U))
        assert [len(b) for b in sorted(found, key=len)] == [1, 4, 6, 9]
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-13
        assert np.abs(scipy.linalg.expm(L) - U).max() < 1e-12

    def test_stacked_equal_size_blocks_match_schur(self):
        rng = np.random.default_rng(33)
        blocks = [self.random_unitary(rng, n) for n in (4, 4, 4, 2, 2, 2, 1, 1)]
        U, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-13

    def test_degenerate_eigenangles(self):
        rng = np.random.default_rng(34)
        angles = [0.7, 0.7, 0.7, -1.2, -1.2, 2.0, 0.0, 0.0, 0.0, 0.0]
        blocks = [self.unitary_with_angles(rng, angles) for _ in range(2)]
        U, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-13

    def test_eigenangle_near_the_cut(self):
        rng = np.random.default_rng(35)
        theta = 2 * np.arccos(0.5e-3)   # |1 + e^{i theta}| = 1e-3
        blocks = [self.unitary_with_angles(rng, [theta, 0.4, -2.0, 1.1, -0.3])
                  for _ in range(4)]
        U, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-12

    def test_branch_cut_in_one_small_block(self):
        rng = np.random.default_rng(32)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # eigenvalues +1, -1
        U, _ = self.permuted_direct_sum([self.random_unitary(rng, 18), flip], rng)
        with pytest.raises(BranchCutError):
            dl.logm_unitary(U)

    def test_branch_cut_in_one_block_of_a_stack(self):
        rng = np.random.default_rng(36)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        blocks = [self.random_unitary(rng, 2) for _ in range(9)]
        blocks.insert(4, flip)
        U, _ = self.permuted_direct_sum(blocks, rng)
        with pytest.raises(BranchCutError):
            dl.logm_unitary(U)

    def test_branch_cut_within_tolerance(self):
        rng = np.random.default_rng(37)
        theta = 2 * np.arccos(0.5e-11)   # |1 + e^{i theta}| = 1e-11
        blocks = [self.unitary_with_angles(rng, [theta, 0.3, -0.8]),
                  self.unitary_with_angles(rng, [0.5, 1.0, -2.0])]
        U, _ = self.permuted_direct_sum(blocks + [np.eye(14)], rng)
        with pytest.raises(BranchCutError):
            dl.logm_unitary(U)

    def test_blockwise_unitarity_defect_matches_dense(self):
        rng = np.random.default_rng(39)
        blocks = [self.random_unitary(rng, n) for n in (6, 4, 4, 3, 2, 1)]
        blocks[2] = blocks[2] * 1.01   # a defect well above round-off
        U, _ = self.permuted_direct_sum(blocks, rng)
        stacks = [U[stack] for _, stack in _size_stacks(dl.direct_sum_blocks(U))]
        dense = unitarity_defect(U)
        assert dense > 1e-2
        assert abs(_stacked_unitarity_defect(stacks) - dense) < 1e-14

    def test_non_unitary_block_refused_before_any_solve(self, monkeypatch):
        rng = np.random.default_rng(40)
        blocks = [self.random_unitary(rng, n) for n in (5, 5, 3, 2, 2, 2, 1)]
        blocks[4] = blocks[4] + 1e-8 * rng.normal(size=(2, 2))
        U, _ = self.permuted_direct_sum(blocks, rng)
        solves = []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a))
        with pytest.raises(OperatorPropertyError, match="not unitary"):
            dl.logm_unitary(U)
        assert solves == []

    def test_eigh_direct_sum_with_repeated_block_sizes(self):
        rng = np.random.default_rng(38)
        blocks = []
        for n in (5, 3, 3, 5, 3, 1, 1):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            blocks.append(a + a.conj().T)
        A, _ = self.permuted_direct_sum(blocks, rng)
        w, V = eigh_direct_sum(A)
        assert np.abs(A @ V - V * w).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(len(A))).max() < 1e-13
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(A), atol=1e-12)


class TestExpAntiHermitian:
    """e^{S} V by the certified Taylor series, against ``scipy.linalg.expm``."""

    @staticmethod
    def block_diagonal(rng, norm1):
        """A random anti-Hermitian direct sum with ``||S||_1 = norm1``."""
        blocks = []
        for n in (6, 4, 4, 1):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            blocks.append(0.5 * (a - a.conj().T))
        S = scipy.linalg.block_diag(*blocks)
        return S * (norm1 / np.abs(S).sum(axis=0).max())

    @pytest.mark.parametrize("ncols", [1, 4])
    @pytest.mark.parametrize("norm1", [0.0, 0.3, 1.0, 5.0, 40.0])
    def test_matches_expm(self, norm1, ncols):
        # 40 takes 40 substeps of the series
        rng = np.random.default_rng([int(10 * norm1), ncols])
        S = self.block_diagonal(rng, norm1)
        assert np.abs(S).sum(axis=0).max() == pytest.approx(norm1)
        V = rng.normal(size=(len(S), ncols)) + 1j * rng.normal(size=(len(S), ncols))
        V = V[:, 0] if ncols == 1 else V
        want = scipy.linalg.expm(S) @ V
        got = exp_anti_hermitian(S, V)
        assert got.shape == V.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_generator_returns_the_vectors(self):
        V = np.arange(6.0).reshape(3, 2) + 1j
        assert np.array_equal(exp_anti_hermitian(np.zeros((3, 3)), V), V)

    @pytest.mark.parametrize("S", [np.eye(3), np.diag([1j, 1j, np.nan])],
                             ids=["hermitian", "non-finite"])
    def test_non_anti_hermitian_rejected(self, S):
        # the same anti-Hermiticity check as downfold.exp_dexp
        with pytest.raises(OperatorPropertyError, match="not anti-Hermitian"):
            exp_anti_hermitian(S, np.ones(3))


class TestCommutator:
    def test_excitation_signatures_commute(self, m8_basis, m8_ref):
        # pure excitations of one reference form a commutative algebra
        rng = np.random.default_rng(4)
        sigs = list(dl.enumerate_signatures(m8_ref, max_rank=3))
        for _ in range(10):
            s1, s2 = rng.choice(len(sigs), size=2)
            m1 = dl.excitation_matrix(dl.Amplitudes({sigs[s1]: 1.0}), m8_basis)
            m2 = dl.excitation_matrix(dl.Amplitudes({sigs[s2]: 1.0}), m8_basis)
            assert np.abs(m1 @ m2 - m2 @ m1).max() < 1e-14


class TestIntegralValidation:
    def test_non_hermitian_one_body(self):
        h = np.zeros((2, 2))
        h[0, 1] = 1.0
        with pytest.raises(OperatorPropertyError):
            dl.IntegralSet(h, np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("where", ["one-body", "two-body", "core"])
    def test_non_finite_refused(self, where):
        # refused before the symmetry checks, whose comparisons against NaN
        # would all pass
        h, v, core = np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.0
        if where == "one-body":
            h[0, 0] = np.inf
        elif where == "two-body":
            v[0, 1, 0, 1] = np.nan
        else:
            core = np.nan
        with pytest.raises(OperatorPropertyError, match="non-finite"):
            dl.IntegralSet(h, v, core)

    def test_non_antisymmetric_two_body(self):
        v = np.zeros((2, 2, 2, 2))
        v[0, 1, 0, 1] = 1.0  # missing the antisymmetric images
        with pytest.raises(OperatorPropertyError):
            dl.IntegralSet(np.zeros((2, 2)), v)


class TestFcidump:
    def test_round_trip(self, tmp_path, dimer_basis):
        ints = dl.hubbard_integrals(2, 1.0, 4.0)
        lines = ["&FCI NORB=4,NELEC=2,MS2=0,", " ISYM=1,", "&END"]
        M = ints.M
        h = np.zeros((M, M))
        for i in range(2):
            for sp in (0, 1):
                p, q = 2 * i + sp, 2 * (i + 1) + sp
                if q < M:
                    h[p, q] = h[q, p] = -1.0
        for i in range(2):
            up, dn = 2 * i, 2 * i + 1
            lines.append(f"4.0 {up + 1} {up + 1} {dn + 1} {dn + 1}")
        for p in range(M):
            for q in range(p + 1):
                if h[p, q] != 0.0:
                    lines.append(f"{h[p, q]} {p + 1} {q + 1} 0 0")
        lines.append("0.5 0 0 0 0")
        path = tmp_path / "FCIDUMP"
        path.write_text("\n".join(lines) + "\n")
        read, nelec = dl.read_fcidump(path)
        assert nelec == 2
        assert read.core_energy == 0.5
        H_file = dl.hamiltonian_from_integrals(read, dimer_basis)
        H_ref = dl.hamiltonian_from_integrals(
            dl.hubbard_integrals(2, 1.0, 4.0), dimer_basis)
        assert np.allclose(H_file.matrix, H_ref.matrix + 0.5 * np.eye(dimer_basis.size),
                           atol=1e-12)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "FCIDUMP"
        path.write_text("1.0 1 1 0 0\n")
        with pytest.raises(OperatorPropertyError):
            dl.read_fcidump(path)


class TestRandomHamiltonian:
    def test_reference_dominance(self, m8_basis):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        assert H.hermiticity_defect() < 1e-12
        gs = np.linalg.eigh(H.matrix)[1][:, 0]
        assert abs(gs[0]) > 0.5  # aufbau reference is index 0 in mask order
