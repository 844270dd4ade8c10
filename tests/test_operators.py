import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab as dl
from ducclab import operators
from ducclab.errors import BranchCutError, InvalidDimensionError, OperatorPropertyError
from ducclab.operators import (MAX_GENERATOR_NORM1, _size_stacks, _stacked_unitarity_defect,
                               exp_anti_hermitian)
from ducclab.shape import read_fcidump_lines

from oracles import (amplitude_array, anti_hermiticity_defect, enumerate_signatures,
                     excitation_matrix, hamiltonian_from_terms, hubbard_terms,
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
            ints = dl.hubbard_integrals(L, t, U)
            H = dl.hamiltonian_from_integrals(ints, basis)
            direct = hamiltonian_from_terms(hubbard_terms(L, t, U), basis)
            assert np.array_equal(H.matrix, direct.matrix)
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
        assert H.matrix.dtype == np.complex128
        assert np.array_equal(H.matrix, scalar_hamiltonian_from_integrals(ints, basis).matrix)
        assert H.hermiticity_defect() < 1e-10

    def test_real_systems_are_float64(self, tmp_path, dimer_basis):
        # Hubbard, pairing and FCIDUMP integrals are real, and so are their
        # arrays and the sector matrix they build
        fcidump = tmp_path / "FCIDUMP"
        fcidump.write_text("&FCI NORB=4,NELEC=2,&END\n0.3 1 1 2 2\n-1.0 1 3 0 0\n0.5 0 0 0 0\n")
        for ints in (dl.hubbard_integrals(2, 1.0, 4.0), dl.pairing_integrals(2, 0.4),
                     dl.read_fcidump(fcidump)[0]):
            assert ints.one_body.dtype == ints.two_body.dtype == np.float64
            assert dl.hamiltonian_from_integrals(ints, dimer_basis).matrix.dtype == np.float64

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


class TestApply:
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "columns"])
    def test_real_hamiltonian_on_complex_vectors(self, shape):
        # one real product on the float view of X: the values of the complex
        # product, without the complex copy of H that numpy's mixed product makes
        basis = dl.build_basis(10, 5)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(5, 1.0, 4.0), basis)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(basis.size, *shape)) + 1j * rng.normal(size=(basis.size, *shape))
        X /= np.linalg.norm(X, axis=0)
        tracemalloc.start()
        try:
            HX = H @ X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(HX - H.matrix.astype(complex) @ X).max() < 1e-15
        assert peak < H.matrix.nbytes


class TestBuildHubbard:
    def test_tight_binding_limit(self, dimer_basis):
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        assert np.linalg.eigvalsh(H.matrix)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_analytic_ground_energy(self, dimer_H):
        exact = (4.0 - np.sqrt(16.0 + 16.0)) / 2.0
        assert np.linalg.eigvalsh(dimer_H.matrix)[0] == pytest.approx(exact, abs=1e-12)

    def test_single_site(self):
        basis = dl.build_basis(2, 2)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(1, 0.7, 3.1), basis)
        assert H.matrix.shape == (1, 1)
        assert H.matrix[0, 0] == pytest.approx(3.1)

    def test_wrong_basis(self, m6_basis):
        with pytest.raises(InvalidDimensionError):
            dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 1.0), m6_basis)


class TestPairing:
    def test_matches_integral_construction(self):
        for levels, N, g, spacing in ((3, 2, 0.37, 1.0), (3, 2, 0.41, 0.7),
                                      (4, 4, 0.23, 1.3), (5, 4, 1.1, 0.35)):
            basis = dl.build_basis(2 * levels, N)
            direct = dl.hamiltonian_from_integrals(
                dl.pairing_integrals(levels, g, spacing), basis)
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
        H = dl.hamiltonian_from_integrals(dl.pairing_integrals(2, 0.5), basis)
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
    """logm_unitary works on the blocks of the exact-zero pattern, with
    equal-size blocks stacked into one eigh: of ``(2I - U - U^+)/4``, real
    or complex, or after one Cayley-transform solve for a stack with an
    eigenvalue nearer than 1 to -1."""

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
    def random_orthogonal(rng, n, scale=2.0):
        """e^g for a random real antisymmetric g of 2-norm ``scale`` (the
        identity for n = 1): its eigenangles reach ``scale``, so at 2.0 every
        ``|1+lam| >= 2 cos(1) = 1.08`` and the real route is taken."""
        a = rng.normal(size=(n, n))
        g = 0.5 * (a - a.T)
        return scipy.linalg.expm(g * (scale / (np.linalg.norm(g, 2) or 1.0)))

    @staticmethod
    def unitary_with_angles(rng, angles):
        n = len(angles)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T

    @staticmethod
    def orthogonal_with_angles(rng, angles, n):
        """Real orthogonal n x n with one eigenvalue pair e^{+-i angle} per
        angle and +1 for the rest."""
        D = np.eye(n)
        for j, t in enumerate(angles):
            D[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[np.cos(t), -np.sin(t)],
                                                   [np.sin(t), np.cos(t)]]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ D @ q.T

    @staticmethod
    def record_cayley(monkeypatch):
        """The shapes of the block stacks that take the Cayley path."""
        shapes, cayley = [], operators._cayley_log

        def recording(B):
            shapes.append(B.shape)
            return cayley(B)
        monkeypatch.setattr(operators, "_cayley_log", recording)
        return shapes

    @staticmethod
    def schur_log(U):
        T, Z = scipy.linalg.schur(U, output="complex")
        whole = (Z * np.log(np.diag(T))) @ Z.conj().T
        return 0.5 * (whole - whole.conj().T)

    # complex blocks; real blocks on the real route; real blocks whose
    # eigenangles reach 2.5 (|1+lam| = 0.63), which take the Cayley path
    # except the 1 x 1 ones (the identity)
    KINDS = (("complex", random_unitary, {}), ("real", random_orthogonal, {}),
             ("real near the cut", random_orthogonal, {"scale": 2.5}))

    def test_direct_sum_matches_whole_matrix_schur(self, monkeypatch):
        rng = np.random.default_rng(31)
        cayley = self.record_cayley(monkeypatch)
        for kind, make, kw in self.KINDS:
            cayley.clear()
            blocks = [make(rng, n, **kw) for n in (9, 6, 4, 1)]
            U, perm = self.permuted_direct_sum(blocks, rng)
            found = sorted(sorted(perm[b].tolist()) for b in dl.direct_sum_blocks(U))
            assert [len(b) for b in sorted(found, key=len)] == [1, 4, 6, 9]
            L, _ = dl.logm_unitary(U)
            assert L.dtype == U.dtype
            assert len(cayley) == {"complex": 4, "real": 0, "real near the cut": 3}[kind]
            assert np.abs(L - self.schur_log(U)).max() < 1e-13
            assert np.abs(scipy.linalg.expm(L) - U).max() < 1e-12

    def test_stacked_equal_size_blocks_match_schur(self, monkeypatch):
        rng = np.random.default_rng(33)
        cayley = self.record_cayley(monkeypatch)
        for kind, make, kw in self.KINDS:
            cayley.clear()
            blocks = [make(rng, n, **kw) for n in (4, 4, 4, 2, 2, 2, 1, 1)]
            U, _ = self.permuted_direct_sum(blocks, rng)
            L, _ = dl.logm_unitary(U)
            assert L.dtype == U.dtype
            assert sorted(cayley) == {"complex": [(2, 1, 1), (3, 2, 2), (3, 4, 4)], "real": [],
                                      "real near the cut": [(3, 2, 2), (3, 4, 4)]}[kind]
            assert np.abs(L - self.schur_log(U)).max() < 1e-13

    def test_degenerate_eigenangles(self, monkeypatch):
        rng = np.random.default_rng(34)
        angles = [0.7, 0.7, 0.7, -1.2, -1.2, 2.0, 0.0, 0.0, 0.0, 0.0]
        blocks = [self.unitary_with_angles(rng, angles) for _ in range(2)]
        U, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-13
        # real: repeated planes, and the +-1.2 pairs of two planes share
        # one eigenvalue of (2I - Q - Q^T)/4
        cayley = self.record_cayley(monkeypatch)
        blocks = [self.orthogonal_with_angles(rng, [0.7, 0.7, -1.2, 1.2, 2.0], 14)
                  for _ in range(2)]
        Q, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(Q)
        assert L.dtype == np.float64 and cayley == []
        assert np.abs(L - self.schur_log(Q)).max() < 1e-13

    def test_complex_stacks_off_the_cut_take_the_half_angle_log(self, monkeypatch):
        # every |1+lam| >= 2 cos(1) = 1.08: +-theta pairs, which share one
        # eigenvalue of (2I - U - U^+)/4, eigenvalue 1, and blocks of one size
        rng = np.random.default_rng(43)
        angles = ([0.7, -0.7, 2.0, -1.2, 0.0, 0.0], [1.1, -1.1, 0.3], [-2.0, 0.5], [0.9])
        blocks = [self.unitary_with_angles(rng, a) for a in angles for _ in range(3)]
        blocks.append(np.eye(3, dtype=complex))
        U, _ = self.permuted_direct_sum(blocks, rng)
        assert min(abs(1 + np.exp(1j * t)) for a in angles for t in a) \
            >= operators.LOG_MIN_DISTANCE
        cayley = self.record_cayley(monkeypatch)
        L, _ = dl.logm_unitary(U)
        assert L.dtype == complex and cayley == []
        assert np.abs(L - self.schur_log(U)).max() < 1e-13
        assert np.abs(scipy.linalg.expm(L) - U).max() < 1e-13

    def test_eigenangle_near_the_cut(self, monkeypatch):
        rng = np.random.default_rng(35)
        theta = 2 * np.arccos(0.5e-3)   # |1 + e^{i theta}| = 1e-3
        blocks = [self.unitary_with_angles(rng, [theta, 0.4, -2.0, 1.1, -0.3])
                  for _ in range(4)]
        U, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(U)
        assert np.abs(L - self.schur_log(U)).max() < 1e-12
        # a real stack this near the cut takes the Cayley path
        cayley = self.record_cayley(monkeypatch)
        blocks = [self.orthogonal_with_angles(rng, [theta, 0.4, -2.0], 7) for _ in range(4)]
        Q, _ = self.permuted_direct_sum(blocks, rng)
        L, _ = dl.logm_unitary(Q)
        assert L.dtype == np.float64 and cayley == [(4, 7, 7)]
        assert np.abs(L - self.schur_log(Q)).max() < 1e-12

    @pytest.mark.parametrize("distance", [1.5, 0.5])
    def test_real_log_matches_complex_input_across_the_handover(self, monkeypatch, distance):
        # |1+lam| = 1.5: the real route, equal to the Cayley log to round-off;
        # 0.5: the Cayley path on a complex copy, whose real part it returns
        rng = np.random.default_rng(41)
        theta = 2 * np.arccos(distance / 2)
        blocks = [self.orthogonal_with_angles(rng, [theta, 0.4, -1.0], 7) for _ in range(3)]
        Q, _ = self.permuted_direct_sum(blocks, rng)
        Lc, defect_c = dl.logm_unitary(Q.astype(complex))
        cayley = self.record_cayley(monkeypatch)
        L, defect = dl.logm_unitary(Q)
        assert L.dtype == np.float64
        assert cayley == ([] if distance > operators.LOG_MIN_DISTANCE else [(3, 7, 7)])
        assert abs(defect - defect_c) < 1e-15
        if cayley:
            assert np.array_equal(L, Lc.real)
        else:
            assert np.abs(L - Lc).max() < 1e-14

    @pytest.mark.parametrize("distance", [1.0, 1e-1, 1e-3, 1e-5])
    def test_real_log_no_further_from_q_than_the_cayley_log(self, distance):
        # the real formula errs by eps/|1+lam| (8e-13 in expm(L) - Q at
        # 1e-3): the handover keeps the Cayley accuracy near the cut
        rng = np.random.default_rng(42)
        theta = 2 * np.arccos(distance / 2)
        Q = scipy.linalg.block_diag(*(self.orthogonal_with_angles(rng, [theta, 0.4, -1.0], 7)
                                      for _ in range(8)))
        L, _ = dl.logm_unitary(Q)
        Lc, _ = dl.logm_unitary(Q.astype(complex))
        error = np.abs(scipy.linalg.expm(L) - Q).max()
        assert error <= np.abs(scipy.linalg.expm(Lc.real) - Q).max()
        assert error < 1e-14

    def test_branch_cut_in_one_small_block(self):
        rng = np.random.default_rng(32)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +1, -1
        for make, dtype in ((self.random_unitary, complex), (self.random_orthogonal, float)):
            U, _ = self.permuted_direct_sum([make(rng, 18), flip.astype(dtype)], rng)
            with pytest.raises(BranchCutError):
                dl.logm_unitary(U)

    def test_branch_cut_in_one_block_of_a_stack(self):
        rng = np.random.default_rng(36)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        for make, dtype in ((self.random_unitary, complex), (self.random_orthogonal, float)):
            blocks = [make(rng, 2) for _ in range(9)]
            blocks.insert(4, flip.astype(dtype))
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
        blocks = [self.orthogonal_with_angles(rng, [theta, 0.3], 5),
                  self.orthogonal_with_angles(rng, [0.5, 1.0], 5)]
        Q, _ = self.permuted_direct_sum(blocks + [np.eye(14)], rng)
        with pytest.raises(BranchCutError):
            dl.logm_unitary(Q)

    def test_one_block_log_holds_u_p_and_the_eigh_outputs_alone(self):
        # a one-block input is its own stack: beside U, only P and eigh's V
        # are allocated at the eigh, and V, K and K V after it
        rng = np.random.default_rng(44)
        Q = self.random_orthogonal(rng, 400)   # every |1+lam| >= 1.08: no Cayley path
        assert len(dl.direct_sum_blocks(Q)) == 1
        tracemalloc.start()
        try:
            dl.logm_unitary(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * Q.nbytes

    def test_input_is_never_written(self, monkeypatch):
        rng = np.random.default_rng(45)
        cayley = self.record_cayley(monkeypatch)
        one_block = self.random_orthogonal(rng, 40)
        many_blocks, _ = self.permuted_direct_sum(
            [self.random_orthogonal(rng, n) for n in (9, 6, 6, 1)], rng)
        near_the_cut = self.orthogonal_with_angles(rng, [2 * np.arccos(0.25), 0.4], 9)
        for U in (one_block, one_block.astype(complex), many_blocks, near_the_cut):
            before = U.copy()
            L, _ = dl.logm_unitary(U)
            assert np.array_equal(U, before)
            assert not np.shares_memory(L, U)
        assert cayley == [(1, 9, 9)]   # near_the_cut alone

    def test_blockwise_unitarity_defect_matches_dense(self):
        rng = np.random.default_rng(39)
        blocks = [self.random_unitary(rng, n) for n in (6, 4, 4, 3, 2, 1)]
        blocks[2] = blocks[2] * 1.01   # a defect well above round-off
        U, _ = self.permuted_direct_sum(blocks, rng)
        stacks = [U[stack] for stack in _size_stacks(dl.direct_sum_blocks(U))]
        dense = unitarity_defect(U)
        assert dense > 1e-2
        assert abs(_stacked_unitarity_defect(stacks) - dense) < 1e-14

    def test_non_unitary_block_refused_before_any_solve(self, monkeypatch):
        rng = np.random.default_rng(40)
        calls = []
        for name in ("solve", "eigh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name: calls.append(name))
        for make in (self.random_unitary, self.random_orthogonal):
            blocks = [make(rng, n) for n in (5, 5, 3, 2, 2, 2, 1)]
            blocks[4] = blocks[4] + 1e-8 * rng.normal(size=(2, 2))
            U, _ = self.permuted_direct_sum(blocks, rng)
            with pytest.raises(OperatorPropertyError, match="not unitary"):
                dl.logm_unitary(U)
        assert calls == []


class TestExpAntiHermitian:
    """e^{S} V by the certified Taylor series, against ``scipy.linalg.expm``."""

    @staticmethod
    def block_diagonal(rng, norm1, real=False):
        """A random anti-Hermitian (with ``real``, real antisymmetric) direct
        sum with ``||S||_1 = norm1``."""
        blocks = []
        for n in (6, 4, 4, 1):
            a = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
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

    @pytest.mark.parametrize("ncols", [1, 4])
    def test_real_generator_matches_complex(self, ncols):
        # a real S acts on the float view of the complex vectors, here a
        # strided view of unit columns, with and without a real velocity
        rng = np.random.default_rng([11, ncols])
        S = self.block_diagonal(rng, 5.0, real=True)
        E = self.block_diagonal(rng, 2.0, real=True)
        W = rng.normal(size=(len(S), 2 * ncols)) + 1j * rng.normal(size=(len(S), 2 * ncols))
        V = (W / np.linalg.norm(W, axis=0))[:, ::2]
        V = V[:, 0] if ncols == 1 else V
        got = exp_anti_hermitian(S, V)
        assert got.dtype == complex and got.shape == V.shape
        assert np.abs(got - exp_anti_hermitian(S.astype(complex), V)).max() < 1e-15
        for g, w in zip(exp_anti_hermitian(S, V, E),
                        exp_anti_hermitian(S.astype(complex), V, E.astype(complex))):
            assert np.abs(g - w).max() < 1e-15

    def test_zero_generator_returns_the_vectors(self):
        V = np.arange(6.0).reshape(3, 2) + 1j
        assert np.array_equal(exp_anti_hermitian(np.zeros((3, 3)), V), V)

    @pytest.mark.parametrize("S", [np.eye(3), np.diag([1j, 1j, np.nan])],
                             ids=["hermitian", "non-finite"])
    def test_non_anti_hermitian_rejected(self, S):
        with pytest.raises(OperatorPropertyError, match="not anti-Hermitian"):
            exp_anti_hermitian(S, np.ones(3))

    @pytest.mark.parametrize("norm1", [1.001 * MAX_GENERATOR_NORM1, 6.7e18])
    def test_generator_norm_gate(self, norm1):
        # the series would take ceil(norm1) substeps; 6.7e18 is the norm of
        # the lowest-order generator on the degenerate Hubbard L=5 root
        S = self.block_diagonal(np.random.default_rng(3), norm1)
        with pytest.raises(OperatorPropertyError, match="generator 1-norm .* exceeds"):
            exp_anti_hermitian(S, np.ones(len(S)), S)

    def test_generator_norm_at_the_gate_is_accepted(self):
        S = self.block_diagonal(np.random.default_rng(4), MAX_GENERATOR_NORM1)
        V = np.ones(len(S)) / np.sqrt(len(S))
        assert np.linalg.norm(exp_anti_hermitian(S, V)) == pytest.approx(1.0, abs=1e-10)


class TestCommutator:
    def test_excitation_signatures_commute(self, m8_ref, m8_table):
        # pure excitations of one reference form a commutative algebra
        rng = np.random.default_rng(4)
        sigs = list(enumerate_signatures(m8_ref, max_rank=3))
        for _ in range(10):
            s1, s2 = rng.choice(len(sigs), size=2)
            m1 = excitation_matrix(amplitude_array({sigs[s1]: 1.0}, m8_table), m8_table)
            m2 = excitation_matrix(amplitude_array({sigs[s2]: 1.0}, m8_table), m8_table)
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


class TestFcidumpLines:
    """:func:`dl.read_fcidump` parses its data lines in one pass: each
    refusal keeps its message and names the first faulty line, and of the
    writes to one integral the last line's wins."""

    @staticmethod
    def read(tmp_path, lines, norb=2):
        path = tmp_path / "FCIDUMP"
        path.write_text("\n".join([f"&FCI NORB={norb},NELEC=2,", "&END"] + lines) + "\n")
        return dl.read_fcidump(path)[0]

    @pytest.mark.parametrize("line,message", [
        ("0.5 1 1 0", "malformed FCIDUMP line: '0.5 1 1 0'"),
        ("0.5 1 1 0 0 0", "malformed FCIDUMP line: '0.5 1 1 0 0 0'"),
        ("nan 1 1 0 0", "non-finite FCIDUMP value: 'nan 1 1 0 0'"),
        ("1D400 1 1 0 0", "non-finite FCIDUMP value: '1D400 1 1 0 0'"),
        ("0.5 3 3 0 0", "FCIDUMP index outside 1..NORB=2: '0.5 3 3 0 0'"),
        ("0.5 1 0 0 0", "FCIDUMP index outside 1..NORB=2: '0.5 1 0 0 0'"),
        ("0.5 1 1 0 2", "FCIDUMP index outside 1..NORB=2: '0.5 1 1 0 2'"),
        ("0.5 -1 1 1 1", "FCIDUMP index outside 1..NORB=2: '0.5 -1 1 1 1'"),
        ("0.5 1 1 99999999999999999999 1",
         "FCIDUMP index outside 1..NORB=2: '0.5 1 1 99999999999999999999 1'"),
    ])
    def test_refusals_name_the_line(self, tmp_path, line, message):
        with pytest.raises(OperatorPropertyError) as info:
            self.read(tmp_path, ["1.0 1 1 0 0", line, "2.0 2 2 0 0"])
        assert str(info.value) == message

    @pytest.mark.parametrize("line,message", [
        ("abc 1 1 0 0", "could not convert string to float: 'abc'"),
        ("0.5 1.5 1 0 0", "invalid literal for int() with base 10: '1.5'"),
    ])
    def test_unparsable_fields_raise_value_errors(self, tmp_path, line, message):
        with pytest.raises(ValueError) as info:
            self.read(tmp_path, ["1.0 1 1 0 0", line])
        assert str(info.value) == message

    def test_first_faulty_line_is_named(self, tmp_path):
        # a later malformed line does not hide an earlier bad value, and an
        # unparsable value does not hide an earlier bad index
        with pytest.raises(OperatorPropertyError, match="non-finite.*'inf 1 1 0 0'"):
            self.read(tmp_path, ["inf 1 1 0 0", "0.5 1 1 0"])
        with pytest.raises(OperatorPropertyError, match="index outside.*'0.5 1 3 0 0'"):
            self.read(tmp_path, ["0.5 1 3 0 0", "abc 1 1 0 0"])

    def test_refusals_past_the_first_chunk(self, tmp_path):
        # a fault after many good lines is refused, and an earlier fault of
        # another kind still comes first
        filler = ["0.1 1 1 0 0"] * 300
        with pytest.raises(OperatorPropertyError, match="malformed FCIDUMP line: '0.5 1 1 0'"):
            self.read(tmp_path, filler + ["0.5 1 1 0"])
        with pytest.raises(OperatorPropertyError, match="non-finite.*'nan 2 2 0 0'"):
            self.read(tmp_path, ["nan 2 2 0 0"] + filler + ["0.5 1 1 0"])
        with pytest.raises(OperatorPropertyError, match="index outside.*'0.5 3 3 0 0'"):
            self.read(tmp_path, filler + ["0.5 3 3 0 0"])

    def test_fortran_exponents(self, tmp_path):
        ints = self.read(tmp_path, ["1.5D-01 1 1 0 0", "-2.5d+00 2 2 0 0", "3D0 0 0 0 0",
                                    "2.0D-1 1 1 2 2"])
        want = self.read(tmp_path, ["0.15 1 1 0 0", "-2.5 2 2 0 0", "3.0 0 0 0 0",
                                    "0.2 1 1 2 2"])
        assert ints.core_energy == 3.0
        assert np.array_equal(ints.one_body, want.one_body)
        assert np.array_equal(ints.two_body, want.two_body)
        assert ints.one_body.any() and ints.two_body.any()

    def test_last_line_wins(self, tmp_path):
        # (21|21) and (12|12), (22|11) and (11|22), h_12 and h_21 each set
        # one symmetry class twice; the core energy is listed three times
        ints = self.read(tmp_path, [
            "0.3 1 2 1 2", "0.7 2 1 2 1", "0.1 1 1 2 2", "0.9 2 2 1 1",
            "0.2 2 1 0 0", "0.6 1 2 0 0", "1.0 0 0 0 0", "2.0 0 0 0 0", "3.0 0 0 0 0"])
        want = self.read(tmp_path, ["0.7 1 2 1 2", "0.9 1 1 2 2", "0.6 2 1 0 0"])
        assert ints.core_energy == 3.0
        assert np.array_equal(ints.one_body, want.one_body)
        assert np.array_equal(ints.two_body, want.two_body)

    def test_last_line_wins_over_alternating_permutations(self, tmp_path):
        # a quadruple and a permutation of it set one symmetry class in
        # turn, the quadruple three times and last: its last value wins,
        # though the permutation's lines come after its first
        ints = self.read(tmp_path, [
            "0.1 1 2 3 3", "0.2 3 3 2 1", "0.3 1 2 3 3", "0.4 3 3 2 1", "0.5 1 2 3 3"], 3)
        want = self.read(tmp_path, ["0.5 1 2 3 3"], 3)
        assert np.array_equal(ints.two_body, want.two_body)
        assert ints.two_body.any()

    def test_matches_the_line_by_line_symmetrisation(self, tmp_path):
        rng = np.random.default_rng(3)
        norb = 4
        lines = [f"{rng.normal():.17g} {' '.join(str(x) for x in rng.integers(1, norb + 1, 4))}"
                 for _ in range(300)]
        lines += [f"{rng.normal():.17g} {rng.integers(1, norb + 1)} {rng.integers(1, norb + 1)} 0 0"
                  for _ in range(30)]
        ints = self.read(tmp_path, lines, norb)
        h, chem = np.zeros((norb,) * 2), np.zeros((norb,) * 4)
        for line in lines:
            val, *idx = line.split()
            i, j, k, l = (int(x) - 1 for x in idx)
            if k < 0:
                h[i, j] = h[j, i] = float(val)
                continue
            for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                               (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)):
                chem[a, b, c, d] = float(val)
        want = dl.IntegralSet.from_chemist(h, chem, 0.0)
        assert np.array_equal(ints.one_body, want.one_body)
        assert np.array_equal(ints.two_body, want.two_body)

    @settings(max_examples=60)
    @given(values=st.tuples(*[st.sampled_from(
        [1.7e308, -1.7e308, 9e307, -9e307, 8.9e307, -0.5, 0.0])] * 6))
    def test_line_pass_refuses_exactly_the_overflowing_files(self, tmp_path_factory, values):
        # once its lines pass, an integral set's checks can fail only where
        # the antisymmetrized (pr|qs) - (ps|qr) overflows (the scatter makes
        # every symmetry exact): the line pass refuses exactly those files,
        # and every other file builds its integral set, with no warning.
        # One value per symmetry class of NORB = 2, each written as (lk|ji)
        classes = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 2),
                   (2, 2, 2, 2)]
        path = tmp_path_factory.mktemp("huge") / "FCIDUMP"
        path.write_text("".join(["&FCI NORB=2,&END\n"] + [
            f"{val!r} {l} {k} {j} {i}\n" for val, (i, j, k, l) in zip(values, classes)]))
        chem = np.zeros((2,) * 4)
        for val, (i, j, k, l) in zip(values, classes):
            for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                               (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)):
                chem[a - 1, b - 1, c - 1, d - 1] = val
        phys = chem.transpose(0, 2, 1, 3)
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(phys - phys.transpose(0, 1, 3, 2)).all()
        if overflows:
            with pytest.raises(OperatorPropertyError,
                               match="^integrals have non-finite entries$"):
                read_fcidump_lines(path)
        else:
            ints, _ = dl.read_fcidump(path)
            assert np.array_equal(ints.two_body, dl.IntegralSet.from_chemist(
                np.zeros((2, 2)), chem).two_body)


class TestRandomHamiltonian:
    def test_reference_dominance(self, m8_basis):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        assert H.hermiticity_defect() < 1e-12
        gs = np.linalg.eigh(H.matrix)[1][:, 0]
        assert abs(gs[0]) > 0.5  # aufbau reference is index 0 in mask order
