import json

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab.errors import OperatorPropertyError
from ducclab.operators import exp_anti_hermitian

from oracles import _dexp_certified, cas_ci, random_hermitian_hamiltonian


def exact_split(H, ref, basis, part, root=0):
    vals, vecs = np.linalg.eigh(H.matrix)
    amps = dl.cluster_analyze(vecs[:, root], ref, basis)
    return vals, vecs, dl.split_amplitudes(amps, part)


class TestSesccDownfold:
    def test_zero_amplitudes_give_cas_ci(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(0)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        heff = dl.downfold_sescc(H, dl.Amplitudes({}), m8_ref, m8_part)
        bare = cas_ci(H, m8_ref, m8_part)
        assert np.allclose(heff.matrix, bare.matrix)

    def test_exact_external_amplitudes_reproduce_fci(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(1)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs, (t_int, t_ext) = exact_split(H, m8_ref, m8_basis, m8_part)
        heff = dl.downfold_sescc(H, t_ext, m8_ref, m8_part)
        target = heff.restrict(scipy.linalg.expm(
            dl.excitation_matrix(t_int, m8_basis)) @ m8_basis.unit_vector(
                m8_basis.index_of(m8_ref)))
        root = dl.match_root(heff, target)
        evals, evecs = heff.eigensystem()
        assert abs(complex(evals[root]).real - vals[0]) < 1e-9
        assert abs(complex(evals[root]).imag) < 1e-9
        t = target / np.linalg.norm(target)
        assert 1.0 - abs(np.vdot(evecs[:, root], t)) < 1e-8

    def test_internal_signature_rejected(self, m8_ref, m8_part, m8_basis):
        rng = np.random.default_rng(2)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        bad = dl.random_amplitudes(m8_ref, rng, m8_part, "internal", 0.1)
        with pytest.raises(OperatorPropertyError):
            dl.downfold_sescc(H, bad, m8_ref, m8_part)


class TestDuccDownfold:
    def test_zero_generator_gives_cas_ci(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(3)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        heff = dl.downfold_ducc(H, np.zeros((m8_basis.size,) * 2), m8_ref, m8_part)
        bare = cas_ci(H, m8_ref, m8_part)
        assert heff.hermitian
        assert np.allclose(heff.matrix, bare.matrix)

    def test_exact_generator_reproduces_fci(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(4)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        res = dl.decompose_state(vecs[:, 0], m8_ref, m8_part, m8_basis)
        heff = dl.downfold_ducc(H, res.sigma_ext, m8_ref, m8_part)
        evals, evecs = heff.eigensystem()
        assert abs(evals[0] - vals[0]) < 1e-9
        # the matching eigenvector is the internally rotated reference
        c_int = heff.restrict(scipy.linalg.expm(res.sigma_int)
                              @ m8_basis.unit_vector(m8_basis.index_of(m8_ref)))
        assert 1.0 - abs(np.vdot(evecs[:, 0], c_int / np.linalg.norm(c_int))) < 1e-8

    def test_hermitian_for_any_anti_hermitian_input(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        sigma = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_ref, rng, m8_part, "external", 0.3), m8_basis)
        heff = dl.downfold_ducc(H, sigma, m8_ref, m8_part)
        assert heff.hermitian
        assert np.linalg.norm(heff.matrix - heff.matrix.conj().T) < 1e-10

    def test_non_anti_hermitian_rejected(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(6)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        with pytest.raises(OperatorPropertyError):
            dl.downfold_ducc(H, np.eye(m8_basis.size), m8_ref, m8_part)

    def test_lowest_order_error_shrinks_with_active_space(self, m8_basis, m8_ref):
        # sigma ~ T_ext - T_ext+ improves as the active space absorbs more
        # of the correlation
        rng = np.random.default_rng(7)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        errors = []
        for no, nv in ((1, 1), (2, 2), (3, 3), (4, 4)):
            part = dl.homo_lumo_partition(8, 4, no, nv)
            _, t_ext = dl.split_amplitudes(amps, part)
            sigma = dl.sigma_lowest_order(t_ext, m8_basis)
            heff = dl.downfold_ducc(H, sigma, m8_ref, part)
            errors.append(abs(heff.eigensystem()[0][0] - vals[0]))
        assert errors[-1] < 1e-12  # full active space: no external part at all
        assert errors[0] > errors[-1]
        assert min(errors[1:3]) <= errors[0]

    def test_similarity_invariance_of_full_spectrum(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(8)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        sigma = dl.sigma_lowest_order(
            dl.random_amplitudes(m6_ref, rng, m6_part, "external", 0.2), m6_basis)
        u = scipy.linalg.expm(sigma)
        hbar = u.conj().T @ H.matrix @ u
        assert np.allclose(np.sort(np.linalg.eigvalsh(hbar)),
                           np.linalg.eigvalsh(H.matrix), atol=1e-10)


def _anti_hermitian(rng, n, norm2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = 0.5 * (a - a.conj().T)
    return g * (norm2 / np.linalg.norm(g, 2))


def _generator_cases():
    rng = np.random.default_rng(11)
    half = _anti_hermitian(rng, 10, 1.0)
    cases = [pytest.param(_anti_hermitian(rng, 20, s), id=f"norm{s}")
             for s in (0.1, 0.5, 1.0, 2.0)]
    cases.append(pytest.param(np.zeros((20, 20), dtype=complex), id="zero"))
    # two equal blocks: every eigenvalue twice, degenerate pairs in phi
    cases.append(pytest.param(np.kron(np.eye(2), half), id="repeated"))
    return cases


class TestDuccProjection:
    """The series projection against dense ``expm`` and the certified
    commutator series."""

    @pytest.mark.parametrize("sigma", _generator_cases())
    def test_matches_expm_and_dexp_series(self, m6_basis, m6_ref, m6_part, sigma):
        rng = np.random.default_rng(12)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        sigma_dot = _anti_hermitian(rng, 20, 0.7)
        cas = dl.determinant_table(m6_basis, m6_ref).cas(m6_part)
        ix = np.ix_(cas, cas)
        hbar = (scipy.linalg.expm(-sigma) @ H.matrix @ scipy.linalg.expm(sigma))[ix]
        vel = -1j * _dexp_certified(sigma, sigma_dot, 12)[ix]
        zero_H = dl.QOperator(np.zeros((m6_basis.size,) * 2), m6_basis)
        rel = lambda a, b: np.linalg.norm(a - b) / np.linalg.norm(b)
        assert rel(dl.ducc_projection(H, sigma, cas), hbar) < 1e-12
        assert rel(dl.ducc_projection(zero_H, sigma, cas, sigma_dot), vel) < 1e-12
        assert rel(dl.ducc_projection(H, sigma, cas, sigma_dot), hbar + vel) < 1e-12

    def test_rejects_non_anti_hermitian_velocity(self, m6_basis, m6_ref, m6_part):
        cas = dl.determinant_table(m6_basis, m6_ref).cas(m6_part)
        eye = np.eye(m6_basis.size)
        with pytest.raises(OperatorPropertyError, match="sigma_dot"):
            dl.ducc_projection(dl.QOperator(eye, m6_basis), np.zeros_like(eye), cas, eye)


class TestExpDexp:
    """The exponential and dexp kernel shared by the DUCC projection and the
    Lagrangian evaluators, ``exp_anti_hermitian(sigma, V, sigma_dot)``,
    against dense ``expm`` of ``[[sigma, sigma_dot], [0, sigma]]``, whose
    blocks are e^{sigma} and L = e^{sigma} A, and the certified commutator
    series of A."""

    @staticmethod
    def check(sigma, sigma_dot, V):
        n = len(sigma)
        aug = scipy.linalg.expm(np.block([[sigma, sigma_dot], [np.zeros_like(sigma), sigma]]))
        expm = scipy.linalg.expm(sigma)
        rel = lambda a, b: np.linalg.norm(a - b) / np.linalg.norm(b)
        U, L = exp_anti_hermitian(sigma, V, sigma_dot)
        assert rel(U, expm @ V) < 1e-12
        assert rel(L, aug[:n, n:] @ V) < 1e-12
        assert rel(expm.conj().T @ L, _dexp_certified(sigma, sigma_dot, 12) @ V) < 1e-12
        return U, L

    @pytest.mark.parametrize("sigma", _generator_cases())
    def test_matches_expm_and_dexp_series(self, sigma):
        sigma_dot = _anti_hermitian(np.random.default_rng(13), 20, 0.7)
        self.check(sigma, sigma_dot, np.eye(20))
        self.check(sigma, sigma_dot, np.eye(20)[:, [0, 3, 4, 11]])

    def test_zero_generator(self):
        # e^0 = I and L(0, E) = E: the series ends after one term
        sigma_dot = _anti_hermitian(np.random.default_rng(14), 20, 3.0)
        V = np.eye(20)[:, [1, 7]]
        U, L = self.check(np.zeros((20, 20)), sigma_dot, V)
        assert np.array_equal(U, V)
        assert np.allclose(L, sigma_dot @ V, rtol=0, atol=1e-15)

    def test_fast_velocity_leaves_the_series_unchanged(self):
        # ||sigma_dot||_1 >> ||sigma||_1: the direction is scaled by a power
        # of two, so the substeps and order are those of e^{sigma} alone and
        # a power-of-two faster velocity scales L exactly
        rng = np.random.default_rng(15)
        sigma, sigma_dot = _anti_hermitian(rng, 20, 0.5), _anti_hermitian(rng, 20, 1e4)
        V = np.eye(20)[:, [0, 5]]
        U, L = self.check(sigma, sigma_dot, V)
        U2, L2 = exp_anti_hermitian(sigma, V, 1024 * sigma_dot)
        assert np.array_equal(U2, U)
        assert np.array_equal(L2, 1024 * L)

    def test_rejects_non_anti_hermitian_direction(self):
        sigma = _anti_hermitian(np.random.default_rng(16), 20, 0.5)
        with pytest.raises(OperatorPropertyError, match="sigma_dot"):
            exp_anti_hermitian(sigma, np.eye(20), sigma + np.eye(20))


class TestCasEigensolve:
    def test_empty_active_space_scalar(self, m8_basis, m8_ref):
        part = dl.homo_lumo_partition(8, 4, 0, 0)
        rng = np.random.default_rng(9)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs, (t_int, t_ext) = exact_split(H, m8_ref, m8_basis, part)
        heff = dl.downfold_sescc(H, t_ext, m8_ref, part)
        assert heff.dim == 1
        evals, _ = dl.cas_eigensolve(heff)
        # single matrix element <ref|Hbar_ext|ref> equals the eigenvalue
        assert abs(complex(evals[0]) - heff.matrix[0, 0]) < 1e-12
        assert abs(complex(evals[0]).real - vals[0]) < 1e-9

    def test_hermitian_real_spectrum(self, dimer_H, dimer_ref, dimer_part):
        heff = dl.downfold_ducc(dimer_H, np.zeros((dimer_H.basis.size,) * 2),
                                dimer_ref, dimer_part)
        evals, _ = dl.cas_eigensolve(heff)
        assert np.all(np.isreal(evals))
        assert np.all(np.diff(evals) >= 0)

    def test_dimer_minimal_cas_anchor(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        vals, vecs = np.linalg.eigh(dimer_H.matrix)
        res = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
        heff = dl.downfold_ducc(dimer_H, res.sigma_ext, dimer_ref, dimer_part)
        evals, _ = dl.cas_eigensolve(heff)
        assert evals[0] == pytest.approx(2.0 - 2.0 * np.sqrt(2.0), abs=1e-9)


class TestExport:
    def test_json_round_trip(self, tmp_path, dimer_basis, dimer_H, dimer_ref, dimer_part):
        vals, vecs = np.linalg.eigh(dimer_H.matrix)
        res = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
        heff = dl.downfold_ducc(dimer_H, res.sigma_ext, dimer_ref, dimer_part)
        path = tmp_path / "heff.json"
        dl.write_effective_json(heff, path, part=dimer_part)
        data = json.loads(path.read_text())
        mat = np.array(data["matrix_real"]) + 1j * np.array(data["matrix_imag"])
        assert np.allclose(mat, heff.matrix)
        assert data["source"] == "ducc"
        assert data["hermitian"] is True
        assert data["cas_determinants"][0] == dimer_ref.bitstring()
        assert data["partition"]["occ_active"] == [1]
        assert "residuals" not in data

    def test_matrix_dump(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        heff = cas_ci(dimer_H, dimer_ref, dimer_part)
        text = dl.effective_matrix_dump(heff)
        lines = text.strip().splitlines()
        assert lines[0].startswith("&HEFF DIM=2")
        assert sum(1 for ln in lines if ln.startswith("DET ")) == heff.dim
        # entries re-read to the exact matrix
        mat = np.zeros((heff.dim, heff.dim), dtype=complex)
        for ln in lines:
            parts = ln.split()
            if len(parts) == 4 and not ln.startswith(("DET", "&")):
                re_, im_, i, j = float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])
                mat[i - 1, j - 1] = re_ + 1j * im_
        assert np.allclose(mat, heff.matrix)

    def test_lift_restrict(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(10)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        heff = cas_ci(H, m8_ref, m8_part)
        c = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
        lifted = np.zeros(m8_basis.size, dtype=complex)
        lifted[heff.cas] = c
        assert np.array_equal(heff.restrict(lifted), c)
