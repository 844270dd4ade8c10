import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab import dynamics
from ducclab.errors import NormDriftError, OperatorPropertyError
from ducclab.sweeps import sweep_targets

from conftest import count_calls, random_state
from oracles import (anti_hermiticity_defect, build_projectors, cas_ci, dexp_series,
                     dexp_tail_ratio, random_hermitian_hamiltonian)


def anti_hermitian_path(basis, ref, rng, norm=0.35):
    """Quadratic-in-time anti-Hermitian path X(t) and its derivative, with
    each coefficient operator scaled to a given spectral norm."""
    ops = []
    for _ in range(3):
        m = dl.sigma_lowest_order(dl.random_amplitudes(ref, rng, scale=0.3),
                                  basis)
        ops.append(m * (norm / np.linalg.norm(m, 2)))
    x0, x1, x2 = ops

    def X(t):
        return x0 + t * x1 + t * t * x2

    def Xdot(t):
        return x1 + 2 * t * x2

    return X, Xdot


class TestPropagateFull:
    def test_eigenstate_phase_only(self, dimer_H):
        vals, vecs = np.linalg.eigh(dimer_H.matrix)
        states = dl.propagate_full(dimer_H, vecs[:, 0], 0.05, 40)
        for k, psi in enumerate(states):
            expected = np.exp(-1j * vals[0] * 0.05 * k) * vecs[:, 0]
            assert np.linalg.norm(psi - expected) < 1e-12

    def test_matches_expm_stepping(self, m6_basis):
        # one eigh for the whole grid against repeated dense expm steps
        rng = np.random.default_rng(15)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        psi = random_state(m6_basis, rng)
        dt, nsteps = 0.05, 30
        states = dl.propagate_full(H, psi, dt, nsteps)
        assert states.shape == (nsteps + 1, m6_basis.size)
        u_dt = scipy.linalg.expm(-1j * dt * H.matrix)
        for k in range(nsteps + 1):
            assert np.linalg.norm(states[k] - psi) < 1e-12
            psi = u_dt @ psi

    def test_zero_hamiltonian_constant(self, dimer_basis):
        H = dl.QOperator(np.zeros((dimer_basis.size,) * 2), dimer_basis)
        psi0 = random_state(dimer_basis, np.random.default_rng(0))
        states = dl.propagate_full(H, psi0, 0.1, 10)
        assert np.allclose(states, states[0])

    def test_energy_conservation_long_run(self, dimer_basis, dimer_H):
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]
        states = dl.propagate_full(dimer_H, psi0, 0.01, 1000)
        energies = np.array([(s.conj() @ (dimer_H.matrix @ s)).real for s in states])
        assert np.abs(energies - energies[0]).max() < 1e-10
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_non_hermitian_rejected(self, dimer_basis):
        bad = np.zeros((dimer_basis.size, dimer_basis.size), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(OperatorPropertyError):
            dl.propagate_full(dl.QOperator(bad, dimer_basis),
                              dimer_basis.unit_vector(0), 0.1, 1)


class TestDexpSeries:
    def test_zero_velocity(self, m6_basis, m6_ref):
        rng = np.random.default_rng(0)
        X = dl.sigma_lowest_order(dl.random_amplitudes(m6_ref, rng, scale=0.3), m6_basis)
        A = dexp_series(X, np.zeros_like(X), 8)
        assert np.linalg.norm(A) == 0.0

    def test_order_zero_is_velocity(self, m6_basis, m6_ref):
        rng = np.random.default_rng(1)
        X = dl.sigma_lowest_order(dl.random_amplitudes(m6_ref, rng, scale=0.3), m6_basis)
        Xd = dl.sigma_lowest_order(dl.random_amplitudes(m6_ref, rng, scale=0.3), m6_basis)
        A = dexp_series(X, Xd, 0)
        assert np.allclose(A, Xd)

    def test_commuting_exact_at_order_zero(self, m6_basis):
        rng = np.random.default_rng(2)
        d = rng.normal(size=m6_basis.size)
        X = 1j * np.diag(d)
        Xd = 0.5j * np.diag(d)  # commutes with X
        A = dexp_series(X, Xd, 0)
        fd = 1e-6
        lhs = (scipy.linalg.expm(X + fd * Xd) - scipy.linalg.expm(X - fd * Xd)) / (2 * fd)
        assert np.abs(scipy.linalg.expm(X) @ A - lhs).max() < 1e-9

    def test_matches_finite_difference_and_decreases_in_k(self, m6_basis, m6_ref):
        rng = np.random.default_rng(3)
        X, Xd = anti_hermitian_path(m6_basis, m6_ref, rng)
        t0, dt = 0.4, 1e-4
        fd = (scipy.linalg.expm(X(t0 + dt)) - scipy.linalg.expm(X(t0 - dt))) / (2 * dt)
        ex = scipy.linalg.expm(X(t0))
        ref_norm = np.linalg.norm(fd)
        errs = []
        for K in range(13):
            A = dexp_series(X(t0), Xd(t0), K)
            assert anti_hermiticity_defect(A) < 1e-12
            errs.append(np.linalg.norm(ex @ A - fd) / ref_norm)
        floor = errs[-1]
        assert floor < 1e-7
        for e1, e2 in zip(errs, errs[1:]):
            if e1 > 10 * floor:
                assert e2 < e1

    def test_tail_ratio_certificate(self, m6_basis, m6_ref):
        rng = np.random.default_rng(4)
        X, Xd = anti_hermitian_path(m6_basis, m6_ref, rng, norm=0.25)
        ratio = dexp_tail_ratio(X(0.0), Xd(0.0), 12)
        assert ratio < 1e-12


class TestBuildHeffTd:
    """Heff(t): :func:`ducc_projection` of a generator and its velocity."""

    def test_zero_velocity_reduces_to_static(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        sigma = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_ref, rng, m8_part, "external", 0.2), m8_basis)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = dl.ducc_projection(H, sigma, cas, np.zeros_like(sigma))
        static = dl.downfold_ducc(H, sigma, m8_ref, m8_part)
        assert np.abs(td - static.matrix).max() < 1e-12

    def test_zero_generator_keeps_velocity_term(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(6)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        D = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_ref, rng, m8_part, "external", 0.2), m8_basis)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = dl.ducc_projection(H, np.zeros_like(D), cas, D)
        expected = (H.matrix - 1j * D)[np.ix_(cas, cas)]
        assert np.abs(td - expected).max() < 1e-12

    def test_hermitian_on_random_inputs(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(7)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        s = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_ref, rng, m8_part, "external", 0.3), m8_basis)
        sd = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_ref, rng, m8_part, "external", 0.3), m8_basis)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = dl.ducc_projection(H, s, cas, sd)
        assert np.linalg.norm(td - td.conj().T) < 1e-10


class TestDecomposeTrajectory:
    """The sweep side of :func:`downfolded_quench` on the half-step grid."""

    def test_stationary_state_has_constant_generator(self, dimer_basis, dimer_H,
                                                     dimer_ref, dimer_part):
        vals, vecs = np.linalg.eigh(dimer_H.matrix)
        study = dl.downfolded_quench(dimer_H, vecs[:, 0], 0.1, 10, dimer_ref,
                                     dimer_part, fd_order=4)
        assert np.abs(study.sigma_ext - study.sigma_ext[0]).max() < 1e-8

    def test_t0_matches_static_sweep(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]
        study = dl.downfolded_quench(dimer_H, psi0, 0.04, 3, dimer_ref, dimer_part,
                                     fd_order=4)
        static = dl.decompose_state(psi0, dimer_ref, dimer_part, dimer_basis)
        assert np.abs(study.sigma_ext[0] - static.sigma_ext).max() < 1e-12

    def test_per_step_reconstruction(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]
        H = dl.build_hubbard(2, 1.0, 2.0, dimer_basis)
        study = dl.downfolded_quench(H, psi0, 0.04, 25, dimer_ref, dimer_part,
                                     fd_order=4)
        assert len(study.states) == 51
        assert study.residuals.max() < 1e-8
        for psi, sigma, c in zip(study.states, study.sigma_ext, study.c_int,
                                 strict=True):
            lifted = np.zeros(dimer_basis.size, dtype=complex)
            lifted[study.cas] = c
            assert np.linalg.norm(scipy.linalg.expm(sigma) @ lifted - psi) < 1e-8


class TestDecomposeTrajectoryWorkBudget:
    @pytest.fixture
    def schur_calls(self, monkeypatch):
        calls = {"schur": 0}
        schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls["schur"] += 1
            return schur(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "schur", counted)
        return calls

    @pytest.fixture
    def m6_quench(self):
        basis = dl.build_basis(6, 3)
        part = dl.homo_lumo_partition(6, 3, 1, 1)
        ref = part.reference()
        return dl.build_hubbard(3, 1.0, 4.0, basis), ref, part

    def test_no_schur_and_one_target_table(self, schur_calls, m6_quench):
        H, ref, part = m6_quench
        states = dl.propagate_full(H, H.basis.unit_vector(H.basis.index_of(ref)), 0.05, 6)
        sweep_targets.cache_clear()
        sweeps = [dl.decompose_state(psi, ref, part, H.basis) for psi in states]
        assert schur_calls == {"schur": 0}
        # one decomposition per state, one target computation per trajectory
        assert sweep_targets.cache_info().misses == 1
        assert sweep_targets.cache_info().hits == len(states) - 1
        assert max(d.residual for d in sweeps) < 1e-12

    def test_quench_sweeps_share_one_target_table(self, schur_calls, m6_quench):
        H, ref, part = m6_quench
        sweep_targets.cache_clear()
        study = dl.downfolded_quench(H, H.basis.unit_vector(H.basis.index_of(ref)), 0.02, 3,
                                     ref, part, fd_order=4)
        assert schur_calls == {"schur": 0}
        assert sweep_targets.cache_info().misses == 1
        assert sweep_targets.cache_info().hits == len(study.states) - 1
        assert study.residuals.max() < 1e-12


class TestPropagateInternal:
    def test_time_independent_phase_evolution(self, dimer_H, dimer_ref, dimer_part):
        heff = cas_ci(dimer_H, dimer_ref, dimer_part)
        vals, vecs = heff.eigensystem()
        c0 = vecs[:, 0]
        cs = dl.propagate_internal([heff.matrix] * 401, c0, 0.01, 200)
        assert cs.shape == (201, 2)
        expected = np.exp(-1j * vals[0] * 0.01 * 200) * c0
        assert np.linalg.norm(cs[-1] - expected) < 1e-8

    def test_td_consistency_and_fourth_order(self, dimer_basis, dimer_ref, dimer_part):
        H = dl.build_hubbard(2, 1.0, 2.0, dimer_basis)
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]

        def max_dev(dt, nsteps):
            study = dl.downfolded_quench(H, psi0, dt, nsteps, dimer_ref, dimer_part,
                                         fd_order=4)
            return study.rk4_deviation.max()

        d1 = max_dev(0.02, 100)
        d2 = max_dev(0.01, 200)
        assert d1 < 1e-5
        assert d1 / d2 > 10.0  # ~16x for a 4th-order scheme

    @pytest.mark.parametrize("count", [0, 8, 10])
    def test_half_grid_length_checked(self, dimer_H, dimer_ref, dimer_part, count):
        # four steps read the 2 * 4 + 1 half-step matrices
        heff = cas_ci(dimer_H, dimer_ref, dimer_part)
        with pytest.raises(ValueError, match="2 \\* nsteps \\+ 1 = 9"):
            dl.propagate_internal([heff.matrix] * count, np.array([1.0, 0.0]), 0.1, 4)

    def test_norm_drift_guard(self, dimer_part, dimer_H, dimer_ref):
        heff = cas_ci(dimer_H, dimer_ref, dimer_part)
        c0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(NormDriftError):
            dl.propagate_internal([heff.matrix] * 9, c0, 2.5, 4)


class TestSigmaDotGrid:
    @pytest.mark.parametrize("order,expected_rate", [(2, 4.0), (4, 16.0)])
    def test_convergence_order(self, order, expected_rate):
        freq = 1.3
        mat = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def worst_err(h):
            ts = h * np.arange(12)
            f = [np.sin(freq * t) * mat for t in ts]
            d = dl.sigma_dot_grid(f, h, order=order)
            exact = [freq * np.cos(freq * t) * mat for t in ts]
            return max(np.abs(a - b).max() for a, b in zip(d, exact))

        e1, e2 = worst_err(0.01), worst_err(0.005)
        assert e1 / e2 > 0.7 * expected_rate

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            dl.sigma_dot_grid([np.eye(2)] * 3, 0.1, order=4)


class TestLagrangians:
    def _sigmas(self, basis, ref, part, rng, scale=0.1):
        mk = lambda kind: dl.sigma_lowest_order(
            dl.random_amplitudes(ref, rng, part, kind, scale), basis)
        return mk("internal"), mk("external"), mk("internal"), mk("external")

    def test_static_zero_generators(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(8)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = np.zeros((m6_basis.size,) * 2)
        la, lb, lc = dl.evaluate_lagrangians(H, zero, zero, zero, zero,
                                             m6_ref, m6_part)
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        expected = -(e_ref.conj() @ (H.matrix @ e_ref))
        for val in (la, lb, lc):
            assert abs(val - expected) < 1e-12

    def test_no_external_generator(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(9)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = np.zeros((m6_basis.size,) * 2)
        si, _, dsi, _ = self._sigmas(m6_basis, m6_ref, m6_part, rng)
        la, lb, lc = dl.evaluate_lagrangians(H, si, zero, dsi, zero, m6_ref, m6_part)
        assert abs(la - lb) < 1e-12
        assert abs(la - lc) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_mutual_agreement(self, m6_basis, m6_ref, m6_part, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        si, se, dsi, dse = self._sigmas(m6_basis, m6_ref, m6_part, rng)
        la, lb, lc = dl.evaluate_lagrangians(H, si, se, dsi, dse, m6_ref, m6_part)
        assert abs(la - lb) < 1e-9
        assert abs(la - lc) < 1e-9

    def test_work_budget(self, monkeypatch, m6_basis, m6_ref, m6_part):
        # every exponential and its derivative from one series action per
        # generator: no eigendecomposition and no dense exponential
        calls = {"eigh": 0, "expm": 0}
        count_calls(monkeypatch, np.linalg, "eigh", calls)
        count_calls(monkeypatch, scipy.linalg, "expm", calls)
        count_calls(monkeypatch, dynamics, "exp_anti_hermitian", calls)
        rng = np.random.default_rng(14)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        si, se, dsi, dse = self._sigmas(m6_basis, m6_ref, m6_part, rng)
        la, lb, lc = dl.evaluate_lagrangians(H, si, se, dsi, dse, m6_ref, m6_part)
        assert calls == {"eigh": 0, "expm": 0, "exp_anti_hermitian": 2}
        assert abs(la - lb) < 1e-9
        assert abs(la - lc) < 1e-9

    def test_real_on_unitary_trajectory(self, dimer_basis, dimer_ref, dimer_part):
        # sigma and sigma-dot taken from an actual trajectory: the
        # normalized-state Lagrangian is real
        H = dl.build_hubbard(2, 1.0, 2.0, dimer_basis)
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]
        states = dl.propagate_full(H, psi0, 0.005, 8)
        sweeps = [dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis)
                  for psi in states]
        deltas = np.array([s.delta for s in sweeps])
        sig_e = [s.sigma_ext for s in sweeps]
        sig_i = [s.sigma_int for s in sweeps]
        dot_e = list(dl.sigma_dot_grid(sig_e, 0.005, order=4))
        dot_i = list(dl.sigma_dot_grid(sig_i, 0.005, order=4))
        k = 4
        _, _, lc = dl.evaluate_lagrangians(
            H, sig_i[k], sig_e[k], 0.5 * (dot_i[k] - dot_i[k].conj().T),
            0.5 * (dot_e[k] - dot_e[k].conj().T), dimer_ref, dimer_part)
        assert abs(deltas).max() >= 0.0  # deltas smooth enough for differencing
        assert abs(lc.imag) < 1e-8


class TestSesccLagrangian:
    def _amps(self, ref, part, rng, kind, scale=0.1):
        return dl.random_amplitudes(ref, rng, part, kind, scale)

    def test_reduces_without_lambda_and_ext(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(10)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = dl.Amplitudes({})
        ti = self._amps(m6_ref, m6_part, rng, "internal")
        dti = self._amps(m6_ref, m6_part, rng, "internal")
        f1, f2 = dl.evaluate_sescc_lagrangian(H, ti, zero, zero, zero, dti, zero,
                                              m6_ref)
        mi = dl.excitation_matrix(ti, m6_basis)
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        expected = e_ref.conj() @ (scipy.linalg.expm(-mi) @ (
            1j * (dl.excitation_matrix(dti, m6_basis) @ (scipy.linalg.expm(mi) @ e_ref))
            - H.matrix @ (scipy.linalg.expm(mi) @ e_ref)))
        assert abs(f1 - expected) < 1e-12
        assert abs(f2 - expected) < 1e-12

    def test_static_forms_equal(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(11)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = dl.Amplitudes({})
        f1, f2 = dl.evaluate_sescc_lagrangian(
            H, self._amps(m6_ref, m6_part, rng, "internal"),
            self._amps(m6_ref, m6_part, rng, "external"),
            self._amps(m6_ref, m6_part, rng, "internal"),
            self._amps(m6_ref, m6_part, rng, "external"),
            zero, zero, m6_ref)
        assert abs(f1 - f2) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forms_equal(self, m6_basis, m6_ref, m6_part, seed):
        rng = np.random.default_rng(seed + 20)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        f1, f2 = dl.evaluate_sescc_lagrangian(
            H, self._amps(m6_ref, m6_part, rng, "internal"),
            self._amps(m6_ref, m6_part, rng, "external"),
            self._amps(m6_ref, m6_part, rng, "internal"),
            self._amps(m6_ref, m6_part, rng, "external"),
            self._amps(m6_ref, m6_part, rng, "internal"),
            self._amps(m6_ref, m6_part, rng, "external"), m6_ref)
        assert abs(f1 - f2) < 1e-10

    def test_external_velocity_leaves_cas(self, m8_basis, m8_ref, m8_part):
        # (P+Q_int) dT_ext e^{T_int} |ref> = 0 for any amplitude sets
        rng = np.random.default_rng(12)
        dte = dl.excitation_matrix(
            self._amps(m8_ref, m8_part, rng, "external", 0.5), m8_basis)
        ti = dl.excitation_matrix(
            self._amps(m8_ref, m8_part, rng, "internal", 0.5), m8_basis)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        vec = dte @ (scipy.linalg.expm(ti) @ e_ref)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm((projs.P + projs.Q_int) @ vec) < 1e-13


class TestTdSesccKet:
    def test_residual_second_order_in_dt(self, dimer_basis, dimer_ref, dimer_part):
        # i d/dt e^{T_int}|ref> = Heff(t) e^{T_int}|ref> with T from
        # cluster-analyzing the trajectory; centered differences show O(dt^2)
        H = dl.build_hubbard(2, 1.0, 2.0, dimer_basis)
        psi0 = np.linalg.eigh(
            dl.build_hubbard(2, 1.0, 0.0, dimer_basis).matrix)[1][:, 0]
        e_ref = dimer_basis.unit_vector(dimer_basis.index_of(dimer_ref))
        projs = build_projectors(dimer_ref, dimer_basis, dimer_part)
        pq = projs.P + projs.Q_int

        def ket_and_heff(t):
            psi = scipy.linalg.expm(-1j * H.matrix * t) @ psi0
            amps = dl.cluster_analyze(psi, dimer_ref, dimer_basis)
            t_int, t_ext = dl.split_amplitudes(amps, dimer_part)
            me = dl.excitation_matrix(t_ext, dimer_basis)
            # the scalar (rank-0) cluster component belongs to the internal
            # part: e^{T_int}|ref> = <ref|psi> e^{T_int,k>=1}|ref>
            c0 = psi[dimer_basis.index_of(dimer_ref)]
            ket = c0 * (scipy.linalg.expm(
                dl.excitation_matrix(t_int, dimer_basis)) @ e_ref)
            hbar = scipy.linalg.expm(-me) @ H.matrix @ scipy.linalg.expm(me)
            return ket, pq @ hbar @ pq

        t0 = 0.3

        def residual(dt):
            kp, _ = ket_and_heff(t0 + dt)
            km, _ = ket_and_heff(t0 - dt)
            k0, heff = ket_and_heff(t0)
            return np.linalg.norm(1j * (kp - km) / (2 * dt) - heff @ k0)

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 / r2 > 3.5  # O(dt^2)


class TestDownfoldedQuench:
    def test_peak_memory_is_the_generator_stack(self):
        # the velocities are streamed: no second grid of dim x dim matrices
        basis = dl.build_basis(8, 4)
        part = dl.homo_lumo_partition(8, 4, 2, 2)
        ref = part.reference()
        H = dl.build_hubbard(4, 1.0, 4.0, basis)
        psi0 = basis.unit_vector(basis.index_of(ref))
        tracemalloc.start()
        try:
            study = dl.downfolded_quench(H, psi0, 0.02, 20, ref, part, fd_order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert study.sigma_ext.shape == (41, 70, 70)
        assert peak <= 1.5 * study.sigma_ext.nbytes


class TestTrajectoryCsv:
    def test_columns_and_precision(self, tmp_path, dimer_basis, dimer_H,
                                   dimer_ref, dimer_part):
        psi0 = np.linalg.eigh(dimer_H.matrix)[1][:, 0]
        study = dl.downfolded_quench(dimer_H, psi0, 0.05, 4, dimer_ref, dimer_part,
                                     fd_order=4)
        path = tmp_path / "traj.csv"
        dl.trajectory_to_csv(study, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5
        header = lines[0].split(",")
        assert header[:4] == ["time", "energy", "norm", "cas_weight"]
        assert header[4] == "heff_eig_0"
        vals, _ = np.linalg.eigh(dimer_H.matrix)
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(vals[0], abs=1e-12)
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
