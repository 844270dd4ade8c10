import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab import cli, downfold, dynamics, ecc
from ducclab import sweeps as sweeps_module
from ducclab.errors import NormDriftError, OperatorPropertyError
from ducclab.sweeps import sweep_targets

from conftest import count_calls, random_state, record_returns, run_dimer_task, td_projection
from oracles import (anti_hermiticity_defect, build_projectors, cas_ci, dexp_series,
                     dexp_tail_ratio, excitation_matrix, random_hermitian_hamiltonian)


def quench_batches(H, study) -> int:
    """Number of batches :func:`ducclab.downfolded_quench` sweeps the grid
    in: ``dim // ncas`` consecutive points each."""
    width = max(1, H.basis.size // len(study.cas))
    return -(-len(study.states) // width)


def anti_hermitian_path(basis, ref, rng, norm=0.35):
    """Quadratic-in-time anti-Hermitian path X(t) and its derivative, with
    each coefficient operator scaled to a given spectral norm."""
    ops = []
    for _ in range(3):
        table = dl.determinant_table(basis, ref)
        m = dl.sigma_lowest_order(dl.random_amplitudes(table, rng, scale=0.3), table)
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
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
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
    def test_zero_velocity(self, m6_table):
        rng = np.random.default_rng(0)
        X = dl.sigma_lowest_order(dl.random_amplitudes(m6_table, rng, scale=0.3), m6_table)
        A = dexp_series(X, np.zeros_like(X), 8)
        assert np.linalg.norm(A) == 0.0

    def test_order_zero_is_velocity(self, m6_table):
        rng = np.random.default_rng(1)
        X = dl.sigma_lowest_order(dl.random_amplitudes(m6_table, rng, scale=0.3), m6_table)
        Xd = dl.sigma_lowest_order(dl.random_amplitudes(m6_table, rng, scale=0.3), m6_table)
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

    def test_zero_velocity_reduces_to_static(self, m8_basis, m8_ref, m8_part, m8_table):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        sigma = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_table, rng, m8_part, "external", 0.2), m8_table)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = td_projection(H, sigma, cas, np.zeros_like(sigma))
        static = dl.downfold_ducc(H, sigma, m8_ref, m8_part)
        assert np.abs(td - static.matrix).max() < 1e-12

    def test_zero_generator_keeps_velocity_term(self, m8_basis, m8_ref, m8_part, m8_table):
        rng = np.random.default_rng(6)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        D = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_table, rng, m8_part, "external", 0.2), m8_table)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = td_projection(H, np.zeros_like(D), cas, D)
        expected = (H.matrix - 1j * D)[np.ix_(cas, cas)]
        assert np.abs(td - expected).max() < 1e-12

    def test_hermitian_on_random_inputs(self, m8_basis, m8_ref, m8_part, m8_table):
        rng = np.random.default_rng(7)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        s = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_table, rng, m8_part, "external", 0.3), m8_table)
        sd = dl.sigma_lowest_order(
            dl.random_amplitudes(m8_table, rng, m8_part, "external", 0.3), m8_table)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        td = td_projection(H, s, cas, sd)
        assert np.linalg.norm(td - td.conj().T) < 1e-10


class TestDecomposeTrajectory:
    """The sweep side of :func:`downfolded_quench` on the half-step grid."""

    def test_stationary_state_has_constant_generator(self, dimer_basis, dimer_H,
                                                     dimer_ref, dimer_part):
        vals, vecs = np.linalg.eigh(dimer_H.matrix)
        study = dl.downfolded_quench(dimer_H, vecs[:, 0], 0.1, 10, dimer_ref,
                                     dimer_part)
        sigma_ext = np.array([dl.decompose_state(psi, dimer_ref, dimer_part,
                                                 dimer_basis).sigma_ext
                              for psi in study.states])
        assert np.abs(sigma_ext - sigma_ext[0]).max() < 1e-8

    def test_t0_matches_static_sweep(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
        study = dl.downfolded_quench(dimer_H, psi0, 0.04, 3, dimer_ref, dimer_part)
        static = dl.decompose_state(psi0, dimer_ref, dimer_part, dimer_basis)
        first = dl.decompose_state(study.states[0], dimer_ref, dimer_part, dimer_basis)
        assert np.abs(first.sigma_ext - static.sigma_ext).max() < 1e-12

    def test_per_step_reconstruction(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
        study = dl.downfolded_quench(H, psi0, 0.04, 25, dimer_ref, dimer_part)
        assert len(study.states) == 51
        assert study.residuals.max() < 1e-8
        for psi, c in zip(study.states, study.c_int, strict=True):
            sigma = dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis).sigma_ext
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
        return dl.hamiltonian_from_integrals(dl.hubbard_integrals(3, 1.0, 4.0), basis), ref, part

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
                                     ref, part)
        assert schur_calls == {"schur": 0}
        # one target computation per trajectory, one lookup per batch
        assert sweep_targets.cache_info().misses == 1
        assert sweep_targets.cache_info().hits == quench_batches(H, study) - 1
        assert study.residuals.max() < 1e-12


class TestQuenchFromReplayedColumns:
    """Heff(t) of :func:`downfolded_quench` reads the replayed CAS columns of
    e^{sigma_ext} and their stencil velocity."""

    def test_work_budget(self, monkeypatch):
        # no decomposition, logarithm or series action on the quench path
        calls = {}
        for module, name in ((sweeps_module, "decompose_state"),
                             (sweeps_module, "logm_unitary"),
                             (sweeps_module, "exp_anti_hermitian"),
                             (downfold, "exp_anti_hermitian"),
                             (dynamics, "exp_anti_hermitian")):
            count_calls(monkeypatch, module, name, calls)
        basis = dl.build_basis(6, 3)
        part = dl.homo_lumo_partition(6, 3, 1, 1)
        ref = part.reference()
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(3, 1.0, 4.0), basis)
        study = dl.downfolded_quench(H, basis.unit_vector(basis.index_of(ref)), 0.02, 3,
                                     ref, part)
        assert calls == {}
        assert study.residuals.max() < 1e-12

    def test_matches_the_generator_form(self, dimer_basis, dimer_ref, dimer_part):
        # the Heff of the generators sigma_ext(t) of decompose_state and the
        # stencil over them: the two stencils' truncation errors differ, and
        # the difference falls as dt^4 (15.7x per halving, 4.9e-8 at dt 0.01)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]

        def max_difference(dt, nsteps):
            study = dl.downfolded_quench(H, psi0, dt, nsteps, dimer_ref, dimer_part)
            sigmas = [dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis).sigma_ext
                      for psi in study.states]
            return max(np.abs(heff - td_projection(H, sigma, study.cas,
                                                   0.5 * (dot - dot.conj().T))).max()
                       for heff, sigma, dot in zip(study.heffs, sigmas,
                                                   dl.sigma_dot_grid(sigmas, dt / 2),
                                                   strict=True))

        d1, d2 = max_difference(0.01, 10), max_difference(0.005, 20)
        assert d1 < 1e-7
        assert d1 / d2 > 10.0


class TestQuenchBatches:
    """:func:`downfolded_quench` sweeps and replays its grid states in
    batches of ``dim // ncas`` consecutive points, one pass over the targets
    per batch, with the numbers of one sweep and replay per state."""

    @pytest.mark.parametrize("system,batches", [("hubbard-l4", 4), ("dimer", 14)])
    def test_equals_a_per_state_loop(self, monkeypatch, system, batches):
        if system == "dimer":
            basis = dl.build_basis(4, 2)
            part = dl.homo_lumo_partition(4, 2, 1, 1)
            H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 4.0), basis)
            H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), basis)
            psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
        else:
            basis = dl.build_basis(8, 4)
            part = dl.homo_lumo_partition(8, 4, 2, 2)
            H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(4, 1.0, 4.0), basis)
            psi0 = basis.unit_vector(basis.index_of(part.reference()))
        ref, dt = part.reference(), 0.02
        blocks = []
        projection = dynamics.ducc_projection

        def recorded(H, R, A=None):
            blocks.append(R.copy())
            return projection(H, R, A)
        monkeypatch.setattr(dynamics, "ducc_projection", recorded)
        study = dl.downfolded_quench(H, psi0, dt, 20, ref, part)
        assert quench_batches(H, study) == batches

        cols = downfold.unit_columns(basis.size, study.cas, complex)
        Rs, c_int, residuals = [], [], []
        for psi in study.states:
            record, psi_act = sweeps_module.sweep_external(psi, ref, part, basis)
            Rs.append(sweeps_module.replay(record, cols.copy()))
            c_int.append(psi_act[study.cas])
            residuals.append(np.linalg.norm(Rs[-1] @ c_int[-1] - psi))
        heffs = []
        for R, dot in zip(Rs, dl.sigma_dot_grid(Rs, dt / 2), strict=True):
            A = R.conj().T @ dot
            heffs.append(projection(H, R, 0.5 * (A - A.conj().T)))
        assert np.abs(np.array(blocks) - np.array(Rs)).max() < 1e-14
        assert np.abs(study.c_int - np.array(c_int)).max() < 1e-14
        assert np.abs(study.residuals - np.array(residuals)).max() < 1e-14
        assert np.abs(study.heffs - np.array(heffs)).max() < 1e-14

    def test_rotation_kernel_runs_once_per_batch(self, monkeypatch):
        # one rotation per target and batch, for the sweep and the replay
        # alike, not one per target and state
        calls = {}
        count_calls(monkeypatch, sweeps_module, "rotation_for_target", calls)
        count_calls(monkeypatch, sweeps_module, "_apply_rotation", calls,
                    key=lambda *args, inverse=False: "replay" if inverse else "sweep")
        basis = dl.build_basis(6, 3)
        part = dl.homo_lumo_partition(6, 3, 1, 1)
        ref = part.reference()
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(3, 1.0, 4.0), basis)
        study = dl.downfolded_quench(H, basis.unit_vector(basis.index_of(ref)), 0.02, 3,
                                     ref, part)
        t1, t2, _ = sweep_targets(dl.determinant_table(basis, ref), part)
        budget = quench_batches(H, study) * (len(t1) + len(t2))
        assert len(study.states) > quench_batches(H, study)
        assert calls["rotation_for_target"] <= budget
        assert 0 < calls["sweep"] <= budget
        assert 0 < calls["replay"] <= budget


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
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]

        def max_dev(dt, nsteps):
            study = dl.downfolded_quench(H, psi0, dt, nsteps, dimer_ref, dimer_part)
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
    @pytest.mark.parametrize("order,expected_rate", [(4, 16.0)])
    def test_convergence_order(self, order, expected_rate):
        freq = 1.3
        mat = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def worst_err(h):
            ts = h * np.arange(12)
            f = [np.sin(freq * t) * mat for t in ts]
            d = dl.sigma_dot_grid(f, h)
            exact = [freq * np.cos(freq * t) * mat for t in ts]
            return max(np.abs(a - b).max() for a, b in zip(d, exact))

        e1, e2 = worst_err(0.01), worst_err(0.005)
        assert e1 / e2 > 0.7 * expected_rate

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            dl.sigma_dot_grid([np.eye(2)] * 4, 0.1)


class TestLagrangians:
    def _sigmas(self, basis, ref, part, rng, scale=0.1):
        table = dl.determinant_table(basis, ref)
        mk = lambda kind: dl.sigma_lowest_order(
            dl.random_amplitudes(table, rng, part, kind, scale), table)
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
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
        states = dl.propagate_full(H, psi0, 0.005, 8)
        sweeps = [dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis)
                  for psi in states]
        deltas = np.array([s.delta for s in sweeps])
        sig_e = [s.sigma_ext for s in sweeps]
        sig_i = [s.sigma_int for s in sweeps]
        dot_e = list(dl.sigma_dot_grid(sig_e, 0.005))
        dot_i = list(dl.sigma_dot_grid(sig_i, 0.005))
        k = 4
        _, _, lc = dl.evaluate_lagrangians(
            H, sig_i[k], sig_e[k], 0.5 * (dot_i[k] - dot_i[k].conj().T),
            0.5 * (dot_e[k] - dot_e[k].conj().T), dimer_ref, dimer_part)
        assert abs(deltas).max() >= 0.0  # deltas smooth enough for differencing
        assert abs(lc.imag) < 1e-8


class TestSesccLagrangian:
    def _amps(self, table, part, rng, kind, scale=0.1):
        return dl.random_amplitudes(table, rng, part, kind, scale)

    def test_reduces_without_lambda_and_ext(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(10)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = np.zeros(m6_basis.size)
        ti = self._amps(m6_table, m6_part, rng, "internal")
        dti = self._amps(m6_table, m6_part, rng, "internal")
        f1, f2 = dl.evaluate_sescc_lagrangian(H, ti, zero, zero, zero, dti, zero,
                                              m6_ref)
        mi = excitation_matrix(ti, m6_table)
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        expected = e_ref.conj() @ (scipy.linalg.expm(-mi) @ (
            1j * (excitation_matrix(dti, m6_table) @ (scipy.linalg.expm(mi) @ e_ref))
            - H.matrix @ (scipy.linalg.expm(mi) @ e_ref)))
        assert abs(f1 - expected) < 1e-12
        assert abs(f2 - expected) < 1e-12

    def test_static_forms_equal(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(11)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        zero = np.zeros(m6_basis.size)
        f1, f2 = dl.evaluate_sescc_lagrangian(
            H, self._amps(m6_table, m6_part, rng, "internal"),
            self._amps(m6_table, m6_part, rng, "external"),
            self._amps(m6_table, m6_part, rng, "internal"),
            self._amps(m6_table, m6_part, rng, "external"),
            zero, zero, m6_ref)
        assert abs(f1 - f2) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forms_equal(self, m6_basis, m6_ref, m6_part, seed, m6_table):
        rng = np.random.default_rng(seed + 20)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        f1, f2 = dl.evaluate_sescc_lagrangian(
            H, self._amps(m6_table, m6_part, rng, "internal"),
            self._amps(m6_table, m6_part, rng, "external"),
            self._amps(m6_table, m6_part, rng, "internal"),
            self._amps(m6_table, m6_part, rng, "external"),
            self._amps(m6_table, m6_part, rng, "internal"),
            self._amps(m6_table, m6_part, rng, "external"), m6_ref)
        assert abs(f1 - f2) < 1e-10

    def test_exponentials_act_on_vectors(self, monkeypatch, m6_basis, m6_ref, m6_part, m6_table):
        # every factor e^{+-T} of both routes acts on a vector, through the
        # configuration's amplitude operators: no dim x dim exponential
        rng = np.random.default_rng(24)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        calls = {}
        count_calls(monkeypatch, ecc, "exp_nilpotent", calls,
                    key=lambda T, V, *args, **kwargs: np.ndim(V))
        dl.evaluate_sescc_lagrangian(H, *(self._amps(m6_table, m6_part, rng, kind)
                                          for kind in ("internal", "external") * 3), m6_ref)
        assert calls == {1: 7}

    def test_external_velocity_leaves_cas(self, m8_basis, m8_ref, m8_part, m8_table):
        # (P+Q_int) dT_ext e^{T_int} |ref> = 0 for any amplitude sets
        rng = np.random.default_rng(12)
        dte = excitation_matrix(
            self._amps(m8_table, m8_part, rng, "external", 0.5), m8_table)
        ti = excitation_matrix(
            self._amps(m8_table, m8_part, rng, "internal", 0.5), m8_table)
        e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
        vec = dte @ (scipy.linalg.expm(ti) @ e_ref)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm((projs.P + projs.Q_int) @ vec) < 1e-13


class TestTdSesccKet:
    def test_residual_second_order_in_dt(self, dimer_basis, dimer_ref, dimer_part, dimer_table):
        # i d/dt e^{T_int}|ref> = Heff(t) e^{T_int}|ref> with T from
        # cluster-analyzing the trajectory; centered differences show O(dt^2)
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
        H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
        psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]
        e_ref = dimer_basis.unit_vector(dimer_basis.index_of(dimer_ref))
        projs = build_projectors(dimer_ref, dimer_basis, dimer_part)
        pq = projs.P + projs.Q_int

        def ket_and_heff(t):
            psi = scipy.linalg.expm(-1j * H.matrix * t) @ psi0
            amps = dl.cluster_analyze(psi, dimer_ref, dimer_basis)
            t_int, t_ext = dl.split_amplitudes(amps, dimer_table, dimer_part)
            me = excitation_matrix(t_ext, dimer_table)
            # the scalar (rank-0) cluster component belongs to the internal
            # part: e^{T_int}|ref> = <ref|psi> e^{T_int,k>=1}|ref>
            c0 = psi[dimer_basis.index_of(dimer_ref)]
            ket = c0 * (scipy.linalg.expm(
                excitation_matrix(t_int, dimer_table)) @ e_ref)
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
    def test_peak_memory_does_not_grow_with_nsteps(self):
        # the column blocks are streamed: only one batch of dim // ncas
        # blocks (70 // 6 = 11 here) and the four earlier blocks the stencil
        # can still reach are alive, whatever the number of steps
        basis = dl.build_basis(8, 4)
        part = dl.homo_lumo_partition(8, 4, 2, 2)
        ref = part.reference()
        H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(4, 1.0, 4.0), basis)
        psi0 = basis.unit_vector(basis.index_of(ref))
        peaks, studies = [], []
        for nsteps in (20, 80):
            tracemalloc.start()
            try:
                studies.append(dl.downfolded_quench(H, psi0, 0.02, nsteps, ref, part))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        generator = basis.size ** 2 * np.dtype(complex).itemsize
        assert peaks[1] < 41 * generator
        # the (2n+1)- and (n+1)-row arrays grow with nsteps; nothing else may
        # grow by as much as one generator
        rows = [sum(a.nbytes for a in (s.states, s.c_int, s.heffs, s.c_rk4))
                for s in studies]
        assert peaks[1] - peaks[0] < generator + rows[1] - rows[0]


class TestTrajectoryCsv:
    def test_columns_and_precision(self, monkeypatch, dimer_H):
        # every field of the propagate task's trajectory reads back to its
        # study's value
        studies = record_returns(monkeypatch, dynamics, "downfolded_quench")
        _, _, artifacts = run_dimer_task("propagate", dt=0.05, nsteps=4, initial="ground")
        (study,) = studies
        lines = artifacts["trajectory.csv"].splitlines()
        assert len(lines) == 1 + 5
        assert lines[0] == "time,energy,norm,cas_weight,heff_eig_0,heff_eig_1"
        for k, line in enumerate(lines[1:]):
            j = 2 * k
            expected = [0.05 * k, study.energies[j], study.norms[j],
                        np.linalg.norm(study.states[j, study.cas]),
                        *np.linalg.eigvalsh(study.heffs[j])]
            assert [float(x) for x in line.split(",")] == expected
        vals, _ = np.linalg.eigh(dimer_H.matrix)
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(vals[0], abs=1e-12)
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
