import numpy as np
import pytest

import ducclab as dl
from ducclab import cli, imagtime
from ducclab.errors import ConvergenceError, OperatorPropertyError

from conftest import record_returns, run_dimer_task, td_projection
from oracles import _dexp_certified


def two_level(e0=0.0, e1=1.0):
    return dl.EffectiveHamiltonian(np.diag([e0, e1]).astype(complex),
                                   np.array([0, 1]), dl.build_basis(2, 1),
                                   "ducc", hermitian=True)


def dimer_heff(dimer_basis, dimer_H, dimer_ref, dimer_part):
    vecs = np.linalg.eigh(dimer_H.matrix)[1]
    sweep = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
    return dl.downfold_ducc(dimer_H, sweep.sigma_ext, dimer_ref, dimer_part)


class TestImaginaryStep:
    def test_ground_eigenvector_is_fixed_point(self):
        heff = two_level(-0.4, 0.9)
        state = dl.initial_flow_state(np.array([1.0, 0.0]), heff)
        new = dl.imaginary_step(state, heff, 0.3)
        assert new.shift == pytest.approx(-0.4)
        assert np.linalg.norm(new.c_int - state.c_int) < 1e-14

    def test_two_level_closed_form(self):
        # diag(0,1), equal weights, dtau = ln 2: the amplitude ratio doubles
        heff = two_level(0.0, 1.0)
        state = dl.initial_flow_state(np.array([1.0, 1.0]) / np.sqrt(2), heff)
        new = dl.imaginary_step(state, heff, np.log(2.0))
        assert new.shift == pytest.approx(0.5)
        assert abs(new.c_int[0] / new.c_int[1]) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.norm(new.c_int) == pytest.approx(1.0)

    def test_shift_sequence_non_increasing(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(5, 5))
        heff = dl.EffectiveHamiltonian((mat + mat.T).astype(complex) / 2,
                                       np.arange(5), dl.build_basis(5, 1),
                                       "ducc", hermitian=True)
        state = dl.initial_flow_state(rng.normal(size=5), heff)
        shifts = [state.shift]
        for _ in range(60):
            state = dl.imaginary_step(state, heff, 0.2)
            shifts.append(state.shift)
        assert all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))
        evals = np.linalg.eigvalsh(heff.matrix)
        assert all(evals[0] - 1e-12 <= s <= evals[-1] + 1e-12 for s in shifts)

    def test_dtau_guard(self):
        heff = two_level()
        state = dl.initial_flow_state(np.array([1.0, 0.0]), heff)
        with pytest.raises(ValueError):
            dl.imaginary_step(state, heff, 0.0)

    def test_non_hermitian_rejected(self):
        heff = two_level()
        heff.hermitian = False
        state = dl.initial_flow_state(np.array([1.0, 0.0]), heff)
        with pytest.raises(OperatorPropertyError):
            dl.imaginary_step(state, heff, 0.1)


class TestImaginaryEvolve:
    def test_ground_start_converges_immediately(self):
        heff = two_level(-1.0, 2.0)
        res = dl.imaginary_evolve(heff, np.array([1.0, 0.0]), dtau=0.1)
        assert res.energy == pytest.approx(-1.0)
        assert len(res.history) <= 3

    def test_dimer_pipeline_reaches_fci(self, dimer_basis, dimer_H, dimer_ref,
                                        dimer_part):
        heff = dimer_heff(dimer_basis, dimer_H, dimer_ref, dimer_part)
        rng = np.random.default_rng(1)
        c0 = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
        res = dl.imaginary_evolve(heff, c0, dtau=0.2, tol=1e-12)
        assert res.energy == pytest.approx(2.0 - 2.0 * np.sqrt(2.0), abs=1e-8)

    def test_orthogonal_start_descends_to_excited(self):
        heff = two_level(0.0, 1.5)
        res = dl.imaginary_evolve(heff, np.array([0.0, 1.0]), dtau=0.1)
        assert res.energy == pytest.approx(1.5)  # documented failure mode

    def test_nonconvergence_raises(self):
        heff = two_level(0.0, 1.0)
        with pytest.raises(ConvergenceError):
            dl.imaginary_evolve(heff, np.array([0.6, 0.8]), dtau=0.01,
                                tol=1e-30, max_steps=5)

    def test_decay_rate_matches_gap(self):
        # squared excited contamination decays as exp(-2 (E1-E0) tau)
        gap = 1.3
        heff = two_level(0.0, gap)
        state = dl.initial_flow_state(np.array([0.8, 0.6]), heff)
        taus, contam = [], []
        for k in range(80):
            state = dl.imaginary_step(state, heff, 0.05)
            if k >= 20:  # drop the early transient
                taus.append(state.tau)
                contam.append(abs(state.c_int[1]) ** 2)
        slope = np.polyfit(taus, np.log(contam), 1)[0]
        assert abs(-slope - 2 * gap) / (2 * gap) < 0.05


class TestNonstationary:
    def test_decaying_schedule_reaches_stationary_limit(self, dimer_basis, dimer_H,
                                                        dimer_ref, dimer_part, dimer_table):
        rng = np.random.default_rng(2)
        vecs = np.linalg.eigh(dimer_H.matrix)[1]
        sweep = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
        pert = dl.sigma_lowest_order(
            dl.random_amplitudes(dimer_table, rng, dimer_part, "external", 0.1),
            dimer_table)

        cas = dl.determinant_table(dimer_basis, dimer_ref).cas(dimer_part)

        def provider(tau):
            s = sweep.sigma_ext + np.exp(-tau) * pert
            sd = -np.exp(-tau) * pert
            return dl.EffectiveHamiltonian(td_projection(dimer_H, s, cas, sd), cas,
                                           dimer_basis, "ducc", hermitian=True)

        state = dl.initial_flow_state(np.array([1.0, 0.3]), provider(0.0))
        a_norms = []
        for _ in range(350):
            a_norms.append(np.linalg.norm(_dexp_certified(
                sweep.sigma_ext + np.exp(-state.tau) * pert,
                -np.exp(-state.tau) * pert, 12)))
            state = dl.imaginary_step(state, provider(state.tau), 0.1)
        heff_stat = dl.downfold_ducc(dimer_H, sweep.sigma_ext, dimer_ref, dimer_part)
        stat = dl.imaginary_evolve(heff_stat, np.array([1.0, 0.3]), dtau=0.1,
                                   tol=1e-12)
        e_ns = (state.c_int.conj() @ (provider(state.tau).matrix @ state.c_int)).real
        assert abs(e_ns - stat.energy) < 1e-7
        # the velocity term dies along the schedule
        assert a_norms[-1] < 1e-12 * max(a_norms)
        assert a_norms[0] > 1e-2


class TestFlowLog:
    def test_csv_round_trip(self, monkeypatch):
        # every field of the imagtime task's log reads back to its flow's value
        flows = record_returns(monkeypatch, imagtime, "imaginary_evolve")
        _, results, artifacts = run_dimer_task("imagtime")
        (res,) = flows
        lines = artifacts["imagtime_flow.csv"].splitlines()
        assert lines[0] == "step,tau,shift,residual"
        assert len(lines) == len(res.history) + 1
        for step, (line, entry) in enumerate(zip(lines[1:], res.history)):
            assert [float(x) for x in line.split(",")] == [step, *entry]
        assert float(lines[-1].split(",")[2]) == res.energy == results["energy"]
