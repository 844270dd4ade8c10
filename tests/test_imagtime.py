from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ducclab as dl
from ducclab import imagtime
from ducclab.errors import ConvergenceError, OperatorPropertyError

from conftest import record_returns, run_dimer_task, td_projection
from oracles import _dexp_certified, shifted_flow


def two_level(e0=0.0, e1=1.0):
    return dl.EffectiveHamiltonian(np.diag([e0, e1]).astype(complex),
                                   np.array([0, 1]), dl.build_basis(2, 1),
                                   "ducc", hermitian=True)


def dimer_heff(dimer_basis, dimer_H, dimer_ref, dimer_part):
    vecs = np.linalg.eigh(dimer_H.matrix)[1]
    sweep = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
    return dl.downfold_ducc(dimer_H, sweep.sigma_ext, dimer_ref, dimer_part)


def flow(heff, c0, dtau, tol=1e-10):
    """The ``(tau, shift, residual)`` history of ``imaginary_evolve``."""
    return dl.imaginary_evolve(heff, np.asarray(c0), dtau=dtau, tol=tol).history


def random_flow(rng):
    """A random Hermitian matrix of 2-6 levels, gaps 0.2-2 apart, and a start."""
    n = int(rng.integers(2, 7))
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    mat = (q * np.cumsum(rng.uniform(0.2, 2.0, n))) @ q.conj().T
    return (mat + mat.conj().T) / 2, rng.normal(size=n) + 1j * rng.normal(size=n)


class TestImaginaryStep:
    def test_ground_eigenvector_is_fixed_point(self):
        res = dl.imaginary_evolve(two_level(-0.4, 0.9), np.array([1.0, 0.0]), dtau=0.3)
        assert [h[1] for h in res.history] == pytest.approx([-0.4, -0.4])
        assert np.linalg.norm(res.c_int - [1.0, 0.0]) < 1e-14

    def test_two_level_closed_form(self):
        # diag(0,1), equal weights, dtau = ln 2: the amplitude ratio doubles,
        # to the state (2, 1)/sqrt(5) of energy 1/5 and residual 2/5
        history = flow(two_level(0.0, 1.0), np.array([1.0, 1.0]) / np.sqrt(2), np.log(2.0))
        assert history[0][1] == pytest.approx(0.5)
        assert history[1] == pytest.approx((np.log(2.0), 0.2, 0.4), abs=1e-12)

    def test_shift_sequence_non_increasing(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(5, 5))
        heff = dl.EffectiveHamiltonian((mat + mat.T).astype(complex) / 2,
                                       np.arange(5), dl.build_basis(5, 1),
                                       "ducc", hermitian=True)
        shifts = [s for _, s, _ in flow(heff, rng.normal(size=5), 0.2, tol=1e-12)]
        assert len(shifts) > 20
        assert all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))
        evals = np.linalg.eigvalsh(heff.matrix)
        assert all(evals[0] - 1e-12 <= s <= evals[-1] + 1e-12 for s in shifts)

    @pytest.mark.parametrize("dtau", [2000.0, 1e300, 1.7e308])
    def test_overflowing_exponent_is_a_zero_factor(self, dtau):
        # dtau (E1 - E0) past the float range: the upper level's factor is
        # exactly 0, and the first step lands on the lower level
        res = dl.imaginary_evolve(two_level(0.0, 1.0), np.array([1.0, 1.0]), dtau=dtau)
        assert [h[1:] for h in res.history[1:]] == [(0.0, 0.0)] * 2
        assert np.abs(res.c_int - [1.0, 0.0]).max() < 1e-15

    def test_start_on_the_lowest_level_keeps_its_vector(self):
        # this start's quotient sits 5.6e-17 below E0 by round-off; its one
        # held component is lambda_lo, so its factor is 1 at any dtau
        heff = two_level(-0.4, 2.0)
        c0 = np.array([1 + 1j, 0.0]) / np.sqrt(2)
        assert imagtime._rayleigh(heff.matrix, c0) < -0.4
        res = dl.imaginary_evolve(heff, c0, dtau=1e300)
        assert len(res.history) == 2
        assert np.abs(res.c_int - c0).max() < 1e-15

    def test_step_without_a_finite_norm_is_refused(self):
        with pytest.raises(ValueError, match="norm nan"):
            dl.imaginary_evolve(two_level(), np.array([np.nan, 0.0]), dtau=0.1)

    @pytest.mark.parametrize("c0", [[0.0, 0.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_start_without_a_finite_positive_norm_is_refused(self, c0):
        # refused before it is divided by its norm: no RuntimeWarning either
        with pytest.raises(ValueError, match="not a finite positive one"):
            dl.imaginary_evolve(two_level(), np.array(c0), dtau=0.1)

    def test_dtau_guard(self):
        for dtau in (0.0, -0.1):
            with pytest.raises(ValueError, match="dtau must be positive"):
                dl.imaginary_evolve(two_level(), np.array([1.0, 0.0]), dtau=dtau)

    def test_non_hermitian_rejected(self):
        heff = two_level()
        heff.hermitian = False
        with pytest.raises(OperatorPropertyError):
            dl.imaginary_evolve(heff, np.array([1.0, 0.0]), dtau=0.1)

    @given(seed=st.integers(0, 2**32 - 1), dtau=st.floats(0.1, 2.0),
           tol=st.floats(1e-10, 1e-6))
    def test_matches_the_reference_stepper(self, seed, dtau, tol):
        # the reference shifts each step by the state's energy, the flow by
        # lambda_lo: the steps differ only by a scalar, so the flow stops
        # after the same number of steps with the same energies
        mat, c0 = random_flow(np.random.default_rng(seed))
        heff = dl.EffectiveHamiltonian(mat, np.arange(len(mat)), dl.build_basis(len(mat), 1),
                                       "ducc", hermitian=True)
        history = flow(heff, c0, dtau, tol)
        states = islice(shifted_flow(lambda tau: mat, c0, dtau), len(history))
        ref = [(tau, float((c.conj() @ mat @ c).real)) for tau, c in states]
        assert next(k for k in range(1, len(ref))
                    if abs(ref[k][1] - ref[k - 1][1]) < tol) == len(history) - 1
        for (tau, energy, _), (ref_tau, ref_energy) in zip(history, ref):
            assert tau == ref_tau
            assert abs(energy - ref_energy) <= 1e-13 * max(1.0, abs(ref_energy))


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
        # squared excited contamination decays as exp(-2 (E1-E0) tau); on
        # diag(0, gap) it is the energy over the gap
        gap = 1.3
        history = flow(two_level(0.0, gap), np.array([0.8, 0.6]), 0.05, tol=1e-12)
        taus, energies, _ = np.array(history[21:81]).T  # drop the early transient
        slope = np.polyfit(taus, np.log(energies / gap), 1)[0]
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
            return td_projection(dimer_H, s, cas, sd)

        *states, (tau, c) = islice(shifted_flow(provider, np.array([1.0, 0.3]), 0.1), 351)
        a_norms = [np.linalg.norm(_dexp_certified(
            sweep.sigma_ext + np.exp(-t) * pert, -np.exp(-t) * pert, 12)) for t, _ in states]
        heff_stat = dl.downfold_ducc(dimer_H, sweep.sigma_ext, dimer_ref, dimer_part)
        stat = dl.imaginary_evolve(heff_stat, np.array([1.0, 0.3]), dtau=0.1,
                                   tol=1e-12)
        e_ns = (c.conj() @ (provider(tau) @ c)).real
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
