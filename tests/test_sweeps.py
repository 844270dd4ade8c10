import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
import ducclab.sweeps as sweeps
from ducclab.errors import CasSupportError, OrderingViolationError
from ducclab.sweeps import sweep_targets

from conftest import count_calls, random_state
from oracles import (anti_hermiticity_defect, apply_excitation, build_projectors,
                     classify_determinant, rotation_generator, rotation_unitary,
                     scalar_sweep_targets, unitarity_defect)


class TestRotationForTarget:
    def test_zero_coefficient_gives_identity(self, m6_basis, m6_ref):
        state = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        target = m6_basis.determinant(m6_basis.size - 1)
        step = dl.rotation_for_target(state, m6_basis.index_of(target),
                                      dl.determinant_table(m6_basis, m6_ref))
        assert step.angle == 0.0

    def test_real_two_determinant_state(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((2,), (3,))
        det, ph = apply_excitation(sig, m6_ref)
        c0, c1 = 0.9, 0.4
        state = c0 * m6_basis.unit_vector(m6_basis.index_of(m6_ref)) \
            + c1 * m6_basis.unit_vector(m6_basis.index_of(det))
        step = dl.rotation_for_target(state, m6_basis.index_of(det),
                                      dl.determinant_table(m6_basis, m6_ref))
        assert step.angle == pytest.approx(np.arctan(c1 / c0))
        rotated = state.copy()
        from ducclab.sweeps import _apply_rotation
        _apply_rotation(step, dl.excitation_pairs(sig, m6_basis), rotated)
        assert abs(rotated[m6_basis.index_of(det)]) < 1e-14
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(state))

    def test_complex_coefficient(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((1,), (4,))
        det, _ = apply_excitation(sig, m6_ref)
        state = 0.9 * m6_basis.unit_vector(m6_basis.index_of(m6_ref)) \
            + 0.3j * m6_basis.unit_vector(m6_basis.index_of(det))
        step = dl.rotation_for_target(state, m6_basis.index_of(det),
                                      dl.determinant_table(m6_basis, m6_ref))
        from ducclab.sweeps import _apply_rotation
        _apply_rotation(step, dl.excitation_pairs(sig, m6_basis), state)
        assert abs(state[m6_basis.index_of(det)]) < 1e-14

    def test_empty_partner_quarter_turn(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((1,), (4,))
        det, _ = apply_excitation(sig, m6_ref)
        state = 0.7j * m6_basis.unit_vector(m6_basis.index_of(det))
        step = dl.rotation_for_target(state, m6_basis.index_of(det),
                                      dl.determinant_table(m6_basis, m6_ref))
        assert step.angle == pytest.approx(np.pi / 2)
        from ducclab.sweeps import _apply_rotation
        _apply_rotation(step, dl.excitation_pairs(sig, m6_basis), state)
        assert abs(state[m6_basis.index_of(det)]) < 1e-14
        assert abs(state[m6_basis.index_of(m6_ref)]) == pytest.approx(0.7)


class TestRotationUnitary:
    def test_matches_generator_exponential(self, m6_basis):
        step = dl.RotationStep((0, 2), (3, 5), angle=0.47, phase=1.1)
        direct = rotation_unitary(step, m6_basis)
        via_expm = scipy.linalg.expm(rotation_generator(step, m6_basis))
        assert np.abs(direct - via_expm).max() < 1e-12
        assert unitarity_defect(direct) < 1e-13

    def test_generator_anti_hermitian(self, m6_basis):
        step = dl.RotationStep((1,), (4,), angle=0.3, phase=-0.4)
        assert anti_hermiticity_defect(rotation_generator(step, m6_basis)) == 0.0


@pytest.fixture
def sweep_steps(monkeypatch):
    """The rotations of each sweep run of the decompositions in a test, in
    order: for one decomposition, sweeps 1-2 (accumulated into omega12),
    then sweep 3 (into omega3)."""
    runs = []
    run_targets, apply_rotation = sweeps._run_targets, sweeps._apply_rotation

    def run(*args):
        runs.append([])
        return run_targets(*args)

    def apply(step, *args):
        runs[-1].append(step)
        return apply_rotation(step, *args)
    monkeypatch.setattr(sweeps, "_run_targets", run)
    monkeypatch.setattr(sweeps, "_apply_rotation", apply)
    return runs


class TestSweepExternal:
    """Sweeps 1-2 of :func:`ducclab.decompose_state`."""

    def test_cas_state_untouched(self, m8_basis, m8_ref, m8_part, sweep_steps):
        # a state already supported on the active block needs no rotations
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        rng = np.random.default_rng(0)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        psi = (projs.P + projs.Q_int) @ psi
        psi /= np.linalg.norm(psi)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert sweep_steps[0] == []
        assert np.abs(res.sigma_ext).max() == 0.0
        assert np.allclose(res.psi_act, psi)

    def test_hubbard_ground_state(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        psi = np.linalg.eigh(dimer_H.matrix)[1][:, 0]
        res = dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis)
        projs = build_projectors(dimer_ref, dimer_basis, dimer_part)
        assert np.linalg.norm(projs.Q_ext @ res.psi_act) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_state_m8(self, m8_basis, m8_ref, m8_part, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm(projs.Q_ext @ res.psi_act) < 1e-10
        assert res.omega12_defect < 1e-12
        # norm is preserved by the unitary sweeps
        assert np.linalg.norm(res.psi_act) == pytest.approx(1.0, abs=1e-12)

    def test_generator_provenance(self, m8_basis, m8_ref, m8_part, sweep_steps):
        rng = np.random.default_rng(9)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        steps12, steps3 = sweep_steps
        assert res.rotations == len(steps12) + len(steps3)
        # sweep 1 rotates determinants with an inactive hole, sweep 2 the rest
        inactive_hole = [bool(set(step.occ) & set(m8_part.occ_inactive))
                         for step in steps12]
        assert any(inactive_hole) and not all(inactive_hole)
        for step in steps12:
            assert not m8_part.is_internal_signature(step.signature)

    def test_ordering_keys(self, m8_basis, m8_ref, m8_part):
        # sweep-1 groups carry an inactive hole as smallest index; sweep-2
        # groups carry an inactive particle as largest index; the table-driven
        # order equals the determinant-by-determinant one, also for non-aufbau
        # references and arbitrary (but sweep-ordered) partitions
        interleaved = dl.SpinOrbitalPartition((0,), (2, 4, 5), (1, 3), (6, 7),
                                              allow_arbitrary=True)
        dimer_arbitrary = dl.SpinOrbitalPartition((0,), (2,), (1,), (3,),
                                                  allow_arbitrary=True)
        cases = [(m8_basis, m8_ref, m8_part),
                 (m8_basis, interleaved.reference(), interleaved),
                 (dl.build_basis(4, 2), dimer_arbitrary.reference(), dimer_arbitrary),
                 (dl.build_basis(10, 5), dl.aufbau_reference(10, 5),
                  dl.homo_lumo_partition(10, 5, 2, 1))]
        for basis, ref, part in cases:
            targets = sweep_targets(dl.determinant_table(basis, ref), part)
            assert targets == scalar_sweep_targets(ref, part, basis)
            t1, t2, _ = targets
            occ_inact = set(part.occ_inactive)
            virt_inact = set(part.virt_inactive)
            for sig, _ in t1:
                assert sig.occ[0] in occ_inact
            for sig, _ in t2:
                assert not (set(sig.occ) & occ_inact)
                assert sig.virt[-1] in virt_inact
            assert len(t1) + len(t2) == sum(
                1 for d in basis
                if classify_determinant(d, ref, part) is dl.DetClass.EXTERNAL)


class TestSweepInternal:
    """Sweep 3 of :func:`ducclab.decompose_state`."""

    def test_reference_is_fixed_point(self, m6_basis, m6_ref, m6_part):
        psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        res = dl.decompose_state(psi, m6_ref, m6_part, m6_basis)
        assert res.rotations == 0
        assert res.delta == 0.0
        assert np.array_equal(res.psi_act, psi)

    def test_two_determinant_cas_state(self, dimer_basis, dimer_ref, dimer_part,
                                       sweep_steps):
        det, _ = apply_excitation(dl.ExcitationSignature((1,), (2,)), dimer_ref)
        psi = (dimer_basis.unit_vector(dimer_basis.index_of(dimer_ref))
               + dimer_basis.unit_vector(dimer_basis.index_of(det))) / np.sqrt(2)
        dl.decompose_state(psi, dimer_ref, dimer_part, dimer_basis)
        _, steps3 = sweep_steps
        assert len(steps3) == 1
        assert abs(steps3[0].angle) == pytest.approx(np.pi / 4)

    def test_random_cas_state(self, m8_basis, m8_ref, m8_part, sweep_steps):
        rng = np.random.default_rng(1)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        psi = (projs.P + projs.Q_int) @ random_state(m8_basis, rng, m8_ref)
        psi /= np.linalg.norm(psi)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert np.abs(res.sigma_ext).max() == 0.0
        # omega3 = e^{-(sigma_int - i delta)} takes psi onto the reference
        log3 = res.sigma_int - 1j * res.delta * np.eye(m8_basis.size)
        final = scipy.linalg.expm(-log3) @ psi
        assert abs(final[m8_basis.index_of(m8_ref)]) == pytest.approx(1.0, abs=1e-10)
        _, steps3 = sweep_steps
        for step in steps3:
            assert m8_part.is_internal_signature(step.signature)

    def test_external_support_rejected(self, m8_basis, m8_ref, m8_part, monkeypatch):
        # sweeps 1-2 emptied of targets leave the external support to sweep 3
        targets = sweeps.sweep_targets
        monkeypatch.setattr(sweeps, "sweep_targets",
                            lambda table, part: ((), ()) + targets(table, part)[2:])
        rng = np.random.default_rng(2)
        psi = random_state(m8_basis, rng, ref=m8_ref)  # full support
        with pytest.raises(CasSupportError):
            dl.decompose_state(psi, m8_ref, m8_part, m8_basis)


class TestExtractSigmas:
    """The generators that :func:`ducclab.decompose_state` takes as logs of
    the sweep unitaries."""

    def test_identity_maps_to_zero(self, m6_basis, m6_ref, m6_part):
        psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        res = dl.decompose_state(psi, m6_ref, m6_part, m6_basis)
        assert np.linalg.norm(res.sigma_ext) == 0.0
        assert np.linalg.norm(res.sigma_int) == 0.0

    def test_single_rotation_recovers_generator(self, m6_basis, m6_ref, m6_part):
        step = dl.RotationStep((0, 1), (3, 4), angle=0.4, phase=0.2)
        assert set(step.occ) & set(m6_part.occ_inactive)   # a sweep-1 rotation
        omega = rotation_unitary(step, m6_basis)
        # psi = omega^{-1}|ref> = e^{-g}|ref>: the sweep finds omega again,
        # and log(omega^{-1}) is the negated generator
        psi = omega.conj().T @ m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        res = dl.decompose_state(psi, m6_ref, m6_part, m6_basis)
        gen = rotation_generator(step, m6_basis)
        assert np.abs(res.sigma_ext + gen).max() < 1e-12

    def test_phase_absorbed_into_internal(self, m6_basis, m6_ref, m6_part):
        delta = 0.7
        psi = np.exp(1j * delta) * m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        res = dl.decompose_state(psi, m6_ref, m6_part, m6_basis)
        assert res.delta == pytest.approx(delta)
        assert np.linalg.norm(res.sigma_ext) == 0.0
        assert np.allclose(res.sigma_int, 1j * delta * np.eye(m6_basis.size))
        assert anti_hermiticity_defect(res.sigma_int) < 1e-14


class TestDecomposeState:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, m8_basis, m8_ref, m8_part, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert res.residual < 1e-9
        assert anti_hermiticity_defect(res.sigma_ext) < 1e-12
        assert anti_hermiticity_defect(res.sigma_int) < 1e-12

    def test_residual_detects_perturbed_generator(self, m8_basis, m8_ref, m8_part,
                                                  monkeypatch):
        # the residual rebuilds psi from the returned generators alone, so a
        # 1e-6 error in sigma_ext, the log of the first unitary, must show
        rng = np.random.default_rng(8)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        a = rng.normal(size=(m8_basis.size,) * 2) + 1j * rng.normal(size=(m8_basis.size,) * 2)
        kick = 1e-6 * 0.5 * (a - a.conj().T) / np.linalg.norm(a - a.conj().T, 2)
        logm, logs = sweeps.logm_unitary, []

        def perturbed(U):
            log, defect = logm(U)
            logs.append(log)
            return (log + kick if len(logs) == 1 else log), defect

        monkeypatch.setattr(sweeps, "logm_unitary", perturbed)
        assert dl.decompose_state(psi, m8_ref, m8_part, m8_basis).residual > 1e-8

    def test_work_budget(self, m8_basis, m8_ref, m8_part, monkeypatch):
        # the residual comes from the certified series: the only eigh calls
        # of a decomposition are the stacked Cayley ones of logm_unitary
        from ducclab import operators
        eigh, logm = np.linalg.eigh, sweeps.logm_unitary
        calls = {"eigh": 0, "eigh_in_logm": 0}
        inside = []

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            calls["eigh_in_logm"] += bool(inside)
            return eigh(*args, **kwargs)

        def counted_logm(U):
            inside.append(U)
            try:
                return logm(U)
            finally:
                inside.pop()
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(sweeps, "logm_unitary", counted_logm)
        count_calls(monkeypatch, operators, "eigh_direct_sum", calls)
        psi = random_state(m8_basis, np.random.default_rng(11), ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert res.residual < 1e-12
        assert calls["eigh"] == calls["eigh_in_logm"] > 0
        assert "eigh_direct_sum" not in calls
        assert not hasattr(sweeps, "eigh_direct_sum")

    def test_reported_defects_are_those_of_the_omegas(self, m8_basis, m8_ref, m8_part,
                                                      monkeypatch):
        logm, adjoints = sweeps.logm_unitary, []

        def recording(U):
            adjoints.append(U)
            return logm(U)
        monkeypatch.setattr(sweeps, "logm_unitary", recording)
        psi = random_state(m8_basis, np.random.default_rng(12), ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        omega12_adjoint, omega3_adjoint = adjoints
        for defect, adjoint in ((res.omega12_defect, omega12_adjoint),
                                (res.omega3_defect, omega3_adjoint)):
            assert abs(defect - unitarity_defect(adjoint)) < 1e-14

    def test_internal_generator_preserves_cas(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(7)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        ket = scipy.linalg.expm(res.sigma_int) @ m8_basis.unit_vector(
            m8_basis.index_of(m8_ref))
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm(projs.Q_ext @ ket) < 1e-12

    def test_no_reintroduction_monitor_clean(self, m6_basis, m6_ref):
        # the monitor is on by default; a batch of random states across
        # several partitions must never trip it
        for no, nv in ((1, 1), (1, 2), (2, 2), (2, 3)):
            part = dl.homo_lumo_partition(6, 3, no, nv)
            for seed in range(5):
                rng = np.random.default_rng(100 * no + 10 * nv + seed)
                psi = random_state(m6_basis, rng, ref=m6_ref)
                res = dl.decompose_state(psi, m6_ref, part, m6_basis)
                assert res.residual < 1e-9

    def test_arbitrary_partition_with_ordered_classes(self, dimer_basis):
        # interleaved occupied/virtual blocks are fine as long as the
        # inactive classes sit at the index extremes
        part = dl.SpinOrbitalPartition((0,), (2,), (1,), (3,),
                                       allow_arbitrary=True)
        ref = part.reference()
        rng = np.random.default_rng(21)
        psi = random_state(dimer_basis, rng, ref=ref)
        res = dl.decompose_state(psi, ref, part, dimer_basis)
        assert res.residual < 1e-10

    def test_order_violating_partition_rejected(self, dimer_basis):
        from ducclab.errors import InvalidDimensionError
        # an inactive hole above an active one breaks the sweep guarantee
        part = dl.SpinOrbitalPartition((1,), (0,), (2,), (3,),
                                       allow_arbitrary=True)
        ref = part.reference()
        rng = np.random.default_rng(22)
        psi = random_state(dimer_basis, rng, ref=ref)
        with pytest.raises(InvalidDimensionError):
            dl.decompose_state(psi, ref, part, dimer_basis)

    def test_occupied_keyed_second_sweep_regrows(self, dimer_basis, dimer_ref):
        """Keying the second sweep on the smallest hole re-populates an
        eliminated determinant through an internal partner; the largest-
        particle key used by the package avoids this.

        Partition occ_active={0,1}, virt_active={2}, virt_inactive={3}:
        hole-keyed order zeroes |0011> (holes {0,1}) before processing hole-1
        targets, whose rotation couples it to the never-eliminated internal
        determinant |0110>.
        """
        part = dl.SpinOrbitalPartition((), (0, 1), (2,), (3,))
        rng = np.random.default_rng(3)
        psi = random_state(dimer_basis, rng, ref=dimer_ref)

        # package order succeeds
        res = dl.decompose_state(psi, dimer_ref, part, dimer_basis)
        assert res.residual < 1e-10

        # occupied-keyed (smallest-hole ascending) order re-grows a zeroed
        # coefficient: replaying it through the monitored runner trips the
        # ordering check
        from ducclab.sweeps import _run_targets
        table = dl.determinant_table(dimer_basis, dimer_ref)
        t1, t2, _ = sweep_targets(table, part)
        assert not t1
        occ_keyed = sorted(t2, key=lambda sd: (sd[0].occ[0], sd[0].rank, sd[0].occ,
                                               sd[0].virt))
        state = psi.astype(complex).copy()
        omega = np.eye(dimer_basis.size, dtype=complex)
        with pytest.raises(OrderingViolationError):
            _run_targets(state, omega, occ_keyed, table, eliminated=[])
