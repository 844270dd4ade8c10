import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
from ducclab.errors import CasSupportError, OrderingViolationError
from ducclab.sweeps import sweep_targets

from conftest import random_state
from oracles import (apply_excitation, build_projectors, classify_determinant,
                     rotation_generator, rotation_unitary, scalar_sweep_targets)


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
        via_expm = scipy.linalg.expm(rotation_generator(step, m6_basis).matrix)
        assert np.abs(direct.matrix - via_expm).max() < 1e-12
        assert direct.unitarity_defect() < 1e-13

    def test_generator_anti_hermitian(self, m6_basis):
        step = dl.RotationStep((1,), (4,), angle=0.3, phase=-0.4)
        assert rotation_generator(step, m6_basis).anti_hermiticity_defect() == 0.0


class TestSweepExternal:
    def test_cas_state_untouched(self, m8_basis, m8_ref, m8_part):
        # a state already supported on the active block needs no rotations
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        rng = np.random.default_rng(0)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        psi = (projs.P.matrix + projs.Q_int.matrix) @ psi
        psi /= np.linalg.norm(psi)
        res = dl.sweep_external(psi, m8_ref, m8_part, m8_basis)
        assert np.allclose(res.omega12.matrix, np.eye(m8_basis.size))
        assert not res.steps1 and not res.steps2

    def test_hubbard_ground_state(self, dimer_basis, dimer_H, dimer_ref, dimer_part):
        psi = np.linalg.eigh(dimer_H.matrix)[1][:, 0]
        res = dl.sweep_external(psi, dimer_ref, dimer_part, dimer_basis)
        projs = build_projectors(dimer_ref, dimer_basis, dimer_part)
        assert np.linalg.norm(projs.Q_ext.matrix @ res.psi_act) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_state_m8(self, m8_basis, m8_ref, m8_part, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.sweep_external(psi, m8_ref, m8_part, m8_basis)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm(projs.Q_ext.matrix @ res.psi_act) < 1e-10
        assert res.omega12.unitarity_defect() < 1e-12
        # norm is preserved by the unitary sweeps
        assert np.linalg.norm(res.psi_act) == pytest.approx(1.0, abs=1e-12)

    def test_generator_provenance(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(9)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.sweep_external(psi, m8_ref, m8_part, m8_basis)
        assert res.steps1 and res.steps2
        for step in res.steps1 + res.steps2:
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
    def test_reference_is_fixed_point(self, m6_basis, m6_ref, m6_part):
        psi = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        res = dl.sweep_internal(psi, m6_ref, m6_part, m6_basis)
        assert np.allclose(res.omega3.matrix, np.eye(m6_basis.size))
        assert res.delta == 0.0

    def test_two_determinant_cas_state(self, dimer_basis, dimer_ref, dimer_part):
        det, _ = apply_excitation(dl.ExcitationSignature((1,), (2,)), dimer_ref)
        psi = (dimer_basis.unit_vector(dimer_basis.index_of(dimer_ref))
               + dimer_basis.unit_vector(dimer_basis.index_of(det))) / np.sqrt(2)
        res = dl.sweep_internal(psi, dimer_ref, dimer_part, dimer_basis)
        assert len(res.steps3) == 1
        assert abs(res.steps3[0].angle) == pytest.approx(np.pi / 4)

    def test_random_cas_state(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(1)
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        psi = (projs.P.matrix + projs.Q_int.matrix) @ random_state(m8_basis, rng, m8_ref)
        psi /= np.linalg.norm(psi)
        res = dl.sweep_internal(psi, m8_ref, m8_part, m8_basis)
        final = res.omega3.matrix @ psi
        assert abs(final[m8_basis.index_of(m8_ref)]) == pytest.approx(1.0, abs=1e-10)
        for step in res.steps3:
            assert m8_part.is_internal_signature(step.signature)

    def test_external_support_rejected(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(2)
        psi = random_state(m8_basis, rng, ref=m8_ref)  # full support
        with pytest.raises(CasSupportError):
            dl.sweep_internal(psi, m8_ref, m8_part, m8_basis)


class TestExtractSigmas:
    def test_identity_maps_to_zero(self, m6_basis):
        eye = dl.QOperator.identity(m6_basis)
        s_ext, s_int = dl.extract_sigmas(eye, eye, 0.0)
        assert s_ext.norm() == 0.0
        assert s_int.norm() == 0.0

    def test_single_rotation_recovers_generator(self, m6_basis):
        step = dl.RotationStep((0, 1), (3, 4), angle=0.4, phase=0.2)
        omega = rotation_unitary(step, m6_basis)
        s_ext, _ = dl.extract_sigmas(omega, dl.QOperator.identity(m6_basis), 0.0)
        gen = rotation_generator(step, m6_basis)
        # omega^{-1} = exp(-g), so the log is the negated generator
        assert np.abs(s_ext.matrix + gen.matrix).max() < 1e-12

    def test_phase_absorbed_into_internal(self, m6_basis):
        eye = dl.QOperator.identity(m6_basis)
        delta = 0.7
        _, s_int = dl.extract_sigmas(eye, eye, delta)
        assert np.allclose(s_int.matrix, 1j * delta * np.eye(m6_basis.size))
        assert s_int.anti_hermiticity_defect() < 1e-14


class TestDecomposeState:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, m8_basis, m8_ref, m8_part, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert res.residual < 1e-9
        assert res.sigma_ext.anti_hermiticity_defect() < 1e-12
        assert res.sigma_int.anti_hermiticity_defect() < 1e-12

    def test_residual_detects_perturbed_generator(self, m8_basis, m8_ref, m8_part,
                                                  monkeypatch):
        # the residual rebuilds psi from the returned generators alone, so a
        # 1e-6 error in sigma_ext must show
        import ducclab.sweeps as sweeps
        rng = np.random.default_rng(8)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        a = rng.normal(size=(m8_basis.size,) * 2) + 1j * rng.normal(size=(m8_basis.size,) * 2)
        kick = 1e-6 * 0.5 * (a - a.conj().T) / np.linalg.norm(a - a.conj().T, 2)
        extract = sweeps.extract_sigmas

        def perturbed(omega12, omega3, delta):
            sigma_ext, sigma_int = extract(omega12, omega3, delta)
            return dl.QOperator(sigma_ext.matrix + kick, m8_basis), sigma_int

        monkeypatch.setattr(sweeps, "extract_sigmas", perturbed)
        assert dl.decompose_state(psi, m8_ref, m8_part, m8_basis).residual > 1e-8

    def test_internal_generator_preserves_cas(self, m8_basis, m8_ref, m8_part):
        rng = np.random.default_rng(7)
        psi = random_state(m8_basis, rng, ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        ket = scipy.linalg.expm(res.sigma_int.matrix) @ m8_basis.unit_vector(
            m8_basis.index_of(m8_ref))
        projs = build_projectors(m8_ref, m8_basis, m8_part)
        assert np.linalg.norm(projs.Q_ext.matrix @ ket) < 1e-12

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
            dl.sweep_external(psi, ref, part, dimer_basis)

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
