import numpy as np
import pytest
import scipy.linalg

import ducclab as dl
import ducclab.sweeps as sweeps
from ducclab.errors import CasSupportError, OrderingViolationError
from ducclab.sweeps import sweep_targets

from conftest import count_calls, random_state
from oracles import (anti_hermiticity_defect, apply_excitation, build_projectors,
                     classify_determinant, is_internal_signature, rotation_generator,
                     rotation_unitary, scalar_sweep_targets, signature_pairs,
                     unitarity_defect)


class TestRotationForTarget:
    def test_zero_coefficient_gives_identity(self, m6_basis, m6_ref):
        state = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        target = m6_basis.determinant(m6_basis.size - 1)
        step = dl.rotation_for_target(state, m6_basis.index_of(target),
                                      dl.determinant_table(m6_basis, m6_ref))
        assert step.cos == 1.0 and step.sin == 0.0

    def test_real_two_determinant_state(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((2,), (3,))
        det, ph = apply_excitation(sig, m6_ref)
        c0, c1 = 0.9, 0.4
        state = c0 * m6_basis.unit_vector(m6_basis.index_of(m6_ref)) \
            + c1 * m6_basis.unit_vector(m6_basis.index_of(det))
        step = dl.rotation_for_target(state, m6_basis.index_of(det),
                                      dl.determinant_table(m6_basis, m6_ref))
        # theta = arctan(c1 / c0), in real arithmetic
        assert isinstance(step.sin, float)
        assert step.cos == pytest.approx(c0 / np.hypot(c0, c1))
        assert abs(step.sin) == pytest.approx(c1 / np.hypot(c0, c1))
        rotated = state.copy()
        from ducclab.sweeps import _apply_rotation
        _apply_rotation(step, signature_pairs(sig, m6_basis), rotated)
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
        _apply_rotation(step, signature_pairs(sig, m6_basis), state)
        assert abs(state[m6_basis.index_of(det)]) < 1e-14

    def test_empty_partner_quarter_turn(self, m6_basis, m6_ref):
        sig = dl.ExcitationSignature((1,), (4,))
        det, _ = apply_excitation(sig, m6_ref)
        state = 0.7j * m6_basis.unit_vector(m6_basis.index_of(det))
        step = dl.rotation_for_target(state, m6_basis.index_of(det),
                                      dl.determinant_table(m6_basis, m6_ref))
        assert step.cos == 0.0
        assert abs(step.sin) == pytest.approx(1.0)
        from ducclab.sweeps import _apply_rotation
        _apply_rotation(step, signature_pairs(sig, m6_basis), state)
        assert abs(state[m6_basis.index_of(det)]) < 1e-14
        assert abs(state[m6_basis.index_of(m6_ref)]) == pytest.approx(0.7)

    def test_real_state_phase_is_exactly_pi(self, m6_basis, m6_ref):
        # c = -0.3 against c' = -0.5 ph: z = -c / (ph c') = -0.6, a phase of
        # exactly pi, which a real state keeps as a negative float sin
        sig = dl.ExcitationSignature((2,), (3,))
        det, _ = apply_excitation(sig, m6_ref)
        table = dl.determinant_table(m6_basis, m6_ref)
        j = m6_basis.index_of(det)
        state = np.zeros(m6_basis.size)
        state[j], state[table.ref_index] = -0.3, -0.5 * table.phases[j]
        step = dl.rotation_for_target(state, j, table)
        assert isinstance(step.sin, float) and step.sin < 0.0
        assert step.sin == pytest.approx(-0.6 / np.hypot(1.0, 0.6))
        sweeps._apply_rotation(step, signature_pairs(sig, m6_basis), state)
        assert state.dtype == np.float64
        assert abs(state[j]) < 1e-16
        assert abs(state[table.ref_index]) == pytest.approx(np.hypot(0.3, 0.5))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_dead_and_quarter_columns(self, m6_basis, m6_ref, dtype):
        # columns: target and partner empty, partner empty, target empty, both
        # live; no 0/0 on any of them (a RuntimeWarning fails the test)
        sig = dl.ExcitationSignature((1,), (4,))
        det, _ = apply_excitation(sig, m6_ref)
        table = dl.determinant_table(m6_basis, m6_ref)
        j = m6_basis.index_of(det)
        stack = np.zeros((m6_basis.size, 4), dtype=dtype)
        stack[j] = [0.0, -0.7, 0.0, 0.4]
        stack[table.ref_index] = [0.0, 0.0, 0.9, 0.9]
        step = dl.rotation_for_target(stack, j, table)
        assert step.sin.dtype == stack.dtype
        assert np.array_equal(step.cos[:3], [1.0, 0.0, 1.0])
        assert np.array_equal(step.sin[:3], [0.0, 1.0 / table.phases[j], 0.0])
        assert step.cos[3] == pytest.approx(0.9 / np.hypot(0.9, 0.4))
        rotated = stack.copy()
        sweeps._apply_rotation(step, signature_pairs(sig, m6_basis), rotated)
        assert np.abs(rotated[j]).max() < 1e-16
        assert np.array_equal(rotated[:, [0, 2]], stack[:, [0, 2]])
        assert abs(rotated[table.ref_index, 1]) == pytest.approx(0.7)

    def test_real_rotation_refuses_a_complex_phase(self, m6_basis):
        step = dl.RotationStep((2,), (3,), cos=np.cos(0.3), sin=np.exp(0.5j) * np.sin(0.3))
        with pytest.raises(ValueError, match="complex rotation"):
            sweeps._apply_rotation(step, signature_pairs(step.signature, m6_basis),
                                   np.ones(m6_basis.size))


class TestRotationUnitary:
    def test_matches_generator_exponential(self, m6_basis):
        step = dl.RotationStep((0, 2), (3, 5), cos=np.cos(0.47), sin=np.exp(1.1j) * np.sin(0.47))
        direct = rotation_unitary(step, m6_basis)
        via_expm = scipy.linalg.expm(rotation_generator(step, m6_basis))
        assert np.abs(direct - via_expm).max() < 1e-12
        assert unitarity_defect(direct) < 1e-13

    def test_generator_anti_hermitian(self, m6_basis):
        step = dl.RotationStep((1,), (4,), cos=np.cos(0.3), sin=np.exp(-0.4j) * np.sin(0.3))
        assert anti_hermiticity_defect(rotation_generator(step, m6_basis)) == 0.0


@pytest.fixture
def sweep_steps(monkeypatch):
    """The rotations of each sweep run of the decompositions in a test, in
    order: for one decomposition, sweeps 1-2 (the record of omega12), then
    sweep 3 (that of omega3)."""
    runs = []
    run_targets = sweeps._run_targets

    def run(*args):
        record = run_targets(*args)
        runs.append([step for step, _ in record])
        return record
    monkeypatch.setattr(sweeps, "_run_targets", run)
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
            assert not is_internal_signature(m8_part, step.signature)

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
            table = dl.determinant_table(basis, ref)
            targets = [tuple((table.signatures[j], j) for j in rows.tolist())
                       for rows in sweep_targets(table, part)]
            assert tuple(targets) == scalar_sweep_targets(ref, part, basis)
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
        # a rotation by pi/4
        assert steps3[0].cos == pytest.approx(np.sqrt(0.5))
        assert abs(steps3[0].sin) == pytest.approx(np.sqrt(0.5))

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
            assert is_internal_signature(m8_part, step.signature)

    def test_external_support_rejected(self, m8_basis, m8_ref, m8_part, monkeypatch):
        # sweeps 1-2 emptied of targets leave the external support to sweep 3
        targets = sweeps.sweep_targets
        monkeypatch.setattr(sweeps, "sweep_targets",
                            lambda table, part: (np.zeros(0, int),) * 2
                            + targets(table, part)[2:])
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
        step = dl.RotationStep((0, 1), (3, 4), cos=np.cos(0.4), sin=np.exp(0.2j) * np.sin(0.4))
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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_real_state_matches_complex_arithmetic(self, m8_basis, m8_ref, m8_part,
                                                   monkeypatch, seed, sign):
        # a real state is swept in float64, its global phase exactly 0 or pi
        psi = np.random.default_rng(seed).normal(size=m8_basis.size)
        psi[m8_basis.index_of(m8_ref)] += 2.0
        psi *= sign
        logm, accumulated = sweeps.logm_unitary, []

        def recording(U):
            accumulated.append(U.dtype)
            return logm(U)
        monkeypatch.setattr(sweeps, "logm_unitary", recording)
        real = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        cplx = dl.decompose_state(psi.astype(complex), m8_ref, m8_part, m8_basis)
        assert real.psi_act.dtype == np.float64 and cplx.psi_act.dtype == complex
        assert accumulated == [np.float64, np.float64, complex, complex]
        assert real.delta == (0.0 if sign > 0 else np.pi)
        assert abs(real.delta - abs(cplx.delta)) < 1e-13
        assert np.abs(real.sigma_ext - cplx.sigma_ext).max() < 1e-13
        assert np.abs(real.sigma_int - cplx.sigma_int).max() < 1e-13
        assert abs(real.residual - cplx.residual) < 1e-13
        assert real.rotations == cplx.rotations

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
        # of a decomposition are the stacked block ones of logm_unitary
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
        psi = random_state(m8_basis, np.random.default_rng(11), ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        assert res.residual < 1e-12
        assert calls["eigh"] == calls["eigh_in_logm"] > 0

    def test_builds_the_pair_lists_of_the_rotations_it_applies(self, m8_ref, m8_part,
                                                                monkeypatch):
        # a state on the determinants with the reference's electron count in
        # the even orbitals: every rotation keeps that count, so the targets
        # off the sector stay zero and take no rotation; each rotation
        # applied takes its target row's slice of the table's pair list
        basis = dl.build_basis(8, 4)
        table = dl.determinant_table(basis, m8_ref)
        even = sum(1 << p for p in range(0, 8, 2))
        count = np.bitwise_count(basis.mask_array & even)
        psi = random_state(basis, np.random.default_rng(13), ref=m8_ref)
        psi[count != (m8_ref.occupation & even).bit_count()] = 0.0
        apply, applied = sweeps._apply_rotation, {}

        def recording(step, pairs, arr, inverse=False):
            applied[step.signature] = pairs
            return apply(step, pairs, arr, inverse)
        monkeypatch.setattr(sweeps, "_apply_rotation", recording)
        res = dl.decompose_state(psi, m8_ref, m8_part, basis)
        assert res.residual < 1e-12
        targets = np.concatenate(sweep_targets(table, m8_part))
        assert len(applied) == res.rotations < len(targets)
        for sig, pairs in applied.items():
            row = table.signatures.index(sig)
            assert all(np.shares_memory(a, b)
                       for a, b in zip(pairs, table.pairs(row)))

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
        assert not t1.size
        sig = table.signatures
        occ_keyed = np.array(sorted(t2.tolist(), key=lambda j: (
            sig[j].occ[0], sig[j].rank, sig[j].occ, sig[j].virt)))
        state = psi.astype(complex).copy()
        with pytest.raises(OrderingViolationError):
            _run_targets(state, occ_keyed, table)


class TestReplay:
    """The rotation record of sweeps 1-2 replayed on columns: the columns of
    e^{sigma_ext} = omega12^+, with no logarithm or series."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_columns_of_exp_sigma_ext(self, m8_basis, m8_ref, m8_part, real):
        psi = random_state(m8_basis, np.random.default_rng(31), ref=m8_ref)
        psi = psi.real if real else psi
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        record, psi_act = sweeps.sweep_external(psi, m8_ref, m8_part, m8_basis)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        cols = np.eye(m8_basis.size, dtype=psi.dtype)[:, cas]
        R = sweeps.replay(record, cols.copy())
        assert R.dtype == psi.dtype
        assert np.abs(R - scipy.linalg.expm(res.sigma_ext)[:, cas]).max() < 1e-12
        # replayed on psi_act, the record takes it back to psi
        back = sweeps.replay(record, psi_act)
        assert np.abs(back - psi / np.linalg.norm(psi)).max() < 1e-14

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_identity_replay_is_the_product_of_rotation_adjoints(self, m8_basis, m8_ref,
                                                                  m8_part, real):
        # the one-state record on the identity (one 2x2 product per rotation)
        # against the dense unitaries of its rotations, entry by entry
        psi = random_state(m8_basis, np.random.default_rng(35), ref=m8_ref)
        psi = psi.real if real else psi
        record, _ = sweeps.sweep_external(psi, m8_ref, m8_part, m8_basis)
        omega_adj = np.eye(m8_basis.size)
        for step, _ in record:
            omega_adj = omega_adj @ rotation_unitary(step, m8_basis).conj().T
        R = sweeps.replay(record, np.eye(m8_basis.size, dtype=psi.dtype))
        assert R.dtype == psi.dtype and len(record) > 10
        assert np.abs(R - omega_adj).max() < 1e-14

    def test_sweep_external_is_sweeps_one_and_two(self, m8_basis, m8_ref, m8_part):
        psi = random_state(m8_basis, np.random.default_rng(32), ref=m8_ref)
        res = dl.decompose_state(psi, m8_ref, m8_part, m8_basis)
        record, psi_act = sweeps.sweep_external(psi, m8_ref, m8_part, m8_basis)
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        cols = sweeps.replay(record, np.eye(m8_basis.size, dtype=psi.dtype))[:, cas]
        assert np.array_equal(cols, res.cas_columns)
        assert np.array_equal(psi_act, res.psi_act)

    def test_sweep_external_checks(self, m8_basis, m8_ref, m8_part):
        from ducclab.errors import IntermediateNormalizationError
        with pytest.raises(IntermediateNormalizationError, match="zero vector"):
            sweeps.sweep_external(np.zeros(m8_basis.size), m8_ref, m8_part, m8_basis)
        psi = np.zeros(m8_basis.size)
        psi[m8_basis.size - 1] = 1.0
        with pytest.raises(IntermediateNormalizationError, match="reference overlap"):
            sweeps.sweep_external(psi, m8_ref, m8_part, m8_basis)


class TestStack:
    """Sweeps 1-2 and the replay on a ``(dim, B)`` stack of states: one pass
    over the targets for the stack, state b taking its own rotations."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_equals_one_call_per_state(self, m8_basis, m8_ref, m8_part, real):
        rng = np.random.default_rng(33)
        stack = np.stack([random_state(m8_basis, rng, ref=m8_ref) for _ in range(4)], axis=1)
        # a CAS-supported state among them: no rotations of its own
        cas = dl.determinant_table(m8_basis, m8_ref).cas(m8_part)
        stack[np.setdiff1d(np.arange(m8_basis.size), cas), 2] = 0.0
        stack = stack.real if real else stack
        record, psi_act = sweeps.sweep_external(stack, m8_ref, m8_part, m8_basis)
        assert psi_act.dtype == stack.dtype
        cols = np.repeat(np.eye(m8_basis.size, dtype=stack.dtype)[:, cas, None], 4, axis=2)
        R = sweeps.replay(record, cols)
        assert R.dtype == stack.dtype
        for b, psi in enumerate(stack.T):
            single, act = sweeps.sweep_external(psi, m8_ref, m8_part, m8_basis)
            steps = {step.signature: step for step, _ in single}
            for step, _ in record:
                alone = steps.pop(step.signature, None)
                assert step.cos[b] == (1.0 if alone is None else alone.cos)
                assert step.sin[b] == (0.0 if alone is None else alone.sin)
            assert steps == {}
            assert np.array_equal(psi_act[:, b], act)
            alone = sweeps.replay(single, np.eye(m8_basis.size, dtype=psi.dtype)[:, cas])
            assert np.abs(R[..., b] - alone).max() < 1e-15
        if real:
            for step, _ in record:
                assert step.cos.dtype == step.sin.dtype == np.float64

    def test_zero_overlap_state_fails_its_stack(self, m8_basis, m8_ref, m8_part):
        from ducclab.errors import IntermediateNormalizationError
        rng = np.random.default_rng(34)
        stack = np.stack([random_state(m8_basis, rng, ref=m8_ref) for _ in range(3)], axis=1)
        stack[m8_basis.index_of(m8_ref), 1] = 0.0
        with pytest.raises(IntermediateNormalizationError,
                           match="zero reference overlap .stack column 1.") as info:
            sweeps.sweep_external(stack, m8_ref, m8_part, m8_basis)
        assert info.value.state == 1

    def test_occupied_keyed_order_fails_a_stack(self, dimer_basis, dimer_ref):
        # the order of test_occupied_keyed_second_sweep_regrows on a stack
        part = dl.SpinOrbitalPartition((), (0, 1), (2,), (3,))
        table = dl.determinant_table(dimer_basis, dimer_ref)
        _, t2, _ = sweep_targets(table, part)
        sig = table.signatures
        occ_keyed = np.array(sorted(t2.tolist(), key=lambda j: (
            sig[j].occ[0], sig[j].rank, sig[j].occ, sig[j].virt)))
        rng = np.random.default_rng(3)
        stack = np.stack([random_state(dimer_basis, rng, ref=dimer_ref) for _ in range(3)],
                         axis=1)
        with pytest.raises(OrderingViolationError, match="stack column"):
            sweeps._run_targets(stack, occ_keyed, table)
