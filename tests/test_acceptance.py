"""Acceptance battery.

Every criterion is oracle- or property-based at desk scale and prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the measured margins.
"""

import numpy as np
import pytest
import scipy.linalg

import ducclab as dl

from oracles import (_dexp_certified, anti_hermiticity_defect, dexp_series,
                     excitation_matrix, random_hermitian_hamiltonian)

ACTIVE_WINDOWS = ((1, 1), (2, 2), (3, 3))
N_SYSTEMS = 20


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def random_systems(m8_basis):
    """Randomized Hermitian sector Hamiltonians with their ground states."""
    out = []
    for seed in range(N_SYSTEMS):
        rng = np.random.default_rng(1000 + seed)
        H = random_hermitian_hamiltonian(m8_basis, rng)
        vals, vecs = np.linalg.eigh(H.matrix)
        out.append((H, vals, vecs))
    return out


def test_criterion_1_ducc_exactness(random_systems, m8_basis, m8_ref):
    worst_residual = 0.0
    worst_delta = 0.0
    for H, vals, vecs in random_systems:
        for no, nv in ACTIVE_WINDOWS:
            part = dl.homo_lumo_partition(8, 4, no, nv)
            res = dl.decompose_state(vecs[:, 0], m8_ref, part, m8_basis)
            worst_residual = max(worst_residual, res.residual)
            heff = dl.downfold_ducc(H, res.sigma_ext, m8_ref, part)
            evals, _ = dl.cas_eigensolve(heff)
            worst_delta = max(worst_delta, abs(evals[0] - vals[0]))
    ok = worst_residual < 1e-9 and worst_delta < 1e-9
    report(1, "ducc-exactness", ok,
           f"{N_SYSTEMS} systems x {len(ACTIVE_WINDOWS)} active spaces, "
           f"max reconstruction residual {worst_residual:.2e}, "
           f"max |min-eig - E_FCI| {worst_delta:.2e}")


def test_criterion_2_sescc_exactness(random_systems, m8_basis, m8_ref, m8_table):
    worst_delta = 0.0
    worst_deficit = 0.0
    e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
    for H, vals, vecs in random_systems:
        amps = dl.cluster_analyze(vecs[:, 0], m8_ref, m8_basis)
        for no, nv in ACTIVE_WINDOWS:
            part = dl.homo_lumo_partition(8, 4, no, nv)
            t_int, t_ext = dl.split_amplitudes(amps, m8_table, part)
            heff = dl.downfold_sescc(H, t_ext, m8_ref, part)
            target = heff.restrict(
                scipy.linalg.expm(excitation_matrix(t_int, m8_table)) @ e_ref)
            root = dl.match_root(heff, target)
            evals, evecs = heff.eigensystem()
            worst_delta = max(worst_delta, abs(complex(evals[root]) - vals[0]))
            t = target / np.linalg.norm(target)
            worst_deficit = max(worst_deficit,
                                1.0 - abs(np.vdot(evecs[:, root], t)))
    ok = worst_delta < 1e-9 and worst_deficit < 1e-8
    report(2, "sescc-exactness", ok,
           f"max |E_root - E_FCI| {worst_delta:.2e}, "
           f"max eigenvector overlap deficit {worst_deficit:.2e}")


def test_criterion_3_cluster_round_trip(random_systems, m8_basis, m8_ref, m8_table):
    worst_round = 0.0
    worst_resid = 0.0
    e_ref = m8_basis.unit_vector(m8_basis.index_of(m8_ref))
    i0 = m8_basis.index_of(m8_ref)
    for H, vals, vecs in random_systems:
        psi = vecs[:, 0]
        amps = dl.cluster_analyze(psi, m8_ref, m8_basis)
        tmat = excitation_matrix(amps, m8_table)
        recon = scipy.linalg.expm(tmat) @ e_ref
        worst_round = max(worst_round, np.linalg.norm(recon - psi / psi[i0]))
        r = scipy.linalg.expm(-tmat) @ (H.matrix @ (scipy.linalg.expm(tmat) @ e_ref))
        energy = r[i0]
        r = r - energy * e_ref
        worst_resid = max(worst_resid,
                          max(np.linalg.norm(r), abs(energy - vals[0])))
    ok = worst_round < 1e-10 and worst_resid < 1e-9
    report(3, "cluster-round-trip", ok,
           f"max reconstruction {worst_round:.2e}, "
           f"max projected residual/energy error {worst_resid:.2e}")


def test_criterion_4_dexp_series(m6_table):
    dt = 1e-4
    worst_k12 = 0.0
    worst_anti = 0.0
    monotone = True
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(3):
            m = dl.sigma_lowest_order(
                dl.random_amplitudes(m6_table, rng, scale=0.3), m6_table)
            ops.append(m * (0.3 / np.linalg.norm(m, 2)))
        x0, x1, x2 = ops
        X = lambda t: x0 + t * x1 + t * t * x2
        t0 = 0.5
        Xd = x1 + 2 * t0 * x2
        fd = (scipy.linalg.expm(X(t0 + dt)) - scipy.linalg.expm(X(t0 - dt))) / (2 * dt)
        ex = scipy.linalg.expm(X(t0))
        errs = []
        for K in range(13):
            A = dexp_series(X(t0), Xd, K)
            worst_anti = max(worst_anti, anti_hermiticity_defect(A))
            errs.append(np.linalg.norm(ex @ A - fd) / np.linalg.norm(fd))
        worst_k12 = max(worst_k12, errs[-1])
        floor = errs[-1]
        for e1, e2 in zip(errs, errs[1:]):
            if e1 > 10 * floor and e2 >= e1:
                monotone = False
    ok = worst_k12 < 1e-7 and monotone and worst_anti < 1e-12
    report(4, "dexp-series", ok,
           f"K=12 relative error {worst_k12:.2e} vs dt=1e-4 differences, "
           f"monotone={monotone}, max anti-hermiticity defect {worst_anti:.2e}")


def test_criterion_5_td_consistency(dimer_basis, dimer_ref, dimer_part):
    H = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 2.0), dimer_basis)
    H0 = dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 0.0), dimer_basis)
    psi0 = np.linalg.eigh(H0.matrix)[1][:, 0]

    def max_dev(dt, nsteps):
        study = dl.downfolded_quench(H, psi0, dt, nsteps, dimer_ref, dimer_part)
        return study.rk4_deviation.max()

    dev = max_dev(0.01, 500)
    dev_half = max_dev(0.005, 1000)
    ratio = dev / dev_half
    ok = dev < 1e-5 and ratio > 10.0
    report(5, "td-consistency", ok,
           f"dimer quench dt=0.01 x 500 steps: max |c_int deviation| {dev:.2e}, "
           f"halving improves {ratio:.1f}x (~4th order)")


def test_criterion_6_lagrangian_equivalences(m6_basis, m6_ref, m6_part, m6_table):
    rng = np.random.default_rng(42)
    H = random_hermitian_hamiltonian(m6_basis, rng)
    mk = lambda kind: dl.random_amplitudes(m6_table, rng, m6_part, kind, 0.1)
    worst_ducc = 0.0
    worst_biv = 0.0
    for _ in range(100):
        si = dl.sigma_lowest_order(mk("internal"), m6_table)
        se = dl.sigma_lowest_order(mk("external"), m6_table)
        dsi = dl.sigma_lowest_order(mk("internal"), m6_table)
        dse = dl.sigma_lowest_order(mk("external"), m6_table)
        la, lb, lc = dl.evaluate_lagrangians(H, si, se, dsi, dse, m6_ref, m6_part)
        worst_ducc = max(worst_ducc, abs(la - lb), abs(la - lc), abs(lb - lc))
        f1, f2 = dl.evaluate_sescc_lagrangian(
            H, mk("internal"), mk("external"), mk("internal"), mk("external"),
            mk("internal"), mk("external"), m6_ref)
        worst_biv = max(worst_biv, abs(f1 - f2))
    ok = worst_ducc < 1e-9 and worst_biv < 1e-9
    report(6, "lagrangian-equivalences", ok,
           f"100 configurations: max unitary-form deviation {worst_ducc:.2e}, "
           f"max bivariational deviation {worst_biv:.2e}")


def test_criterion_7_imaginary_time(dimer_basis, dimer_H, dimer_ref, dimer_part, dimer_table):
    vals, vecs = np.linalg.eigh(dimer_H.matrix)
    sweep = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
    heff = dl.downfold_ducc(dimer_H, sweep.sigma_ext, dimer_ref, dimer_part)
    rng = np.random.default_rng(0)
    c0 = rng.normal(size=heff.dim) + 1j * rng.normal(size=heff.dim)
    res = dl.imaginary_evolve(heff, c0, dtau=0.1, tol=1e-12)
    shifts = [s for _, s, _ in res.history]
    monotone = all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))
    delta_e = abs(res.energy - vals[0])

    # decay exponent on a two-level flow
    gap = 1.3
    heff2 = dl.EffectiveHamiltonian(np.diag([0.0, gap]).astype(complex),
                                    np.array([0, 1]), dl.build_basis(2, 1),
                                    "ducc", hermitian=True)
    state = dl.initial_flow_state(np.array([0.8, 0.6]), heff2)
    taus, contam = [], []
    for k in range(80):
        state = dl.imaginary_step(state, heff2, 0.05)
        if k >= 20:
            taus.append(state.tau)
            contam.append(abs(state.c_int[1]) ** 2)
    slope = -np.polyfit(taus, np.log(contam), 1)[0]
    exponent_err = abs(slope - 2 * gap) / (2 * gap)

    # velocity term dies under a decaying external schedule
    pert = dl.sigma_lowest_order(
        dl.random_amplitudes(dimer_table, rng, dimer_part, "external", 0.1),
        dimer_table)
    a_norms = [np.linalg.norm(_dexp_certified(
        sweep.sigma_ext + np.exp(-tau) * pert,
        -np.exp(-tau) * pert, 12)) for tau in (0.0, 5.0, 15.0, 30.0)]
    a_dies = a_norms[-1] < 1e-10 * a_norms[0]
    ok = monotone and delta_e < 1e-8 and exponent_err < 0.05 and a_dies
    report(7, "imaginary-time-flow", ok,
           f"monotone={monotone}, |E - E_FCI| {delta_e:.2e}, "
           f"decay exponent off by {100 * exponent_err:.2f}%, "
           f"velocity-term norm {a_norms[0]:.2e} -> {a_norms[-1]:.2e}")


def test_criterion_8_ecc_identities(m6_basis, m6_ref, m6_part, m6_table):
    rng = np.random.default_rng(5)
    H = random_hermitian_hamiltonian(m6_basis, rng)
    mk = lambda kind: dl.random_amplitudes(m6_table, rng, m6_part, kind, 0.1)
    worst_v = worst_w = worst_bch = 0.0
    for _ in range(100):
        m = dl.EccMatrices.build(m6_table, t_int=mk("internal"), t_ext=mk("external"),
                                 x_int=mk("internal"), x_ext=mk("external"),
                                 dt_int=mk("internal"), dt_ext=mk("external"))
        v1, v2, _ = dl.eval_ldt_forms(m, m6_ref)
        w1, w2 = dl.eval_lh_forms(m, H, m6_ref)
        direct, series, _ = dl.x_int_ext_bch(m, m6_part)
        worst_v = max(worst_v, abs(v1 - v2))
        worst_w = max(worst_w, abs(w1 - w2))
        worst_bch = max(worst_bch, float(np.abs(direct - series).max()))
    ok = worst_v < 1e-10 and worst_w < 1e-10 and worst_bch < 1e-12
    report(8, "ecc-identities", ok,
           f"100 configurations: max |v1-v2| {worst_v:.2e}, "
           f"max |w1-w2| {worst_w:.2e}, max series-vs-product {worst_bch:.2e}")


def test_criterion_9_hubbard_dimer_anchor(dimer_basis, dimer_H, dimer_ref,
                                          dimer_part, dimer_table):
    exact = 2.0 - 2.0 * np.sqrt(2.0)
    vals, vecs = np.linalg.eigh(dimer_H.matrix)
    fci_err = abs(vals[0] - exact)

    res = dl.decompose_state(vecs[:, 0], dimer_ref, dimer_part, dimer_basis)
    heff = dl.downfold_ducc(dimer_H, res.sigma_ext, dimer_ref, dimer_part)
    pipeline_err = abs(dl.cas_eigensolve(heff)[0][0] - exact)

    amps = dl.cluster_analyze(vecs[:, 0], dimer_ref, dimer_basis)
    _, t_ext = dl.split_amplitudes(amps, dimer_table, dimer_part)
    heff_s = dl.downfold_sescc(dimer_H, t_ext, dimer_ref, dimer_part)
    svals, _ = heff_s.eigensystem()
    sescc_err = min(abs(complex(v) - exact) for v in svals)

    ok = fci_err < 1e-10 and pipeline_err < 1e-10 and sescc_err < 1e-9
    report(9, "hubbard-dimer-anchor", ok,
           f"t=1 U=4: |E_FCI - (2-2*sqrt(2))| {fci_err:.2e}, "
           f"2-active-spin-orbital CAS pipeline error {pipeline_err:.2e}, "
           f"sescc error {sescc_err:.2e}")
