import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ducclab as dl

from oracles import (coupled_class_blocks, dense_ecc_matrices, dense_x_int_ext_bch,
                     eval_ecc_action_integrand, excitation_matrix, random_hermitian_hamiltonian,
                     scatter_class_blocks)


def random_cfg(table, part, rng, scale=0.1):
    """The keyword arguments of :meth:`dl.EccMatrices.build`, drawn in
    this order."""
    mk = lambda kind: dl.random_amplitudes(table, rng, part, kind, scale)
    return {"t_int": mk("internal"), "t_ext": mk("external"),
            "x_int": mk("internal"), "x_ext": mk("external"),
            "dt_int": mk("internal"), "dt_ext": mk("external")}


def dense_ldt_forms(cfg, ref, table):
    """v1, v2, v4 from dense dim x dim exponentials: the reference for the
    operator-vector chains of :func:`dl.eval_ldt_forms`."""
    basis = table.basis
    m = dense_ecc_matrices(cfg, table)
    phi = basis.unit_vector(basis.index_of(ref))
    eXi, eXe, eTi, eTe, eTim, eTem = dense_exponentials(m)
    ket = eTe @ (eTi @ phi)
    v1 = 1j * (phi.conj() @ (eXi @ (eXe @ (eTim @ (eTem @ ((m.dTe + m.dTi) @ ket))))))
    v2 = (1j * (phi.conj() @ (eXi @ (eXe @ (m.dTe @ phi))))
          + 1j * (phi.conj() @ (eXi @ (eTim @ (m.dTi @ (eTi @ phi))))))
    b_full = eTi @ (eXe @ m.dTe) @ eTim
    v4 = (1j * (phi.conj() @ (eXi @ (eTim @ (b_full @ (eTi @ phi)))))
          + 1j * (phi.conj() @ (eXi @ (eTim @ (m.dTi @ (eTi @ phi))))))
    return complex(v1), complex(v2), complex(v4)


def dense_lh_forms(cfg, H, ref):
    """w1, w2 from dense exponentials, e^{+-X^int_ext} by scipy.linalg.expm:
    the reference for the chains of :func:`dl.eval_lh_forms`."""
    basis = H.basis
    m = dense_ecc_matrices(cfg, dl.determinant_table(basis, ref))
    phi = basis.unit_vector(basis.index_of(ref))
    eXi, eXe, eTi, eTe, eTim, eTem = dense_exponentials(m)
    w1 = phi.conj() @ (eXi @ (eXe @ (eTim @ (eTem @ (H.matrix @ (eTe @ (eTi @ phi)))))))
    x_int_ext = eTi @ m.Xe @ eTim
    h_ecc = (scipy.linalg.expm(x_int_ext) @ (eTem @ H.matrix @ eTe)
             @ scipy.linalg.expm(-x_int_ext))
    w2 = phi.conj() @ (eXi @ (eTim @ (h_ecc @ (eTi @ phi))))
    return complex(w1), complex(w2)


def dense_exponentials(m):
    eye = np.eye(m.basis.size)
    return tuple(dl.exp_nilpotent(a, eye, m.basis)
                 for a in (m.Xi, m.Xe, m.Ti, m.Te, -m.Ti, -m.Te))


@pytest.mark.parametrize("fixture", ["m6", "m8"])
@pytest.mark.parametrize("scale", [0.1, 0.5])
class TestChainsMatchDenseProducts:
    @staticmethod
    def system(request, fixture):
        return tuple(request.getfixturevalue(f"{fixture}_{name}")
                     for name in ("table", "ref", "part"))

    def test_ldt_and_lh_forms(self, request, fixture, scale):
        table, ref, part = self.system(request, fixture)
        rng = np.random.default_rng(40)
        for _ in range(3):
            H = random_hermitian_hamiltonian(table.basis, rng)
            cfg = random_cfg(table, part, rng, scale)
            m = dl.EccMatrices.build(table, **cfg)
            got = dl.eval_ldt_forms(m, ref) + dl.eval_lh_forms(m, H, ref)
            want = dense_ldt_forms(cfg, ref, table) + dense_lh_forms(cfg, H, ref)
            assert np.abs(np.subtract(got, want)).max() < 1e-12

    def test_x_int_ext_series_matches_expm(self, request, fixture, scale):
        table, ref, part = self.system(request, fixture)
        basis = table.basis
        rng = np.random.default_rng(41)
        cfg = random_cfg(table, part, rng, scale)
        m, d = dl.EccMatrices.build(table, **cfg), dense_ecc_matrices(cfg, table)
        eye = np.eye(basis.size)
        x = dl.exp_nilpotent(d.Ti, d.Xe, basis) @ dl.exp_nilpotent(-d.Ti, eye, basis)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        for sign in (1, -1):
            want = scipy.linalg.expm(sign * x) @ v
            got = m.exp_x_int_ext(sign, v)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("fixture", ["m6", "m8"])
def test_stacked_brackets_match_each_configuration(request, fixture):
    # B configurations evaluated as one stack, bracket per column, against
    # each evaluated alone
    table, ref, part = (request.getfixturevalue(f"{fixture}_{name}")
                        for name in ("table", "ref", "part"))
    rng = np.random.default_rng(43)
    H = random_hermitian_hamiltonian(table.basis, rng)
    cfgs = [random_cfg(table, part, rng, scale) for scale in (0.1, 0.5, 0.1, 1.0, 0.3)]
    stack = dl.EccMatrices.build(table, **{k: np.stack([c[k] for c in cfgs], axis=1)
                                           for k in cfgs[0]})
    got = dl.eval_ldt_forms(stack, ref) + dl.eval_lh_forms(stack, H, ref)
    assert all(z.shape == (len(cfgs),) for z in got)
    for b, cfg in enumerate(cfgs):
        m = dl.EccMatrices.build(table, **cfg)
        want = dl.eval_ldt_forms(m, ref) + dl.eval_lh_forms(m, H, ref)
        assert all(type(z) is complex for z in want)
        for g, w in zip(got, want):
            assert abs(g[b] - w) <= 1e-14 * max(1.0, abs(w))


def test_series_of_non_nilpotent_map_raises(m6_basis, m6_ref, m6_part, m6_table):
    m = dl.EccMatrices.build(m6_table, **random_cfg(m6_table, m6_part, np.random.default_rng(42)))
    shifted = lambda w: m.Xe @ w + 0.3 * w   # X_ext + 0.3 I is not nilpotent
    v = m6_basis.unit_vector(m6_ref)
    with pytest.raises(ArithmeticError):
        dl.exp_nilpotent(shifted, v, m6_basis, rtol=dl.ecc.X_INT_EXT_RTOL)


class TestLdtForms:
    def test_no_deexcitations(self, m6_basis, m6_ref, m6_part, m6_table):
        # with X = 0 every route reduces to i<ref|e^{-T} dT e^{T}|ref>
        rng = np.random.default_rng(0)
        cfg = random_cfg(m6_table, m6_part, rng)
        cfg["x_int"] = cfg["x_ext"] = np.zeros(m6_table.basis.size)
        v1, v2, v4 = dl.eval_ldt_forms(dl.EccMatrices.build(m6_table, **cfg), m6_ref)
        t_all = excitation_matrix(cfg["t_int"], m6_table) \
            + excitation_matrix(cfg["t_ext"], m6_table)
        dt_all = excitation_matrix(cfg["dt_int"], m6_table) \
            + excitation_matrix(cfg["dt_ext"], m6_table)
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        expected = 1j * (e_ref.conj() @ (scipy.linalg.expm(-t_all)
                                         @ (dt_all @ (scipy.linalg.expm(t_all) @ e_ref))))
        for v in (v1, v2, v4):
            assert abs(v - expected) < 1e-12

    def test_static_configuration_vanishes(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(1)
        cfg = random_cfg(m6_table, m6_part, rng)
        cfg["dt_int"] = cfg["dt_ext"] = np.zeros(m6_basis.size)
        v1, v2, v4 = dl.eval_ldt_forms(dl.EccMatrices.build(m6_table, **cfg), m6_ref)
        assert abs(v1) < 1e-14 and abs(v2) < 1e-14 and abs(v4) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_forms_agree(self, m6_ref, m6_part, seed, m6_table):
        rng = np.random.default_rng(seed)
        cfg = random_cfg(m6_table, m6_part, rng)
        v1, v2, v4 = dl.eval_ldt_forms(dl.EccMatrices.build(m6_table, **cfg), m6_ref)
        assert abs(v1 - v2) < 1e-10
        assert abs(v4 - v1) < 1e-10  # full-product B carries no deviation


class TestLhForms:
    def test_no_external_deexcitation(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(2)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = random_cfg(m6_table, m6_part, rng)
        cfg["x_ext"] = np.zeros(m6_basis.size)
        w1, w2 = dl.eval_lh_forms(dl.EccMatrices.build(m6_table, **cfg), H, m6_ref)
        assert abs(w1 - w2) < 1e-12

    def test_no_internal_excitation(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(3)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = random_cfg(m6_table, m6_part, rng)
        cfg["t_int"] = np.zeros(m6_basis.size)  # X^int_ext collapses onto X_ext
        w1, w2 = dl.eval_lh_forms(dl.EccMatrices.build(m6_table, **cfg), H, m6_ref)
        assert abs(w1 - w2) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_forms_agree(self, m6_basis, m6_ref, m6_part, seed, m6_table):
        rng = np.random.default_rng(seed + 10)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = random_cfg(m6_table, m6_part, rng)
        w1, w2 = dl.eval_lh_forms(dl.EccMatrices.build(m6_table, **cfg), H, m6_ref)
        assert abs(w1 - w2) < 1e-10


class TestActionIntegrand:
    def test_all_zero_amplitudes(self, m6_basis, m6_ref, m6_part):
        rng = np.random.default_rng(4)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = dict.fromkeys(("t_int", "t_ext", "x_int", "x_ext", "dt_int", "dt_ext"),
                            np.zeros(m6_basis.size))
        value, dev = eval_ecc_action_integrand(cfg, H, m6_ref)
        e_ref = m6_basis.unit_vector(m6_basis.index_of(m6_ref))
        assert abs(value - (-(e_ref.conj() @ (H.matrix @ e_ref)))) < 1e-12
        assert dev < 1e-14

    def test_static_configuration_is_minus_energy_form(self, m6_basis, m6_ref, m6_part, m6_table):
        rng = np.random.default_rng(5)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = random_cfg(m6_table, m6_part, rng)
        cfg["dt_int"] = cfg["dt_ext"] = np.zeros(m6_basis.size)
        value, _ = eval_ecc_action_integrand(cfg, H, m6_ref)
        _, w2 = dl.eval_lh_forms(dl.EccMatrices.build(m6_table, **cfg), H, m6_ref)
        assert abs(value - (-w2)) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_deviation_small_for_full_product(self, m6_basis, m6_ref, m6_part, seed, m6_table):
        rng = np.random.default_rng(seed + 20)
        H = random_hermitian_hamiltonian(m6_basis, rng)
        cfg = random_cfg(m6_table, m6_part, rng)
        _, dev = eval_ecc_action_integrand(cfg, H, m6_ref)
        assert dev < 1e-10


class TestOperatorAlgebra:
    def test_excitation_blocks_commute(self, m6_part, m6_table):
        rng = np.random.default_rng(6)
        cfg = random_cfg(m6_table, m6_part, rng, scale=0.5)
        ti = excitation_matrix(cfg["t_int"], m6_table)
        te = excitation_matrix(cfg["t_ext"], m6_table)
        dt = excitation_matrix(cfg["dt_int"], m6_table) \
            + excitation_matrix(cfg["dt_ext"], m6_table)
        assert np.abs(ti @ te - te @ ti).max() < 1e-14
        assert np.abs(dt @ (ti + te) - (ti + te) @ dt).max() < 1e-14

    def test_exponential_inverse_exact(self, m8_basis, m8_table):
        rng = np.random.default_rng(7)
        t = excitation_matrix(dl.random_amplitudes(m8_table, rng, scale=0.5),
                                 m8_table)
        prod = scipy.linalg.expm(-t) @ scipy.linalg.expm(t)
        assert np.abs(prod - np.eye(m8_basis.size)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_bch_series_terminates_and_matches(self, m6_basis, m6_part, seed, m6_table):
        rng = np.random.default_rng(seed + 30)
        cfg = random_cfg(m6_table, m6_part, rng, scale=0.5)
        direct, series, n_terms = dl.x_int_ext_bch(dl.EccMatrices.build(m6_table, **cfg),
                                                    m6_part)
        assert np.abs(direct - series).max() < 1e-12
        assert n_terms <= 3 * min(m6_basis.N, m6_basis.M - m6_basis.N) + 2


#: partitions whose four classes are not contiguous blocks
ARBITRARY_PARTITIONS = [
    dl.SpinOrbitalPartition((1,), (0, 3), (2, 5), (4,), allow_arbitrary=True),
    dl.SpinOrbitalPartition((4,), (0, 2), (1, 5), (3, 6, 7), allow_arbitrary=True),
]


class TestXIntExtBchFromPairLists:
    """:func:`dl.x_int_ext_bch` works on the inactive-occupation class blocks
    that T_int and X_ext fill from their pair lists, and returns them: the
    dense products of the same formulas are its reference, against the
    blocks scattered by a layout the test derives itself."""

    @pytest.mark.parametrize("M,N,window", [(6, 3, (2, 2)), (6, 3, (1, 2)),
                                            (8, 4, (2, 2)), (8, 4, (1, 2))])
    def test_matches_dense_products(self, M, N, window):
        self.check_against_dense(dl.build_basis(M, N), dl.homo_lumo_partition(M, N, *window))

    @pytest.mark.parametrize("part", ARBITRARY_PARTITIONS, ids=["m6", "m8"])
    def test_matches_dense_products_on_arbitrary_partitions(self, part):
        self.check_against_dense(dl.build_basis(part.M, part.N), part)

    @staticmethod
    def check_against_dense(basis, part):
        rng = np.random.default_rng(50)
        table = dl.determinant_table(basis, part.reference())
        for _ in range(2):
            cfg = random_cfg(table, part, rng, 0.5)
            got = dl.x_int_ext_bch(dl.EccMatrices.build(table, **cfg), part)
            want = dense_x_int_ext_bch(cfg, table)
            xe = dense_ecc_matrices(cfg, table).Xe
            for blocks, dense in zip(got[:2], want[:2]):
                scattered = scatter_class_blocks(blocks, xe, basis, part)
                assert np.abs(scattered - dense).max() < 1e-15
            assert got[2] == want[2]

    @pytest.mark.parametrize("M,N,window", [(6, 3, (2, 2)), (8, 4, (1, 2))])
    def test_dense_routes_vanish_outside_the_coupled_blocks(self, M, N, window):
        # why the largest deviation over the blocks is the dense one, bit for bit
        basis, part = dl.build_basis(M, N), dl.homo_lumo_partition(M, N, *window)
        table = dl.determinant_table(basis, part.reference())
        cfg = random_cfg(table, part, np.random.default_rng(55), 0.5)
        xe = dense_ecc_matrices(cfg, table).Xe
        members, pairs = coupled_class_blocks(xe, basis, part)
        inside = np.zeros(xe.shape, dtype=bool)
        for c, d in pairs:
            inside[np.ix_(members[c], members[d])] = True
        direct, series, _ = dense_x_int_ext_bch(cfg, table)
        assert np.any(direct[inside]) and np.any(series[inside])
        assert not np.any(direct[~inside]) and not np.any(series[~inside])

    def test_one_block_per_coupled_class_pair(self, m8_basis, m8_part, m8_table):
        cfg = random_cfg(m8_table, m8_part, np.random.default_rng(56), 0.5)
        direct, series, _ = dl.x_int_ext_bch(dl.EccMatrices.build(m8_table, **cfg), m8_part)
        members, pairs = coupled_class_blocks(dense_ecc_matrices(cfg, m8_table).Xe,
                                              m8_basis, m8_part)
        width = max(len(m) for m in members)
        assert len(pairs) < len(members) ** 2
        assert direct.shape == series.shape == (len(pairs), width, width)

    def test_empty_internal_set(self, m8_basis, m8_part, m8_table):
        cfg = random_cfg(m8_table, m8_part, np.random.default_rng(51), 0.5)
        cfg["t_int"] = np.zeros(m8_table.basis.size)
        m = dl.EccMatrices.build(m8_table, **cfg)
        direct, series, n_terms = dl.x_int_ext_bch(m, m8_part)
        want = dense_x_int_ext_bch(cfg, m8_table)
        xe = dense_ecc_matrices(cfg, m8_table).Xe
        direct, series = (scatter_class_blocks(b, xe, m8_basis, m8_part)
                          for b in (direct, series))
        assert np.array_equal(direct, xe) and np.array_equal(series, xe)
        assert np.abs(direct - want[0]).max() < 1e-15 and n_terms == want[2] == 1

    def test_forms_no_identity_or_dense_exponential(self, monkeypatch, m8_part, m8_table):
        m = dl.EccMatrices.build(
            m8_table, **random_cfg(m8_table, m8_part, np.random.default_rng(52), 0.5))

        def refused(*args, **kwargs):
            raise AssertionError("np.eye called")
        monkeypatch.setattr(np, "eye", refused)
        direct, series, _ = dl.x_int_ext_bch(m, m8_part)
        assert np.abs(direct - series).max() < 1e-12

    def test_configuration_of_a_stack_matches_its_own_build(self, m8_part, m8_table):
        rng = np.random.default_rng(53)
        cfgs = [random_cfg(m8_table, m8_part, rng, 0.5) for _ in range(3)]
        stack = dl.EccMatrices.build(m8_table, **{k: np.stack([c[k] for c in cfgs], axis=1)
                                                  for k in cfgs[0]})
        for b, cfg in enumerate(cfgs):
            got = dl.x_int_ext_bch(stack.config(b), m8_part)
            want = dl.x_int_ext_bch(dl.EccMatrices.build(m8_table, **cfg), m8_part)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(TypeError, match="one configuration"):
            dl.x_int_ext_bch(stack, m8_part)

    def test_refuses_an_internal_set_that_leaves_its_class(self, m8_part, m8_table):
        # an external signature in the T_int slot breaks the direct sum
        cfg = random_cfg(m8_table, m8_part, np.random.default_rng(54), 0.5)
        cfg["t_int"] = cfg["t_ext"]
        with pytest.raises(dl.OperatorPropertyError, match="inactive occupation"):
            dl.x_int_ext_bch(dl.EccMatrices.build(m8_table, **cfg), m8_part)


@settings(max_examples=40)
@given(M=st.integers(2, 8), data=st.data())
def test_internal_pairs_never_leave_their_inactive_class(M, data):
    # any partition, contiguous or not: every pair of an internal amplitude
    # set joins two determinants of one inactive-occupation class
    N = data.draw(st.integers(1, M - 1))
    perm = data.draw(st.permutations(range(M)))
    cuts = sorted(data.draw(st.tuples(st.integers(0, N), st.integers(N, M))))
    occ, virt = perm[:N], perm[N:]
    part = dl.SpinOrbitalPartition(occ[:cuts[0]], occ[cuts[0]:], virt[:cuts[1] - N],
                                   virt[cuts[1] - N:], allow_arbitrary=True)
    basis = dl.build_basis(M, N)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    table = dl.determinant_table(basis, part.reference())
    op = dl.AmplitudeOperator(dl.random_amplitudes(table, rng, part, "internal"), table)
    cls, pos = dl.fock.inactive_classes(basis, part)
    assert np.array_equal(cls[op.lows], cls[op.highs])
    # (cls, pos) places every determinant at its own entry, a class's
    # entries from 0 up in ascending determinant order
    members = np.full((cls.max() + 1, pos.max() + 1), -1)
    members[cls, pos] = np.arange(basis.size)
    assert np.array_equal(members[cls, pos], np.arange(basis.size))
    for row in members:
        held = row[row >= 0]
        assert np.array_equal(row[:held.size], held) and np.all(np.diff(held) > 0)
    inactive = sum(1 << p for p in part.occ_inactive + part.virt_inactive)
    occupation = basis.mask_array & inactive
    assert np.array_equal(occupation[op.lows], occupation[op.highs])
    # one class per inactive occupation
    assert len(members) == len(set(occupation.tolist()))
