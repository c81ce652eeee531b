import numpy as np
import pytest

from fermilcu.resources import (
    CostReport,
    ac_costs,
    ac_sel_row,
    beta_bits,
    bit_helpers,
    cswap_row,
    default_precisions,
    df_costs,
    df_select_row,
    givens_row,
    hardness,
    l4_costs,
    l4_mps_costs,
    l4_mps_prep_row,
    l4_mps_sel_row,
    l4_sel_row,
    mu_bits,
    prep_generic_cost,
    prep_row,
    prep_v_row,
    rz_t_cost,
    sparse_costs,
    sparse_prep_row,
    sparse_sel_row,
    sparse_term_count,
    uniform_row,
)

# measured once per fixture; the sparse preparation loads this many coefficients
SPARSE_TERMS = {"h2": 6, "lih": 111, "beh2": 117, "h2o": 168}


class TestBitHelpers:
    def test_examples(self):
        assert bit_helpers(8) == (3, 3, 0)
        assert bit_helpers(3) == (2, 1, 1)
        assert bit_helpers(1) == (0, 0, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bit_helpers(0)

    def test_gap_identity_exhaustive(self):
        import math

        for n in range(1, 2 ** 20 + 1):
            b, k, l = bit_helpers(n)
            assert b == k + l
        for n in (1, 2, 3, 1023, 1024, 1025, 2 ** 20):
            b, k, _ = bit_helpers(n)
            assert b == math.ceil(math.log2(n))
            assert k == math.floor(math.log2(n))


class TestRzCost:
    def test_reference_point(self):
        assert rz_t_cost(2 ** -10) == pytest.approx(40.348, abs=1e-12)

    def test_just_inside_window(self):
        cost = rz_t_cost(0.0156)
        assert cost > 0.0

    @pytest.mark.parametrize("eps", [0.016, 0.02, 0.5, 0.0, -1e-3])
    def test_rejects_outside_window(self, eps):
        with pytest.raises(ValueError):
            rz_t_cost(eps)


class TestRegisterWidths:
    def test_mu_ratio_form(self):
        assert mu_bits(4, 2 ** -10) == 12
        assert mu_bits(4, 0.25) == 4
        assert mu_bits(1, 0.5) == 1

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            mu_bits(0, 0.1)
        with pytest.raises(ValueError):
            mu_bits(4, 1.5)

    def test_beta(self):
        assert beta_bits(2, 1.0, 2 ** -13) == 20
        assert beta_bits(1, 1.0, 0.01) == 13
        assert beta_bits(7, 89.2, 1e-5) == 32

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            beta_bits(0, 1.0, 0.01)
        with pytest.raises(ValueError):
            beta_bits(2, -1.0, 0.01)


class TestDirectiveRows:
    def test_uniform(self):
        row = uniform_row(8)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (0, 3, 0, 2)
        row = uniform_row(3)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (8, 2, 1)
        row = uniform_row(3, controlled=True)
        assert (row.t_gates, row.qubits_nonreusable) == (12, 3)

    def test_cswap(self):
        assert cswap_row(1).t_gates == 7
        row = cswap_row(4)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (28, 9, 0, 0)
        assert cswap_row(10).qubits_nonreusable == 21

    def test_givens(self):
        row = givens_row(2, 20)
        assert (row.t_gates, row.qubits_nonreusable) == (504, 23)
        assert givens_row(1, 2).t_gates == 0
        row = givens_row(7, 30)
        assert (row.t_gates, row.qubits_nonreusable) == (2744, 38)

    def test_prep(self):
        row = prep_row(4, 4)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (54, 13, 7, 2)
        row = prep_row(4, 4, controlled=True)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (62, 14, 8)
        row = prep_row(1, 5)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (36, 13, 9)
        row = prep_row(7, 3)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (73, 12, 5)

    def test_prep_v(self):
        for k, mu in ((4, 4), (1, 5), (7, 3)):
            base = prep_row(k, mu)
            flagged = prep_v_row(k, mu)
            assert flagged.t_gates == base.t_gates + 7
            assert flagged.qubits_nonreusable == base.qubits_nonreusable + 2
            assert flagged.qubits_reusable == base.qubits_reusable
            assert flagged.rz_count == 2

    def test_sparse_prep(self):
        row = sparse_prep_row(6, 2, 14)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (199, 47, 27, 2)
        row = sparse_prep_row(1, 1, 1)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (11, 10, 1)
        row = sparse_prep_row(100, 7, 20)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (735, 79, 39)

    def test_sparse_sel(self):
        row = sparse_sel_row(7)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (208, 30, 5, 0)
        row = sparse_sel_row(2)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (48, 12, 3)
        row = sparse_sel_row(1)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (16, 6, 2)

    def test_ac_sel(self):
        row = ac_sel_row(1, [3], 2)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (0, 5, 0, 4)
        row = ac_sel_row(4, [1, 1, 1, 1], 3)
        assert (row.t_gates, row.qubits_nonreusable, row.rz_count) == (12, 9, 0)
        row = ac_sel_row(5, [3, 2, 1, 1, 1], 2)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (16, 8, 3, 6)

    def test_ac_sel_validation(self):
        with pytest.raises(ValueError):
            ac_sel_row(2, [3], 2)
        with pytest.raises(ValueError):
            ac_sel_row(2, [3, 0], 2)

    def test_l4_sel(self):
        row = l4_sel_row(4, 2, 20)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (4116, 90, 2, 0)
        row = l4_sel_row(1, 1, 10)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (928, 46, 0)
        row = l4_sel_row(16, 3, 25)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (7936, 114, 4)

    def test_l4_mps_sel(self):
        row = l4_mps_sel_row(2, 1, 1, 1, 20)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (4108, 29, 0, 0)
        row = l4_mps_sel_row(2, 2, 3, 2, 20)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (4216, 32, 3)
        row = l4_mps_sel_row(1, 1, 1, 1, 10)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (936, 16, 0)

    def test_l4_mps_sel_symbolic_slope(self):
        for beta in (10, 20, 30):
            assert l4_mps_sel_row(2, 1, 1, 1, beta).t_gates == 224 * beta - 372

    def test_l4_mps_prep(self):
        row = l4_mps_prep_row(2, 1, 1, 1, 4, 3, 3, 3)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (117, 40, 10, 9)
        row = l4_mps_prep_row(1, 1, 1, 1, 2, 2, 2, 2)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (64, 29, 8)
        row = l4_mps_prep_row(4, 2, 4, 2, 5, 5, 5, 5)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable) == (246, 58, 16)

    def test_df_select(self):
        row = df_select_row(2, 2, 4, 20)
        # L (8 + 40 l_N + 16 N + 32 mu + 28 b_N + 8 k_N) with l_2 = 0
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (1416, 20, 38, 16)
        row = df_select_row(1, 3, 2, 10)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (908, 18, 26, 8)
        row = df_select_row(4, 4, 6, 15)
        assert (row.t_gates, row.qubits_nonreusable, row.qubits_reusable,
                row.rz_count) == (2820, 30, 41, 32)


class TestComposedCosts:
    def test_prep_generic_matches_row(self):
        assert prep_generic_cost(4, 0.25).t_gates == 54

    def test_sparse_report(self):
        eps_c = 4e-4
        assert mu_bits(6, eps_c) == 14
        report = sparse_costs(6, 2, eps_c, eps_r=1e-4, lam=2.5)
        assert report.t_sel == 48
        assert report.t_prep == 199
        assert report.t_gates == 48 + 2 * 199
        assert report.rz_count == 4
        assert report.qubits_nonreusable == 12 + 47
        assert report.qubits_reusable == 27
        assert report.rz_tgate_equiv == pytest.approx(4 * rz_t_cost(1e-4))
        expected = 2.5 * (report.t_gates + report.rz_tgate_equiv)
        assert report.hardness == pytest.approx(expected)

    def test_df_report(self):
        report = df_costs(2, 2, 1.0, 0.125, 2 ** -13)
        assert report.params["mu"] == 4
        assert report.params["beta"] == 20
        assert report.t_sel == 1416
        assert report.t_prep == prep_row(2, mu_bits(2, 0.125)).t_gates
        assert report.rz_sel == 16
        assert report.rz_count == 20

    def test_l4_report(self):
        report = l4_costs(4, 2, 1.0, 0.25, 2 ** -13)
        assert report.t_sel == 4116
        assert report.t_prep == 54
        assert report.rz_count == 4

    def test_ac_report(self):
        report = ac_costs(1, [3], 2, 0.25, 1e-4, lam=1.0)
        assert report.t_sel == 0
        assert report.rz_sel == 4
        assert report.rz_count == 8
        assert report.t_prep == prep_row(1, mu_bits(1, 0.25)).t_gates

    def test_l4_mps_report(self):
        report = l4_mps_costs(2, 1, 1, 1, 1.0, 0.25, 2 ** -13)
        sel = l4_mps_sel_row(2, 1, 1, 1, 20)
        assert report.t_sel == sel.t_gates
        assert report.rz_prep == 9
        assert report.rz_count == 18
        assert report.qubits_reusable >= sel.qubits_reusable

    def test_qubit_composition(self):
        report = l4_costs(4, 2, 1.0, 0.25, 2 ** -13)
        sel = l4_sel_row(4, 2, 20)
        prep = prep_row(4, 4)
        assert report.qubits_nonreusable == sel.qubits_nonreusable + prep.qubits_nonreusable
        assert report.qubits_reusable == max(sel.qubits_reusable, prep.qubits_reusable)
        assert report.total_qubits == report.qubits_nonreusable + report.qubits_reusable


class TestHardness:
    def test_reference_point(self):
        report = CostReport("x", t_sel=100, t_prep=50, rz_sel=0, rz_prep=0,
                            qubits_nonreusable=0, qubits_reusable=0)
        assert hardness(report, 2.0) == 400.0

    def test_zero_norm(self):
        report = CostReport("x", 100, 50, 0, 0, 0, 0)
        assert hardness(report, 0.0) == 0.0

    def test_integer_valued_without_rotations(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t_sel, t_prep = rng.integers(1, 10 ** 6, size=2)
            report = CostReport("x", int(t_sel), int(t_prep), 0, 0, 0, 0)
            value = hardness(report, 3.0)
            assert value == int(value)


class TestDefaultPrecisions:
    def test_even_split(self):
        eps_c, eps_r = default_precisions(2.5, 4)
        assert eps_c == pytest.approx(4e-4)
        assert eps_r == pytest.approx(1e-4)

    def test_window_clamp(self):
        eps_c, eps_r = default_precisions(0.01, 1)
        assert eps_r == 0.015
        assert eps_c == 0.1

    def test_rejects_nonpositive_norm(self):
        with pytest.raises(ValueError):
            default_precisions(0.0, 4)


class TestSparseTermCount:
    def test_fixture_counts(self, any_molecule, request):
        from conftest import hamiltonian

        maj = hamiltonian(any_molecule)
        assert sparse_term_count(maj) == SPARSE_TERMS[any_molecule]

    def test_h2_by_hand(self, h2):
        # 2 diagonal one-body entries plus the orbits of
        # (0000), (0011), (0101), (1111)
        assert sparse_term_count(h2) == 6
        off_diag = abs(h2.h_tilde[0, 1])
        assert off_diag <= 1e-5

    def test_matches_independent_orbit_scan(self, h2):
        threshold = 1e-5
        one_body = sum(1 for i in range(2) for j in range(i, 2)
                       if abs(h2.h_tilde[i, j]) > threshold)
        orbits = set()
        for idx in np.ndindex(2, 2, 2, 2):
            if abs(h2.g[idx]) > threshold:
                i, j, k, l = idx
                images = {(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                          (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)}
                orbits.add(min(images))
        assert sparse_term_count(h2, threshold) == one_body + len(orbits)

    def test_threshold_monotone(self, lih):
        counts = [sparse_term_count(lih, t) for t in (1e-8, 1e-5, 1e-2, 1e2)]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0


class TestMonotonicity:
    def test_linear_arguments_strict(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s, n, mu, beta, l, w = (int(v) for v in rng.integers(1, 60, size=6))
            beta += 6
            assert sparse_prep_row(s + 1, n, mu).t_gates >= sparse_prep_row(s, n, mu).t_gates - 8
            assert sparse_prep_row(s, n, mu + 1).t_gates > sparse_prep_row(s, n, mu).t_gates
            assert df_select_row(l + 1, n, mu, beta).t_gates > df_select_row(l, n, mu, beta).t_gates
            assert df_select_row(l, n, mu, beta + 1).t_gates > df_select_row(l, n, mu, beta).t_gates
            assert l4_sel_row(w + 1, n, beta).t_gates > l4_sel_row(w, n, beta).t_gates

    def test_doubling_never_cheaper(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k, mu = (int(v) for v in rng.integers(1, 500, size=2))
            assert prep_row(2 * k, mu).t_gates > prep_row(k, mu).t_gates
            n = int(rng.integers(1, 40))
            beta = int(rng.integers(6, 40))
            l = int(rng.integers(1, 40))
            small = df_select_row(l, n, mu, beta)
            big = df_select_row(2 * l, 2 * n, mu + 1, beta + 1)
            assert big.t_gates > small.t_gates
            assert big.qubits_nonreusable >= small.qubits_nonreusable

    def test_power_of_two_dip_is_bounded(self):
        # the uniform-superposition share vanishes at exact powers of two,
        # so the coefficient load can get cheaper by at most 4 T gates there
        for mu in (2, 5, 9):
            for k in (3, 7, 15, 31):
                drop = prep_row(k, mu).t_gates - prep_row(k + 1, mu).t_gates
                assert 0 <= drop <= 4
