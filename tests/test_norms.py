from __future__ import annotations

import math

import numpy as np
import pytest

from shefferkit.engine import PolynomialOnDual, build_basic, build_sheffer, random_polynomial
from shefferkit.families import FamilySpec, log1p_series, make_family
from shefferkit.norms import (
    BoundReport,
    GradedNorm,
    PreconditionError,
    _image_norms,
    appell_condition_check,
    coeff_norm,
    divergence_sweep,
    embedding_check,
    graded_block_norms,
    operator_bound_check,
    quasi_holo_probe,
    sup_norm_estimate,
)
from shefferkit.series import ScalarSeries, VectorSeries, graded_size, monomial_basis
from shefferkit.symtensor import SymCoeff, WeightedInnerProduct

from oracles import (
    fine_grid_sup_1d,
    image_norms_by_block,
    monomial_ratio,
    pointwise_sup,
    random_series,
    random_unit_linear,
)


def monomial(n, dim=1):
    exps = [0] * dim
    exps[0] = n
    return PolynomialOnDual.monomial(dim, tuple(exps))


def one_poly(dim=1):
    return PolynomialOnDual.from_coeffs(dim, [SymCoeff.scalar(dim, 1.0)])


class TestCoeffNorm:
    def test_single_monomial(self):
        for n in (0, 3, 7):
            for alpha, level in ((1.0, 0), (1.0, 2), (0.5, 1), (2.0, 3)):
                got = coeff_norm(monomial(n), GradedNorm(alpha, level))
                want = math.factorial(n) ** (1 / alpha) * 2.0 ** (level * n)
                assert abs(got - want) <= 1e-12 * want

    def test_constant_is_one(self):
        for alpha, level in ((0.5, 0), (1.0, 3), (2.0, 1)):
            assert coeff_norm(one_poly(), GradedNorm(alpha, level)) == 1.0

    def test_exponential_sum_collapses(self):
        p = PolynomialOnDual.from_coeffs(1, [
            SymCoeff.from_coeffs(1, n, {(n,): 1.0 / math.factorial(n)})
            for n in range(8)])
        assert abs(coeff_norm(p, GradedNorm(1.0, 0)) - 8.0) <= 1e-12

    def test_norm_axioms_random(self, rng):
        g = GradedNorm(1.0, 1)
        for _ in range(10):
            p = random_polynomial(2, 5, rng)
            q = random_polynomial(2, 5, rng)
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            scaled = PolynomialOnDual.from_coeffs(2, [c.scale(s) for c in p.coeffs])
            summed = PolynomialOnDual.from_coeffs(
                2, [a + b for a, b in zip(p.coeffs, q.coeffs)])
            assert abs(coeff_norm(scaled, g) - abs(s) * coeff_norm(p, g)) <= 1e-12 * coeff_norm(p, g)
            assert coeff_norm(summed, g) <= coeff_norm(p, g) + coeff_norm(q, g) + 1e-12

    def test_monotone_in_level_and_alpha(self):
        for n in (1, 4, 9):
            p = monomial(n)
            vals_l = [coeff_norm(p, GradedNorm(1.0, l)) for l in range(4)]
            assert all(a < b for a, b in zip(vals_l, vals_l[1:]))
            vals_a = [coeff_norm(p, GradedNorm(alpha, 0)) for alpha in (0.5, 1.0, 2.0, 4.0)]
            assert all(a >= b for a, b in zip(vals_a, vals_a[1:]))


class TestSupEstimate:
    def test_constant(self):
        assert sup_norm_estimate(one_poly(), GradedNorm(1.0, 0)) == 1.0

    def test_linear_attains_1_over_e(self):
        grid = np.linspace(0.0, 3.0, 30001)
        est = sup_norm_estimate(monomial(1), GradedNorm(1.0, 0),
                                directions=4, radial_grid=grid,
                                rng=np.random.default_rng(0))
        assert abs(est - 1 / math.e) <= 1e-8

    def test_matches_fine_grid_oracle(self, rng):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
        p = PolynomialOnDual.from_coeffs(1, [
            SymCoeff.from_coeffs(1, n, {(n,): c}) for n, c in enumerate(coeffs)])
        est = sup_norm_estimate(p, GradedNorm(1.0, 0), directions=256,
                                radial_grid=np.linspace(0, 12, 4001),
                                rng=np.random.default_rng(1))
        oracle = fine_grid_sup_1d(coeffs, 1.0, 0, 12.0)
        assert est <= oracle * (1 + 1e-9)
        assert est >= oracle * 0.999

    def test_monotone_nondecreasing_in_level(self, rng):
        # raising l weakens the damping exp(-2^-l r^alpha), so the sup grows
        p = random_polynomial(2, 4, rng)
        grid = np.linspace(0.0, 20.0, 2001)
        vals = [sup_norm_estimate(p, GradedNorm(1.0, l), directions=16,
                                  radial_grid=grid, rng=np.random.default_rng(7))
                for l in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_zero_polynomial(self):
        assert sup_norm_estimate(PolynomialOnDual.zero(2), GradedNorm(1.0, 0)) == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sup_norm_estimate(monomial(1), GradedNorm(1.0, 0), radial_grid=[])

    def test_out_of_double_range_rejected(self):
        # at level 400 the grid reaches ~1e120 and the sup of |z|^3 times the
        # damping is ~1e361: one error naming the level, never a NaN
        p = PolynomialOnDual.monomial(1, (3,))
        assert math.isfinite(sup_norm_estimate(p, GradedNorm(1.0, 330)))
        with pytest.raises(ValueError, match="at level 400 leaves the double range"):
            sup_norm_estimate(p, GradedNorm(1.0, 400))
        with pytest.raises(ValueError, match="at level 400 leaves the double range"):
            embedding_check(p, 1.0, 400)

    def test_overflowing_powers_are_damped_first(self):
        # r^120 overflows from r ~ 368 on and exp(-r) underflows past 745,
        # while sup r^120 exp(-r) = (120/e)^120 ~ 1.2e197 is in range
        p = PolynomialOnDual.monomial(1, (120,))
        peak = (120 / math.e) ** 120
        est = sup_norm_estimate(p, GradedNorm(1.0, 0), directions=1,
                                radial_grid=np.linspace(0.0, 2000.0, 8001))
        assert est == pytest.approx(peak, rel=1e-12)
        auto = sup_norm_estimate(p, GradedNorm(1.0, 0))
        assert 0.99 * peak <= auto <= peak * (1 + 1e-12)


class TestEmbedding:
    def test_sup_below_forward_bound(self, rng):
        # the literal forward inequality, on its own
        for _ in range(5):
            p = random_polynomial(2, 6, rng)
            lhs = sup_norm_estimate(p, GradedNorm(1.0, 0), rng=np.random.default_rng(2))
            rep = embedding_check(p, 1.0, 0, rng=np.random.default_rng(2))
            l_fwd = rep.params["l_forward"]
            assert lhs <= coeff_norm(p, GradedNorm(1.0, l_fwd)) * (1 + 1e-9)

    def test_monomial_family_alpha_one(self):
        for n in range(13):
            rep = embedding_check(monomial(n), 1.0, 0, rng=np.random.default_rng(3))
            assert rep.passed, (n, rep.measured)

    def test_constant_trivial(self):
        rep = embedding_check(one_poly(), 1.0, 0, rng=np.random.default_rng(4))
        assert rep.passed
        forward = rep.per_degree[0]
        assert abs(forward["lhs"] - 1.0) <= 1e-12
        assert abs(forward["rhs"] - 1.0) <= 1e-12

    def test_random_sweep_all_alphas(self, rng):
        for alpha in (0.5, 1.0, 2.0):
            for dim in (1, 2):
                for _ in range(5):
                    p = random_polynomial(dim, 6, rng)
                    rep = embedding_check(p, alpha, 0, rng=np.random.default_rng(5))
                    assert rep.passed, (alpha, dim, rep.measured)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            embedding_check(PolynomialOnDual.zero(1), 1.0, 0)

    def test_report_shape(self):
        rep = embedding_check(monomial(3), 1.0, 0, rng=np.random.default_rng(6))
        doc = rep.to_json_dict()
        assert set(doc) == {"name", "measured", "bound", "passed", "params",
                            "per_degree", "notes"}
        row = rep.rows[0]
        assert row["name"] == "embedding_check"


class TestOperatorBound:
    def test_identity_sequence(self):
        seq = build_basic(VectorSeries.identity(1, 8), 8)
        rep = operator_bound_check(seq, 1.0, 0)
        assert rep.measured <= 1.0 + 1e-12
        assert rep.passed

    def test_falling_monomials(self):
        seq = build_sheffer(*make_family(FamilySpec("falling", 1, 12)), 12)
        rep = operator_bound_check(seq, 1.0, 0)
        assert abs(rep.params["c5"] - 1.0) <= 1e-9
        assert rep.params["l_prime"] == 2
        assert abs(rep.bound - 1.5) <= 1e-9
        assert rep.passed

    def test_lifted_charlier_d2(self):
        seq = build_sheffer(*make_family(FamilySpec("charlier", 2, 8)), 8)
        rep = operator_bound_check(seq, 1.0, 0)
        assert rep.passed

    def test_small_level_out_rejected(self):
        seq = build_sheffer(*make_family(FamilySpec("falling", 1, 6)), 6)
        with pytest.raises(PreconditionError):
            operator_bound_check(seq, 1.0, 0, level_out=1)

    def test_alpha_above_one_rejected(self):
        seq = build_basic(VectorSeries.identity(1, 4), 4)
        with pytest.raises(ValueError):
            operator_bound_check(seq, 2.0, 0)


class TestAppellCondition:
    def test_hermite_beta_two(self):
        seq = build_sheffer(*make_family(FamilySpec("hermite", 1, 16)), 16)
        rep = appell_condition_check(seq, 2.0)
        assert rep.passed
        assert abs(rep.params["constant_full"] - 1.0) <= 1e-9

    def test_trivial_rho_every_beta(self):
        seq = build_basic(VectorSeries.identity(1, 10), 10)
        for beta in (1.5, 2.0, 4.0):
            rep = appell_condition_check(seq, beta)
            assert rep.passed and rep.params["constant_full"] == 1.0

    @pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
    def test_geometric_rho_fails(self, beta):
        rho = ScalarSeries.from_terms(1, 16, {(k,): 1.0 + 0.0j for k in range(17)})
        seq = build_sheffer(VectorSeries.identity(1, 16), rho, 16)
        rep = appell_condition_check(seq, beta)
        assert not rep.passed

    def test_non_appell_rejected(self):
        seq = build_sheffer(*make_family(FamilySpec("charlier", 1, 6)), 6)
        with pytest.raises(ValueError):
            appell_condition_check(seq, 2.0)


class TestDivergenceSweep:
    def test_identity_all_ones(self):
        seq = build_basic(VectorSeries.identity(1, 12), 12)
        rep = divergence_sweep(seq, 2.0, range(1, 13))
        assert all(abs(r["ratio"] - 1.0) <= 1e-12 for r in rep.rows)
        assert rep.verdict == "bounded"

    def test_falling_alpha_two_unbounded(self):
        seq = build_sheffer(*make_family(FamilySpec("falling", 1, 24)), 24)
        rep = divergence_sweep(seq, 2.0, range(1, 25))
        assert rep.verdict == "unbounded-looking"
        r5 = next(r["ratio"] for r in rep.rows if r["degree"] == 5)
        r24 = next(r["ratio"] for r in rep.rows if r["degree"] == 24)
        assert r24 > 10 * r5
        assert rep.max_step_factor > 3.0

    def test_hermite_alpha_two_bounded(self):
        seq = build_sheffer(*make_family(FamilySpec("hermite", 1, 24)), 24)
        rep = divergence_sweep(seq, 2.0, range(1, 25))
        assert rep.verdict == "bounded"
        assert rep.max_step_factor <= 3.0

    def test_appell_bounded_when_condition_holds(self):
        # growth condition at beta = 2 implies a bounded verdict at alpha = 2
        seq = build_sheffer(*make_family(FamilySpec("hermite", 1, 20)), 20)
        cond = appell_condition_check(seq, 2.0)
        sweep = divergence_sweep(seq, 2.0, range(1, 21))
        assert cond.passed and sweep.verdict == "bounded"

    def test_alpha_validation(self):
        seq = build_basic(VectorSeries.identity(1, 4), 4)
        with pytest.raises(ValueError):
            divergence_sweep(seq, 1.0, range(1, 5))

    def test_csv_rows_schema(self):
        seq = build_basic(VectorSeries.identity(1, 6), 6)
        rep = divergence_sweep(seq, 2.0, range(1, 7))
        assert rep.CSV_FIELDS == ["degree", "ratio", "norm_num", "norm_den"]
        assert set(rep.rows[0]) == set(rep.CSV_FIELDS)


class TestQuasiHoloProbe:
    def test_identity(self):
        rep = quasi_holo_probe(VectorSeries.identity(2, 6))
        assert rep.forward_envelope == 1.0
        assert all(r["forward_norm"] == 0.0 for r in rep.rows if r["degree"] >= 2)

    def test_log1p_block_norms(self):
        rep = quasi_holo_probe(VectorSeries.from_scalar_1d(log1p_series(8)))
        for row in rep.rows:
            assert abs(row["forward_norm"] - 1.0 / row["degree"]) <= 1e-9
        assert abs(rep.forward_envelope - 1.0) <= 1e-9

    def test_inverse_of_log1p_has_factorial_decay(self):
        rep = quasi_holo_probe(VectorSeries.from_scalar_1d(log1p_series(8)))
        for row in rep.rows:
            assert abs(row["inverse_norm"] - 1.0 / math.factorial(row["degree"])) <= 1e-9
        assert rep.inverse_envelope <= 1.0 + 1e-9
        assert rep.comparable

    def test_requires_unit_linear(self):
        bad = VectorSeries.from_scalar_1d(
            ScalarSeries.from_terms(1, 3, {(1,): 2.0}))
        with pytest.raises(ValueError):
            quasi_holo_probe(bad)


class TestBlockNorms:
    def test_diagonal_weight_changes_envelope(self):
        vec = VectorSeries.from_scalar_1d(log1p_series(6))
        ident = graded_block_norms(vec)
        w = WeightedInnerProduct.diagonal([4.0])
        weighted = graded_block_norms(vec, w)
        # domain norm scales by 2^k, codomain by 2: block norm picks up 2^{1-k}
        for (k, n0), (_, nw) in zip(ident, weighted):
            assert abs(nw - n0 * 2.0 ** (1 - k)) <= 1e-9

    def test_random_block_matches_direct_svd(self, rng):
        # oracle: assemble the orthonormalized matrix directly and take its
        # largest singular value with numpy
        from shefferkit.series import monomial_basis
        vec = random_unit_linear(2, 4, rng, decay=2.0)
        norms = dict(graded_block_norms(vec))
        for k in range(1, 5):
            basis = monomial_basis(2, k)
            mat = np.zeros((2, len(basis)), dtype=complex)
            for i, comp in enumerate(vec.components):
                for j, (gamma, c) in enumerate(zip(basis, comp.degree_part(k))):
                    num = 1
                    for e in gamma:
                        num *= math.factorial(e)
                    mat[i, j] = complex(c) * math.sqrt(num / math.factorial(k))
            assert abs(norms[k] - np.linalg.norm(mat, 2)) <= 1e-8


class TestWeightedNorms:
    def test_coeff_norm_diagonal_weight(self):
        w = WeightedInnerProduct.diagonal([4.0])
        for n in (1, 3, 5):
            got = coeff_norm(monomial(n), GradedNorm(1.0, 0, w))
            want = math.factorial(n) * 2.0 ** n
            assert abs(got - want) <= 1e-12 * want

    def test_sup_estimate_diagonal_weight(self):
        # ||z||_dual = |z| / 2 under weight 4, so sup r |z| e^{-r} with
        # r = |z|/2 peaks at |z| = 2 with value 2/e
        w = WeightedInnerProduct.diagonal([4.0])
        est = sup_norm_estimate(monomial(1), GradedNorm(1.0, 0, w),
                                directions=4, radial_grid=np.linspace(0, 6, 60001),
                                rng=np.random.default_rng(9))
        assert abs(est - 2.0 / math.e) <= 1e-7

    def test_embedding_with_weight(self, rng):
        w = WeightedInnerProduct(np.array([[2.0, 0.5], [0.5, 1.0]]))
        for alpha in (1.0, 2.0):
            for _ in range(3):
                p = random_polynomial(2, 5, rng)
                rep = embedding_check(p, alpha, 0, weight=w,
                                      rng=np.random.default_rng(10))
                assert rep.passed, (alpha, rep.measured)

    def test_operator_bound_with_weight(self):
        seq = build_sheffer(*make_family(FamilySpec("falling", 1, 10)), 10)
        w = WeightedInnerProduct.diagonal([2.0])
        rep = operator_bound_check(seq, 1.0, 0, weight=w)
        assert rep.passed


# (dim, order, non-identity weight)
ORACLE_CASES = [
    (1, 10, [[2.5]]),
    (2, 6, [[2.0, 0.5], [0.5, 1.0]]),
    (3, 4, [[2.0, 0.3j, 0.1], [-0.3j, 1.5, 0.2], [0.1, 0.2, 1.0]]),
]
ORACLE_IDS = [f"d{d}-{w}" for d, _, _ in ORACLE_CASES for w in ("plain", "weighted")]


def oracle_cases():
    for dim, order, matrix in ORACLE_CASES:
        for weighted in (False, True):
            yield dim, order, WeightedInnerProduct(np.array(matrix)) if weighted else None


def dense_sequence(dim, order, seed):
    rng = np.random.default_rng(seed)
    a = random_unit_linear(dim, order, rng, decay=2.0)
    return build_sheffer(a, random_series(dim, order, rng, constant=1.0), order)


def close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


class TestAgainstOracles:
    """The block-column and ray routes against a graded apply per monomial
    and an evaluation per point."""

    @pytest.mark.parametrize("dim,order,weight", list(oracle_cases()), ids=ORACLE_IDS)
    def test_operator_bound_ratios(self, dim, order, weight):
        seq = dense_sequence(dim, order, 11 + dim)
        for alpha in (0.5, 1.0):
            rep = operator_bound_check(seq, alpha, 0, weight=weight)
            g_out = GradedNorm(alpha, 0, weight)
            g_in = GradedNorm(alpha, rep.params["l_prime"], weight)
            assert rep.params["samples"] == sum(
                len(monomial_basis(dim, n)) for n in range(order + 1))
            assert [row["degree"] for row in rep.per_degree] == list(range(order + 1))
            for row in rep.per_degree:
                want = max(num / den for num, den in (
                    monomial_ratio(seq, gamma, g_out, g_in)
                    for gamma in monomial_basis(dim, row["degree"])))
                assert close(row["max_ratio"], want), (alpha, row)

    @pytest.mark.parametrize("dim,order,weight", list(oracle_cases()), ids=ORACLE_IDS)
    def test_divergence_rows(self, dim, order, weight):
        seq = dense_sequence(dim, order, 21 + dim)
        rep = divergence_sweep(seq, 2.0, range(1, order + 1), weight=weight)
        g = GradedNorm(2.0, 0, weight)
        for row in rep.rows:
            num, den = monomial_ratio(seq, monomial_basis(dim, row["degree"])[0], g, g)
            assert close(row["norm_num"], num) and close(row["norm_den"], den), row
            assert close(row["ratio"], num / den), row

    @pytest.mark.parametrize("dim,order,weight", list(oracle_cases()), ids=ORACLE_IDS)
    def test_sup_estimate(self, dim, order, weight):
        p = random_polynomial(dim, 5, np.random.default_rng(31 + dim))
        g = GradedNorm(1.0, 0, weight) if weight is None else GradedNorm(2.0, 1, weight)
        est = sup_norm_estimate(p, g, directions=4, radial_grid=32,
                                rng=np.random.default_rng(7))
        assert close(est, pointwise_sup(p, g, 4, 32, np.random.default_rng(7)))


# catalog sequences with a non-identity weight of their dimension
PANEL_CASES = [
    (FamilySpec("charlier", 2, 10, weights=(0.3, 1.5)), [[2.0, 0.5], [0.5, 1.0]]),
    (FamilySpec("hermite", 2, 8, cov=((1.0, 0.25), (0.25, 1.5))), [[1.5, 0.25j], [-0.25j, 1.0]]),
    (FamilySpec("rising", 3, 6), [[2.0, 0.3j, 0.1], [-0.3j, 1.5, 0.2], [0.1, 0.2, 1.0]]),
    (FamilySpec("falling", 1, 20), [[2.5]]),
]


def degree_slices(dim, top):
    return [slice(graded_size(dim, n - 1), graded_size(dim, n)) for n in range(top + 1)]


class TestPanelNorms:
    """One column_norms call per row panel against one per block, bit for bit."""

    @staticmethod
    def assert_matches_blocks(seq, top, g_out, g_in):
        image, own = _image_norms(seq, top, g_out, g_in)
        for n, at in enumerate(degree_slices(seq.dim, top)):
            assert image[at].tobytes() == image_norms_by_block(seq, n, g_out).tobytes(), n
            assert own[at].tobytes() == image_norms_by_block(seq, n, g_in, low=n).tobytes(), n

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("spec, matrix", PANEL_CASES, ids=[s.kind for s, _ in PANEL_CASES])
    def test_reports_match_block_sums(self, spec, matrix, weighted):
        seq = build_sheffer(*make_family(spec), spec.max_degree)
        weight = WeightedInnerProduct(np.array(matrix)) if weighted else None
        top = seq.max_degree
        for alpha, level in ((0.5, 1), (1.0, 0)):
            rep = operator_bound_check(seq, alpha, level, weight=weight)
            g_out = GradedNorm(alpha, level, weight)
            g_in = GradedNorm(alpha, rep.params["l_prime"], weight)
            self.assert_matches_blocks(seq, top, g_out, g_in)
            self.assert_matches_blocks(seq, top // 2, g_out, g_in)
            assert [row["max_ratio"] for row in rep.per_degree] == [
                float(np.max(image_norms_by_block(seq, n, g_out)
                             / image_norms_by_block(seq, n, g_in, low=n))) for n in range(top + 1)]
        g = GradedNorm(2.0, 0, weight)
        sweep = divergence_sweep(seq, 2.0, range(1, top + 1), weight=weight)
        assert [(row["norm_num"], row["norm_den"]) for row in sweep.rows] == [
            (float(image_norms_by_block(seq, n, g)[0]),
             float(image_norms_by_block(seq, n, g, low=n)[0])) for n in range(1, top + 1)]

    def test_columns_past_2_480_rescaled(self):
        # falling blocks at N = 100 hold Stirling numbers past 2^480, whose
        # squares overflow: column_norms sums those columns again, rescaled
        seq = build_sheffer(*make_family(FamilySpec("falling", 1, 100)), 100)
        assert np.abs(seq.matrix).max() >= 2.0 ** 480
        self.assert_matches_blocks(seq, 100, GradedNorm(1.0, 0), GradedNorm(1.0, 2))

    def test_sweep_below_an_overflowing_degree(self):
        # the norm weight (n!)^(1/alpha) leaves the double range at n = 171;
        # a sweep that stops below it reads no panel of that degree
        order = 172
        seq = build_sheffer(VectorSeries.identity(1, order),
                            ScalarSeries.from_coeffs_1d([1.0, 0.5], order), order)
        g = GradedNorm(2.0, 0)
        rep = divergence_sweep(seq, 2.0, [1, 5, 170])
        assert [(row["norm_num"], row["norm_den"]) for row in rep.rows] == [
            (float(image_norms_by_block(seq, n, g)[0]),
             float(image_norms_by_block(seq, n, g, low=n)[0])) for n in (1, 5, 170)]
        self.assert_matches_blocks(seq, 170, g, g)
        for degrees in ([1, 5, 171], [172]):
            with pytest.raises(ValueError, match="at level 0, degree 171$"):
                divergence_sweep(seq, 2.0, degrees)
        with pytest.raises(ValueError, match="at level 0, degree 171$"):
            image_norms_by_block(seq, 172, g)


class TestBoundReport:
    def test_pass_rule_with_slack(self):
        rep = BoundReport("x", measured=1.0 + 5e-10, bound=1.0, params={})
        assert rep.passed
        rep = BoundReport("x", measured=1.0 + 1e-8, bound=1.0, params={})
        assert not rep.passed
