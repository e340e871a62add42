from __future__ import annotations

import itertools
import json
from fractions import Fraction as F

import numpy as np
import pytest

from shefferkit import series
from shefferkit.series import (
    ScalarSeries,
    VectorSeries,
    _pairs,
    _product_table,
    graded_size,
    monomial_basis,
    ps_compose,
    ps_derivative,
    ps_exp,
    ps_log,
    ps_mul,
    ps_recip,
    vs_compose,
    vs_inverse,
)
from shefferkit.symtensor import SymCoeff, sym_product

from conftest import series_diff, vector_diff
from oracles import (
    dict_product,
    exponent_sum_table,
    geometric_recip,
    inverse_by_degree,
    masked_pairs,
    mercator_log,
    naive_compose,
    random_series,
    random_unit_linear,
    recip_triangular_1d,
    taylor_exp,
)


def u_series(order, exact=False):
    return ScalarSeries.variable(1, order, 0, exact=exact)


def one(order, exact=False, dim=1):
    return ScalarSeries.one(dim, order, exact=exact)


class TestMul:
    def test_telescoping(self):
        a = ScalarSeries.from_coeffs_1d([1, 1], 3)
        b = ScalarSeries.from_coeffs_1d([1, -1], 3)
        p = ps_mul(a, b)
        assert p.coefficient((0,)) == 1
        assert p.coefficient((2,)) == -1
        assert p.coefficient((1,)) == 0 and p.coefficient((3,)) == 0

    def test_bivariate(self):
        x = ScalarSeries.from_terms(2, 2, {(0, 0): 1, (1, 0): 1})
        y = ScalarSeries.from_terms(2, 2, {(0, 0): 1, (0, 1): 1})
        p = ps_mul(x, y)
        assert p.terms == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

    def test_exp_times_exp_minus(self):
        e1 = ps_exp(u_series(6))
        e2 = ps_exp(u_series(6).scale(-1))
        p = ps_mul(e1, e2)
        assert p.constant_term == 1
        assert all(abs(complex(c)) < 1e-14
                   for exps, c in p.terms.items() if sum(exps) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ps_mul(ScalarSeries.one(1, 3), ScalarSeries.one(2, 3))

    def test_truncates_to_min(self):
        a = ScalarSeries.from_coeffs_1d([1, 1, 1, 1], 3)
        b = ScalarSeries.from_coeffs_1d([1, 1], 5)
        assert ps_mul(a, b).max_degree == 3

    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 8), (3, 6), (4, 5)])
    def test_matches_dict_oracle(self, rng, dim, order):
        # sparse and dense operands, plus a single term times a dense series;
        # exact series match the oracle exactly, float ones to 1e-15 relative
        def operand(keep, exact):
            terms = {}
            for deg in range(order + 1):
                for b in monomial_basis(dim, deg):
                    if rng.uniform() < keep:
                        terms[b] = F(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) \
                            if exact else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return ScalarSeries.from_terms(dim, order, terms)

        def check(a, b, exact):
            prod = ps_mul(a, b)
            got, want = prod.terms, dict_product(a, b)
            if exact:
                assert got == want
                assert prod.exact and all(type(c) in (int, F) for c in prod.vec)
                return prod
            scale = max((abs(c) for c in want.values()), default=1.0)
            assert max((abs(got.get(e, 0) - want.get(e, 0))
                        for e in got.keys() | want.keys()), default=0.0) <= 1e-15 * scale
            return prod

        for exact in (True, False):
            single = ScalarSeries.from_terms(
                dim, order, {monomial_basis(dim, 2)[-1]: F(3, 7) if exact else 0.3 - 0.7j})
            pairs = [(operand(keep, exact), operand(keep, exact))
                     for keep in (0.1, 0.3, 1.0) for _ in range(3)]
            pairs += [(single, operand(1.0, exact)), (operand(1.0, exact), single)]
            for a, b in pairs:
                check(a, b, exact)

        def over(dens, ints=False):
            # dense exact operand with the given denominators in basis order
            keys = [b for deg in range(order + 1) for b in monomial_basis(dim, deg)]
            return ScalarSeries.from_terms(dim, order, {
                b: int(rng.integers(-9, 10)) if ints else F(int(rng.integers(-99, 100)), den)
                for b, den in zip(keys, dens)})

        # exact operands: denominators near 10^6, pairwise coprime and then
        # shared; an all-zero operand on either side
        size = len(ScalarSeries.zero(dim, order).vec)
        primes = list(itertools.islice((p for p in range(10 ** 6 - 1, 10 ** 5, -2)
                                        if all(p % q for q in range(3, 1000, 2))), 2 * size))
        zero = ScalarSeries.zero(dim, order)
        for a, b in [(over(primes[:size]), over(primes[size:])),
                     (over(primes[:size]), over(primes[:size])),
                     (zero, operand(1.0, True)), (operand(1.0, True), zero)]:
            check(a, b, True)
        # (c + s)(c - s) = c^2 - s^2: the degree 1 part cancels to exactly zero
        rest = operand(1.0, True)
        rest = rest - ScalarSeries.constant(dim, order, rest.constant_term)
        const = ScalarSeries.constant(dim, order, F(2, 3))
        assert not np.any(check(const + rest, const - rest, True).degree_part(1))
        # int operands give int entries
        ints = check(over([1] * size, ints=True), over([1] * size, ints=True), True)
        assert all(type(c) is int for c in ints.vec)

    def test_ring_laws_random(self, rng):
        worst = 0.0
        for _ in range(10):
            a = random_series(2, 5, rng)
            b = random_series(2, 5, rng)
            c = random_series(2, 5, rng)
            worst = max(worst, series_diff(ps_mul(ps_mul(a, b), c),
                                           ps_mul(a, ps_mul(b, c))))
            worst = max(worst, series_diff(ps_mul(a, b), ps_mul(b, a)))
        assert worst <= 1e-12


class TestExpLog:
    def test_exp_1d_coeffs(self):
        e = ps_exp(u_series(3, exact=True))
        assert [e.coefficient((k,)) for k in range(4)] == [1, 1, F(1, 2), F(1, 6)]

    def test_exp_multinomial(self):
        import math
        a = ScalarSeries.from_terms(2, 4, {(1, 0): F(1), (0, 1): F(1)})
        e = ps_exp(a)
        for i in range(5):
            for j in range(5 - i):
                assert e.coefficient((i, j)) == F(1, math.factorial(i) * math.factorial(j))

    def test_exp_log_identity_pair(self):
        for order in (3, 7, 12):
            a = one(order, exact=True) + u_series(order, exact=True)
            assert ps_exp(ps_log(a)) == a

    def test_log_exp_pair(self):
        s = ScalarSeries.from_terms(1, 9, {(1,): F(1), (3,): F(-1)})
        assert ps_log(ps_exp(s)) == s

    def test_log_coeffs(self):
        lg = ps_log(one(5, exact=True) + u_series(5, exact=True))
        assert [lg.coefficient((k,)) for k in range(1, 6)] == [
            F(1), F(-1, 2), F(1, 3), F(-1, 4), F(1, 5)]

    def test_log_of_geometric(self):
        geo = ps_recip(one(6, exact=True) - u_series(6, exact=True))
        lg = ps_log(geo)
        assert [lg.coefficient((k,)) for k in range(1, 7)] == [F(1, k) for k in range(1, 7)]

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            ps_exp(one(3))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            ps_log(u_series(3))


class TestRecip:
    def test_geometric(self):
        r = ps_recip(one(6, exact=True) - u_series(6, exact=True))
        assert [r.coefficient((k,)) for k in range(7)] == [1] * 7

    def test_exp_reciprocal(self):
        r = ps_recip(ps_exp(u_series(6, exact=True)))
        assert r == ps_exp(u_series(6, exact=True).scale(-1))

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            ps_recip(u_series(4))

    def test_random_against_triangular_solve(self, rng):
        for _ in range(10):
            a = random_series(1, 8, rng, constant=1.0 + 0.0j)
            r = ps_recip(a)
            resid = ps_mul(a, r) - one(8)
            assert series_diff(resid, ScalarSeries.zero(1, 8)) <= 1e-12
            oracle = recip_triangular_1d(
                [complex(a.coefficient((k,))) for k in range(9)], 8)
            got = [complex(r.coefficient((k,))) for k in range(9)]
            assert max(abs(x - y) for x, y in zip(got, oracle)) <= 1e-12


def signed_rational_series(dim, order, rng, constant):
    """Dense exact series with the given constant term; the degree-k
    coefficients are +-1..5 / (3 2^k): non-dyadic, so rounding them to
    double is not exact, and about 2^-k in size."""
    numerators = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
    terms = {b: F(int(rng.choice(numerators)), 3 * 2 ** k)
             for k in range(1, order + 1) for b in monomial_basis(dim, k)}
    terms[(0,) * dim] = constant
    return ScalarSeries.from_terms(dim, order, terms)


class TestRecurrences:
    # exp, log and the reciprocal against the Taylor, Mercator and geometric
    # sums; in Fraction mode both routes are exact
    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 7), (3, 5), (4, 4)])
    def test_exact_match_power_sum_oracles(self, rng, dim, order):
        def rational(deg):
            return F(int(rng.integers(-9, 10)), int(rng.integers(1, 9)) * 2 ** deg)

        dense = ScalarSeries.from_terms(dim, order, {
            b: rational(k) for k in range(1, order + 1) for b in monomial_basis(dim, k)})
        hermite = ScalarSeries.from_terms(dim, order, {
            b: F(1, 2) for b in monomial_basis(dim, 2) if max(b) == 2})
        embedded = ScalarSeries.from_terms(dim, order, {
            (0,) * (dim - 1) + (k,): rational(k) for k in range(1, order + 1)})
        unit = ScalarSeries.one(dim, order, exact=True)
        for a in (dense, hermite, embedded):
            assert ps_exp(a) == taylor_exp(a)
            assert ps_log(unit + a) == mercator_log(unit + a)
            assert ps_recip(unit + a) == geometric_recip(unit + a)

    @pytest.mark.parametrize("dim, order", [(1, 64), (4, 5)])
    def test_float_matches_exact(self, dim, order):
        # coefficient by coefficient, |float - exact| <= 1e-13 m, where m is
        # the same operation applied to the coefficient magnitudes: it bounds
        # every term of the sums the recurrence forms, while signed data can
        # cancel a coefficient far below them
        rng = np.random.default_rng([dim, order])
        unit = ScalarSeries.one(dim, order, exact=True)
        for _ in range(3):
            s = signed_rational_series(dim, order, rng, F(0))
            m = ScalarSeries(dim, order, np.abs(s.vec))
            for op, a, majorant in ((ps_exp, s, ps_exp(m)),
                                    (ps_log, unit + s, -ps_log(unit - m)),
                                    (ps_recip, unit + s, ps_recip(unit - m))):
                want = op(a).vec.astype(complex)
                got = op(ScalarSeries(dim, order, a.vec.astype(complex))).vec
                assert np.all(np.abs(got - want) <= 1e-13 * majorant.vec.astype(float)), op


def index_sets(dim, order, rng):
    """Sorted graded index sets of degree <= order: empty, single entries,
    sparse, dense, and the monomials of one degree as `sym_product` passes
    them (shifted by graded_size(dim, k - 1)), whole and thinned."""
    size = graded_size(dim, order)
    sets = [np.arange(0), np.array([0]), np.array([size - 1]),
            np.array([int(rng.integers(size))]), np.arange(size),
            np.flatnonzero(rng.random(size) < 0.15), np.flatnonzero(rng.random(size) < 0.6)]
    for k in {0, order // 2, order}:
        degree_k = np.arange(graded_size(dim, k - 1), graded_size(dim, k))
        sets += [degree_k, degree_k[rng.random(len(degree_k)) < 0.5]]
    return sets


class TestPairs:
    # the prefix pair kernel against the masked gather of the whole slice
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8])
    def test_matches_masked_gather(self, rng, dim, order):
        sets = index_sets(dim, order, rng)
        bands = [(0, order)] + [(n, n) for n in range(order + 1)]
        for ia, ib in itertools.product(sets, repeat=2):
            if len(ia) * len(ib) > 250_000:
                continue
            for ia_order in (ia, rng.permutation(ia)):  # rows need not be sorted
                for lo, hi in bands:
                    got = _pairs(dim, order, ia_order, ib, lo, hi)
                    want = masked_pairs(dim, order, ia_order, ib, lo, hi)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want)), \
                        (ia_order, ib, lo, hi)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_product_table_matches_exponent_sums(self, dim):
        for order in range(7):
            assert np.array_equal(_product_table(dim, order), exponent_sum_table(dim, order))


def random_complex_vec(rng, size):
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


def random_fraction_vec(rng, size):
    return np.array([F(int(rng.integers(-9, 10)), int(rng.integers(1, 13))) for _ in range(size)],
                    dtype=object)


class TestKernelBitIdentity:
    # every product, recurrence and symmetric product is the same bit for bit
    # through the prefix kernel and through the masked gather
    @staticmethod
    def outputs(dim, order, draw):
        rng = np.random.default_rng([dim, order])
        vec = draw(rng, graded_size(dim, order))
        free, unit = vec.copy(), vec.copy()
        free[0], unit[0] = 0, 1
        a, b = ScalarSeries(dim, order, vec), ScalarSeries(dim, order, draw(rng, len(vec)))
        f, u = ScalarSeries(dim, order, free), ScalarSeries(dim, order, unit)
        k = order // 2
        left = SymCoeff(dim, k, draw(rng, len(monomial_basis(dim, k))))
        right = SymCoeff(dim, order - k, draw(rng, len(monomial_basis(dim, order - k))))
        return [ps_mul(a, b).vec, ps_exp(f).vec, ps_recip(u).vec, ps_log(u).vec,
                sym_product(left, right).vec]

    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 7), (3, 5), (4, 4)])
    def test_float(self, monkeypatch, dim, order):
        got = self.outputs(dim, order, random_complex_vec)
        monkeypatch.setattr(series, "_pairs", masked_pairs)
        want = self.outputs(dim, order, random_complex_vec)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 7), (3, 5), (4, 4)])
    def test_exact(self, monkeypatch, dim, order):
        got = self.outputs(dim, order, random_fraction_vec)
        monkeypatch.setattr(series, "_pairs", masked_pairs)
        want = self.outputs(dim, order, random_fraction_vec)
        assert [list(map(str, v)) for v in got] == [list(map(str, v)) for v in want]


class TestCompose:
    def test_square_of_shift(self):
        f = ScalarSeries.from_terms(1, 4, {(2,): 1.0})
        g = VectorSeries.from_scalar_1d(ScalarSeries.from_coeffs_1d([0, 1, 1], 4))
        c = ps_compose(f, g)
        assert {exps: complex(v) for exps, v in c.terms.items()} == {
            (2,): 1, (3,): 2, (4,): 1}

    def test_identity_substitution_is_exact(self, rng):
        f = random_series(2, 6, rng)
        assert ps_compose(f, VectorSeries.identity(2, 6)) == f

    def test_multiply_and_compose_route(self):
        # u/(1+u) assembled as u * (1/(1+u)); composition with the identity
        # and the naive-powering oracle agree with the alternating series
        order = 7
        inv = ps_recip(one(order, exact=True) + u_series(order, exact=True))
        ratio = ps_mul(u_series(order, exact=True), inv)
        assert [ratio.coefficient((k,)) for k in range(1, 8)] == [
            F((-1) ** (k + 1)) for k in range(1, 8)]

    def test_against_naive_powering(self, rng):
        for dim in (1, 2):
            f = random_series(dim, 6, rng)
            g = random_unit_linear(dim, 6, rng, decay=2.0)
            assert series_diff(ps_compose(f, g), naive_compose(f, g)) <= 1e-12

    @pytest.mark.parametrize("f_dim, g_dim", [(1, 1), (2, 2), (3, 3), (2, 3), (1, 2), (3, 1)])
    def test_exact_against_naive_powering(self, rng, f_dim, g_dim):
        # f has gaps and leaves its first variable out when it has more than
        # one; g is not square where the dims differ
        order = 5

        def sparse(dim, lowest, skip_first):
            terms = {b: F(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                     for deg in range(lowest, order + 1) for b in monomial_basis(dim, deg)
                     if rng.random() < 0.5 and not (skip_first and b[0])}
            return ScalarSeries.from_terms(dim, order, terms)

        f = sparse(f_dim, 0, f_dim > 1)
        g = VectorSeries.from_components(sparse(g_dim, 1, False) for _ in range(f_dim))
        assert f.exact and g.exact and not f.is_zero
        assert ps_compose(f, g) == naive_compose(f, g)

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(ValueError):
            VectorSeries.from_scalar_1d(ScalarSeries.from_coeffs_1d([0.5, 1], 4))

    def test_truncation_coherence(self, rng):
        f = random_series(2, 8, rng)
        g = random_unit_linear(2, 8, rng, decay=2.0)
        full = ps_compose(f, g).truncate(5)
        direct = ps_compose(f.truncate(5), g.truncate(5))
        assert series_diff(full, direct) <= 1e-13
        prod_full = ps_mul(f, f).truncate(5)
        prod_direct = ps_mul(f.truncate(5), f.truncate(5))
        assert series_diff(prod_full, prod_direct) <= 1e-13


class TestVectorCompose:
    def test_identity_outer(self, rng):
        b = random_unit_linear(2, 5, rng)
        assert vector_diff(vs_compose(VectorSeries.identity(2, 5), b), b) == 0.0

    def test_hand_expansion(self):
        a = VectorSeries.from_scalar_1d(ScalarSeries.from_coeffs_1d([0, 1, 1], 3))
        c = vs_compose(a, a)
        assert [complex(c.components[0].coefficient((k,))) for k in range(4)] == [
            0, 1, 2, 2]


class TestInverse:
    def test_identity(self):
        ident = VectorSeries.identity(2, 6)
        assert vector_diff(vs_inverse(ident), ident) == 0.0

    def test_log1p_inverse_is_expm1(self):
        import math
        a = ScalarSeries.from_terms(
            1, 8, {(k,): F((-1) ** (k + 1), k) for k in range(1, 9)})
        b = vs_inverse(VectorSeries.from_scalar_1d(a))
        assert [b.components[0].coefficient((k,)) for k in range(1, 9)] == [
            F(1, math.factorial(k)) for k in range(1, 9)]

    def test_ratio_inverse_all_ones(self):
        a = ScalarSeries.from_terms(1, 8, {(k,): F((-1) ** (k + 1)) for k in range(1, 9)})
        b = vs_inverse(VectorSeries.from_scalar_1d(a))
        assert [b.components[0].coefficient((k,)) for k in range(1, 9)] == [F(1)] * 8

    def test_requires_unit_linear(self):
        a = ScalarSeries.from_terms(1, 4, {(1,): 2.0})
        with pytest.raises(ValueError):
            vs_inverse(VectorSeries.from_scalar_1d(a))

    def test_roundtrip_both_orders(self, rng):
        for dim, order in ((1, 10), (2, 8), (3, 5)):
            a = random_unit_linear(dim, order, rng)
            b = vs_inverse(a)
            ident = VectorSeries.identity(dim, order)
            assert vector_diff(vs_compose(b, a), ident) <= 1e-12
            assert vector_diff(vs_compose(a, b), ident) <= 1e-12


    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 7), (3, 5), (4, 4)])
    def test_exact_matches_degree_by_degree_oracle(self, rng, dim, order):
        comps = []
        for i in range(dim):
            terms = {tuple(int(j == i) for j in range(dim)): 1}
            for deg in range(2, order + 1):
                for b in monomial_basis(dim, deg):
                    terms[b] = F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            comps.append(ScalarSeries.from_terms(dim, order, terms))
        a = VectorSeries.from_components(comps)
        b = vs_inverse(a)
        assert b.exact and b == inverse_by_degree(a)


class TestDerivative:
    def test_hand_expansion(self):
        # f = 3 + x y + 2 x^2 y - y^3 at order 3
        f = ScalarSeries.from_terms(2, 3, {(0, 0): 3, (1, 1): 1, (2, 1): 2, (0, 3): -1})
        dx, dy = ps_derivative(f, 0), ps_derivative(f, 1)
        assert dx.exact and dx.max_degree == 3
        assert dx.terms == {(0, 1): 1, (1, 1): 4}
        assert dy.terms == {(1, 0): 1, (0, 2): -3, (2, 0): 2}

    def test_dense_float(self, rng):
        f = random_series(3, 5, rng)
        for var in range(3):
            d = ps_derivative(f, var)
            assert not d.exact and not d.degree_part(5).any()
            for exps, c in f.terms.items():
                if exps[var] > 0:
                    down = tuple(e - (j == var) for j, e in enumerate(exps))
                    assert d.coefficient(down) == exps[var] * c


class TestSerialization:
    def test_scalar_roundtrip_lossless(self):
        terms = {(0,): 0.1 + 0.2j, (3,): 1e-300 + 1j / 3, (5,): -7.25}
        s = ScalarSeries.from_terms(1, 5, terms)
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert ScalarSeries.from_json_dict(doc) == s

    def test_vector_roundtrip(self, rng):
        a = random_unit_linear(2, 5, rng)
        doc = json.loads(json.dumps(a.to_json_dict()))
        assert VectorSeries.from_json_dict(doc) == a

    def test_tiny_coefficients_survive(self):
        s = ScalarSeries.from_terms(1, 2, {(1,): 1e-200})
        assert s.coefficient((1,)) == 1e-200


class TestBasis:
    def test_monomial_basis_order(self):
        assert monomial_basis(2, 2) == ((0, 2), (1, 1), (2, 0))
        assert monomial_basis(3, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_exceeding_degree_rejected(self):
        with pytest.raises(ValueError):
            ScalarSeries.from_terms(1, 2, {(3,): 1.0})

    @pytest.mark.parametrize("key", [(1, -1), (1,), (1, 0, 0), (0.5, 0), (True, 0)])
    def test_bad_exponents_rejected(self, key):
        with pytest.raises(ValueError, match="non-negative integers"):
            ScalarSeries.from_terms(2, 3, {key: 1.0})

    def test_graded_layout(self):
        # degree parts are consecutive slices of one vector, each in
        # monomial_basis order; a truncation is a prefix
        s = ScalarSeries.from_terms(2, 3, {b: F(10 * sum(b) + b[0]) for k in range(4)
                                           for b in monomial_basis(2, k)})
        assert list(s.vec) == [0, 10, 11, 20, 21, 22, 30, 31, 32, 33]
        assert list(s.degree_part(2)) == [20, 21, 22]
        assert list(s.truncate(1).vec) == [0, 10, 11]
        assert list(s.terms) == [b for k in range(1, 4) for b in monomial_basis(2, k)]
