from __future__ import annotations

import itertools
import json
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from shefferkit import series
from shefferkit.families import FamilySpec, make_family
from shefferkit.series import (
    ScalarSeries,
    VectorSeries,
    _degree_recurrence,
    _mul_pair,
    _mul_rows,
    _multiply,
    _over_common_denominator,
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

from conftest import bits, series_diff, vector_diff
from oracles import (
    dense_pair,
    dict_product,
    exponent_sum_table,
    geometric_recip,
    horner_compose,
    horner_compose_full,
    inverse_by_components,
    inverse_by_degree,
    masked_pairs,
    mercator_log,
    naive_compose,
    plain_compose,
    plain_inverse,
    plain_product,
    random_series,
    random_unit_linear,
    recip_triangular_1d,
    table_pairs,
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

    @pytest.mark.parametrize("lo, hi", [(0, -1), (0, -3), (3, 2), (-1, 2), (0, 6), (6, 6)])
    def test_band_outside_order_rejected(self, lo, hi):
        # a negative hi would otherwise slice the search positions from the end
        ia = ib = np.arange(graded_size(2, 5))
        with pytest.raises(ValueError, match=f"band {lo}..{hi} must lie in 0..5"):
            _pairs(2, 5, ia, ib, lo, hi)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_product_table_matches_exponent_sums(self, dim):
        for order in range(7):
            assert np.array_equal(_product_table(dim, order), exponent_sum_table(dim, order))

    def test_product_table_peak_memory(self):
        # filled a block of rows at a time: the traced peak of the 72 MB
        # table at d=6 N=8 stays within 90 MB (three (G, G) int64 arrays,
        # 225 MB, when the whole table was built at once)
        _product_table.cache_clear()
        tracemalloc.start()
        try:
            table = _product_table(6, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _product_table.cache_clear()
        assert table.nbytes == 3003 ** 2 * 8
        assert peak <= 90e6


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


def sparse_vec(rng, size, count, exact):
    vec = np.zeros(size, dtype=object if exact else complex)
    at = rng.choice(size, count, replace=False)
    vec[at] = (random_fraction_vec if exact else random_complex_vec)(rng, count)
    return vec


def per_row(dim, order, rows, b):
    return [ps_mul(ScalarSeries(dim, order, r.copy()), ScalarSeries(dim, order, b.copy())).vec
            for r in rows]


def batched(dim, order, rows, b):
    out = np.array(rows)
    _multiply(dim, order, out, b)
    return list(out)


KERNEL_SIZES = [(1, 9), (2, 6), (3, 5), (4, 4)]


class TestMulRows:
    # batched products (`_multiply`) against ps_mul of each row on its own, bit for bit
    @staticmethod
    def rows_around(rng, dim, order, b_nnz, exact):
        """Rows on both sides of the outer-operand rule (fewer, as many and
        more nonzero entries than b's b_nnz), an all-zero row and rows of
        random support."""
        size = graded_size(dim, order)
        counts = [1, b_nnz - 1, b_nnz, b_nnz + 1, size, 0] + list(rng.integers(1, size + 1, 6))
        return [sparse_vec(rng, size, min(int(c), size), exact) for c in counts]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim, order", KERNEL_SIZES)
    def test_matches_per_row_products(self, dim, order, exact):
        rng = np.random.default_rng([dim, order, exact])
        size = graded_size(dim, order)
        for b_nnz in (2, size // 2, size):
            b = sparse_vec(rng, size, b_nnz, exact)
            rows = self.rows_around(rng, dim, order, b_nnz, exact)
            want = per_row(dim, order, rows, b)
            assert [bits(v) for v in batched(dim, order, rows, b)] == [bits(v) for v in want]

    @pytest.mark.parametrize("dim, order", KERNEL_SIZES)
    def test_signed_zeros_and_an_infinite_inner_entry(self, dim, order):
        # -0.0 parts in rows and b, rows of -0.0 only, and an inf entry in b
        # that meets zeros of some rows inside the joint support
        rng = np.random.default_rng([dim, order])
        size = graded_size(dim, order)
        b = sparse_vec(rng, size, max(2, size // 2), False)
        b[np.flatnonzero(b)[:3]] = [complex(np.inf, 0.5), complex(-0.0, 1.0), complex(2.0, -0.0)]
        rows = self.rows_around(rng, dim, order, len(np.flatnonzero(b)), False)
        rows.append(np.full(size, complex(-0.0, -0.0)))
        for row in rows:
            nz = np.flatnonzero(row)
            row[nz[:1]] = complex(-0.0, 0.25)
            row[nz[1:2]] = complex(0.5, -0.0)
        with np.errstate(invalid="ignore"):
            got, want = batched(dim, order, rows, b), per_row(dim, order, rows, b)
        assert any(np.isnan(v).any() for v in got)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @pytest.mark.parametrize("exact", [False, True])
    def test_different_denominators_and_int_rows(self, exact):
        rng = np.random.default_rng(7)
        dim, order = 2, 6
        size = graded_size(dim, order)
        b = sparse_vec(rng, size, 10, True)
        rows = [sparse_vec(rng, size, c, True) for c in (3, 10, 20, size)]
        rows += [np.array([int(x) for x in rng.integers(-5, 6, size)], dtype=object)]
        if not exact:
            rows, b = [r.astype(complex) for r in rows], b.astype(complex)
        assert [bits(v) for v in batched(dim, order, rows, b)] == \
            [bits(v) for v in per_row(dim, order, rows, b)]
        ints = np.array([int(x) for x in rng.integers(-5, 6, size)], dtype=object)
        if exact:  # a denominator of 1 on both sides keeps ints
            assert all(type(x) is int for v in batched(dim, order, rows[-1:] * 2, ints) for x in v)

    @pytest.mark.parametrize("cap", [1, 5, 97, None])
    @pytest.mark.parametrize("exact", [False, True])
    def test_more_rows_than_one_chunk(self, monkeypatch, cap, exact):
        dim, order = 3, 6  # 924 pairs per dense row: 8 rows to a chunk of 8192
        rng = np.random.default_rng([3, 6, exact])
        size = graded_size(dim, order)
        if cap is not None:
            monkeypatch.setattr(series, "_CHUNK_PAIRS", cap)
        b = sparse_vec(rng, size, size, exact)
        rows = [sparse_vec(rng, size, c, exact) for c in rng.integers(size // 2, size + 1, 30)]
        assert [bits(v) for v in batched(dim, order, rows, b)] == \
            [bits(v) for v in per_row(dim, order, rows, b)]

    def test_chunk_of_one_product(self):
        # one nonzero row entry meets one entry of b: the chunk holds a single
        # product, which an in-place complex multiply can round differently
        rng = np.random.default_rng(5)
        size = graded_size(2, 3)
        for _ in range(40):
            rows, b = np.zeros((2, size), dtype=complex), np.zeros(size, dtype=complex)
            rows[0, 0], b[1] = random_complex_vec(rng, 2)
            assert [bits(v) for v in batched(2, 3, rows, b)] == \
                [bits(v) for v in per_row(2, 3, rows, b)]

    @pytest.mark.parametrize("exact", [False, True])
    def test_single_row(self, exact):
        rng = np.random.default_rng(3)
        size = graded_size(2, 5)
        row, b = sparse_vec(rng, size, 9, exact), sparse_vec(rng, size, 4, exact)
        assert [bits(v) for v in batched(2, 5, [row], b)] == [bits(v) for v in per_row(2, 5, [row], b)]

    def test_needs_contiguous_rows(self):
        rows = np.ones((4, graded_size(2, 3)), dtype=complex)
        with pytest.raises(ValueError, match="C-contiguous"):
            _mul_rows(2, 3, rows[::2], rows[0])


class TestProductTableRoute:
    # every kernel that plans through _pairs against the same kernel with its
    # targets read from the product table by a 2-d gather (table_pairs), bit
    # for bit: d = 1 sums the graded indices, d >= 2 reads the table's flat view
    @staticmethod
    def products(dim, order, exact):
        rng = np.random.default_rng([dim, order, exact])
        size = graded_size(dim, order)
        rows = [sparse_vec(rng, size, c, exact) for c in (size, max(1, size // 3), 1, 0, size)]
        band = max(1, order - 1)
        out = []
        for b_nnz in (size, max(2, size // 4)):
            b = sparse_vec(rng, size, b_nnz, exact)
            for row in rows:
                out += [_mul_pair(dim, order, row, b), _mul_pair(dim, order, row, b, band, True)]
            for hi, padded in ((None, 0), (order // 2, 0), (band, 2)):
                for batch in (np.array(rows), np.array(rows[::4])):  # all rows, the dense ones
                    _mul_rows(dim, order, batch, b, hi, padded)
                    out += list(batch)
        ints = rng.integers(-9, 10, (4, size)) * (rng.random((4, size)) < [[1], [0.3], [0.1], [0]])
        ints = np.array([[int(x) for x in row] for row in ints], dtype=object)
        for hi in (None, order // 2):
            batch = ints.copy()
            _mul_rows(dim, order, batch, ints[0], hi)
            out += list(batch)
        for c in (rows[0], rows[1], rows[3]):
            out += [_degree_recurrence(ScalarSeries(dim, order, c), divide).vec
                    for divide in (False, True)]
        return out

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 6), (3, 5), (4, 4)])
    def test_kernels_match_table_route(self, monkeypatch, dim, order, exact):
        got = self.products(dim, order, exact)
        monkeypatch.setattr(series, "_pairs", table_pairs)
        want = self.products(dim, order, exact)
        assert [bits(v) for v in got] == [bits(v) for v in want]


class TestOverCommonDenominator:
    # the split of `_multiply`, the one exact rule, a row at a time
    def test_rows(self):
        rows = np.array([[3, -2, 0, 5],
                         [F(1, 2), F(-2, 3), F(3, 5), F(1, 7)],
                         [0, F(1, 4), F(0), F(-5, 6)],
                         [0, 0, 0, 0]], dtype=object)
        nums, dens = _over_common_denominator(rows)
        assert dens == [1, 210, 12, 1]
        assert nums.tolist() == [[3, -2, 0, 5], [105, -140, 126, 30], [0, 3, 0, -10],
                                 [0, 0, 0, 0]]
        assert all(type(x) is int for x in nums.ravel())
        for row, num, den in zip(rows, nums, dens):
            assert [F(n, den) for n in num] == list(row)


def plain_terms(rng, dim, order, kind, keep=0.6, lowest=0):
    """A random exponent -> coefficient map: ints, or Fractions none of which
    is an integer (odd over a power of two), so every row of them has a
    common denominator past 1."""
    def draw():
        if kind == "int":
            return int(rng.integers(-9, 10))
        return F(2 * int(rng.integers(-5, 5)) + 1, 2 ** int(rng.integers(1, 4)))

    return {b: draw() for deg in range(lowest, order + 1) for b in monomial_basis(dim, deg)
            if rng.random() < keep}


def plain_vector(terms, dim, order):
    """`terms` over the graded basis of degree <= order, int 0 elsewhere."""
    return np.array([terms.get(b, 0) for k in range(order + 1) for b in monomial_basis(dim, k)],
                    dtype=object)


def typed(terms):
    return {key: (type(c), c) for key, c in terms.items()}


EXACT_SIZES = [(1, 8), (2, 6), (3, 4)]
KINDS = [("fraction", "fraction"), ("int", "fraction"), ("fraction", "int"), ("int", "int")]


class TestExactRule:
    # every exact product route against Python's own int and Fraction
    # arithmetic over the terms, in value and in type: an entry is an int
    # where both operands' denominators are 1, and int 0 where it is zero
    @pytest.mark.parametrize("kinds", KINDS, ids=["-".join(k) for k in KINDS])
    @pytest.mark.parametrize("dim, order", EXACT_SIZES)
    def test_ps_mul(self, dim, order, kinds):
        rng = np.random.default_rng([dim, order, KINDS.index(kinds)])
        a, b = (plain_terms(rng, dim, order, kind) for kind in kinds)
        got = ps_mul(*(ScalarSeries.from_terms(dim, order, t) for t in (a, b)))
        assert bits(got.vec) == bits(plain_vector(plain_product(a, b, order), dim, order))

    @pytest.mark.parametrize("kinds", KINDS, ids=["-".join(k) for k in KINDS])
    @pytest.mark.parametrize("dim, order", EXACT_SIZES)
    def test_batched_rows(self, dim, order, kinds):
        # banded hi, padded rows and an all-zero row; int rows also go to
        # the kernel directly, as the engine's exact block rows do
        rng = np.random.default_rng([dim, order, KINDS.index(kinds), 1])
        row_kind, b_kind = kinds
        rows = [plain_terms(rng, dim, order, row_kind, keep) for keep in (1.0, 0.3, 0.0, 0.6)]
        b = plain_terms(rng, dim, order, b_kind)
        for hi, padded in ((None, 0), (order - 1, 2), (max(1, order // 2), 0), (order - 2, 4)):
            top = order if hi is None else hi
            want = [bits(plain_vector(plain_product(r, b, top), dim, order)) for r in rows]
            batch = np.array([plain_vector(r, dim, order) for r in rows])
            _multiply(dim, order, batch, plain_vector(b, dim, order), hi, padded)
            assert [bits(v) for v in batch] == want
            if kinds == ("int", "int"):
                batch = np.array([plain_vector(r, dim, order) for r in rows])
                _mul_rows(dim, order, batch, plain_vector(b, dim, order), hi, padded)
                assert [bits(v) for v in batch] == want

    @pytest.mark.parametrize("kinds", KINDS, ids=["-".join(k) for k in KINDS])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sym_product(self, dim, kinds):
        rng = np.random.default_rng([dim, KINDS.index(kinds), 2])
        for k, m in ((0, 3), (2, 2), (3, 1)):
            a, b = (plain_terms(rng, dim, deg, kind, keep=0.8, lowest=deg)
                    for deg, kind in zip((k, m), kinds))
            got = sym_product(SymCoeff.from_coeffs(dim, k, a), SymCoeff.from_coeffs(dim, m, b))
            want = plain_product(a, b, k + m)
            assert bits(got.vec) == bits(np.array(
                [want.get(beta, 0) for beta in monomial_basis(dim, k + m)], dtype=object))

    @pytest.mark.parametrize("kind", ["fraction", "int"])
    @pytest.mark.parametrize("dim, order", EXACT_SIZES)
    def test_ps_compose(self, dim, order, kind):
        rng = np.random.default_rng([dim, order, kind == "int", 3])
        f = plain_terms(rng, dim, order, kind)
        gs = [plain_terms(rng, dim, order, kind, lowest=1) for _ in range(dim)]
        got = ps_compose(ScalarSeries.from_terms(dim, order, f), VectorSeries.from_components(
            ScalarSeries.from_terms(dim, order, g) for g in gs))
        assert typed(got.terms) == typed(plain_compose(f, gs, dim, order))

    @pytest.mark.parametrize("kind", ["fraction", "int"])
    @pytest.mark.parametrize("dim, order", EXACT_SIZES)
    def test_vs_inverse(self, dim, order, kind):
        rng = np.random.default_rng([dim, order, kind == "int", 4])
        a = []
        for i in range(dim):
            unit = tuple(int(j == i) for j in range(dim))
            comp = plain_terms(rng, dim, order, kind, lowest=3)
            comp.update(plain_terms(rng, dim, 2, kind, keep=1.0, lowest=2))
            a.append({unit: F(1) if kind == "fraction" else 1, **comp})
        got = vs_inverse(VectorSeries.from_components(
            ScalarSeries.from_terms(dim, order, comp) for comp in a))
        want = plain_inverse(a, dim, order)
        assert [typed(c.terms) for c in got.components] == [typed(w) for w in want]


def rational_series(rng, dim, order, keep=1.0, lowest=0):
    terms = {b: F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for deg in range(lowest, order + 1) for b in monomial_basis(dim, deg)
             if rng.random() < keep}
    return ScalarSeries.from_terms(dim, order, terms)


def rational_unit_linear(rng, dim, order):
    comps = []
    for i in range(dim):
        c = rational_series(rng, dim, order, lowest=2)
        comps.append(c + ScalarSeries.variable(dim, order, i, exact=True))
    return VectorSeries.from_components(comps)


CATALOG_KINDS = ("falling", "rising", "hermite", "charlier", "laguerre")


def catalog(kind, dim, order, exact):
    """A catalog (A, rho), A as a plain copy: without the closed-form
    inverse it carries, vs_inverse runs its Newton steps on it."""
    kw = {"k": 2.0} if kind == "laguerre" else {}
    if dim > 1 and kind == "hermite":
        kw["cov"] = tuple(tuple(2.0 if i == j else 0.25 for j in range(dim)) for i in range(dim))
    elif dim > 1:
        kw["weights"] = (0.5, 1.5, 1.25)[:dim]
    a, rho = make_family(FamilySpec(kind, dim, order, **kw), exact=exact)
    return VectorSeries.from_components(a.components), rho


def same_series(got, want):
    return got.exact == want.exact and bits(got.vec) == bits(want.vec)


class TestLockstepCompose:
    # lockstep Horner against the recursive one, bit for bit
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("f_dim, g_dim", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 1)])
    def test_matches_recursive_horner(self, f_dim, g_dim, exact):
        rng = np.random.default_rng([f_dim, g_dim, exact])
        order = {1: 9, 2: 6, 3: 5, 4: 4}[max(f_dim, g_dim)]
        for keep in (1.0, 0.4):
            if exact:
                f = rational_series(rng, f_dim, order + 2, keep)
                g = VectorSeries.from_components(rational_series(rng, g_dim, order, keep, lowest=1)
                                                 for _ in range(f_dim))
            else:
                f = random_series(f_dim, order + 2, rng)
                g = random_unit_linear(g_dim, order, rng, decay=2.0) if f_dim == g_dim else \
                    VectorSeries.from_components(random_series(g_dim, order, rng, constant=0)
                                                 for _ in range(f_dim))
                if keep < 1:
                    f = ScalarSeries(f_dim, f.max_degree, np.where(rng.random(len(f.vec)) < keep,
                                                                   f.vec, 0))
            assert same_series(ps_compose(f, g), horner_compose(f, g))

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim, order", [(1, 10), (2, 6), (3, 5), (4, 4)])
    def test_several_outer_series_at_once(self, monkeypatch, dim, order, exact, small):
        # dense, sparse, zero, single-variable and single-monomial components;
        # `small` takes one outer series per pass and one row per chunk
        if small:
            monkeypatch.setattr(series, "_HORNER_BYTES", 1)
            monkeypatch.setattr(series, "_CHUNK_PAIRS", 1)
        rng = np.random.default_rng([dim, order])
        make = (lambda keep: rational_series(rng, dim, order, keep, lowest=1)) if exact else \
            (lambda keep: ScalarSeries(dim, order, np.where(
                rng.random(graded_size(dim, order)) < keep,
                random_series(dim, order, rng, constant=0).vec, 0)))
        last = make(1.0).vec.copy()
        last[[i for i, b in enumerate(series.graded_exponents(dim, order)) if any(b[:-1])]] = 0
        mono = np.zeros(graded_size(dim, order), dtype=last.dtype)
        mono[-1] = 3
        comps = [make(1.0), make(0.3), make(0.0), ScalarSeries(dim, order, last),
                 ScalarSeries(dim, order, mono)]
        outer = VectorSeries.from_components(comps)
        inner = rational_unit_linear(rng, dim, order) if exact else \
            random_unit_linear(dim, order, rng, decay=2.0)
        got = vs_compose(outer, inner)
        for g, c in zip(got.components, outer.components):
            assert same_series(g, horner_compose(c, inner))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_constant_rows_among_others(self, dim):
        # outer series with constant terms, which a vector series cannot hold
        rng = np.random.default_rng(dim)
        inner = random_unit_linear(dim, 5, rng, decay=2.0)
        fs = [random_series(dim, 5, rng), ScalarSeries.zero(dim, 5),
              ScalarSeries.constant(dim, 5, 2.5 + 0j), random_series(dim, 5, rng, constant=0)]
        for got, f in zip(series._compose(fs, inner), fs):
            assert same_series(got, horner_compose(f, inner))

    @pytest.mark.parametrize("f_exact, g_exact", [(True, False), (False, True)])
    def test_mixed_exactness(self, f_exact, g_exact):
        rng = np.random.default_rng(11)
        f = rational_series(rng, 2, 5) if f_exact else random_series(2, 5, rng)
        g = rational_unit_linear(rng, 2, 5) if g_exact else random_unit_linear(2, 5, rng)
        assert same_series(ps_compose(f, g), horner_compose(f, g))
        const = ScalarSeries.constant(2, 5, F(3, 2) if f_exact else 1.5 + 0j)
        assert same_series(ps_compose(const, g), horner_compose(const, g))
        zero = ScalarSeries(2, 5, np.zeros(graded_size(2, 5), dtype=object if f_exact else complex))
        assert same_series(ps_compose(zero, g), horner_compose(zero, g))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", CATALOG_KINDS)
    def test_catalog_kappa_and_inverse(self, kind, exact):
        for dim, order in ((1, 12), (2, 6), (3, 4)):
            a, rho = catalog(kind, dim, order, exact)
            if rho is not None:
                assert same_series(ps_compose(rho, a), horner_compose(rho, a))
            got, want = vs_inverse(a), inverse_by_components(a)
            assert all(same_series(g, w) for g, w in zip(got.components, want.components))


class TestTruncatedHorner:
    # each Horner step forms only the output degrees that can reach the result
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_outer_order_past_inner(self, dim, exact):
        # f.max_degree = g.max_degree + 3: the steps for powers k >= n clear
        # their chains without a product, so no empty band reaches _pairs
        rng = np.random.default_rng([dim, exact])
        order = {1: 9, 2: 6}[dim]
        if exact:
            f, g = rational_series(rng, dim, order + 3), rational_unit_linear(rng, dim, order)
        else:
            f, g = random_series(dim, order + 3, rng), random_unit_linear(dim, order, rng, 2.0)
        got = ps_compose(f, g)
        assert got.max_degree == order and got.exact == exact
        assert same_series(got, horner_compose(f, g))
        if exact:
            assert got == horner_compose_full(f, g) == naive_compose(f, g)
        else:
            assert series_diff(got, naive_compose(f, g)) <= 1e-12

    @pytest.mark.parametrize("what, dim, order, cap", [
        ("compose", 1, 64, 65_000), ("inverse", 1, 64, 56_000), ("compose", 3, 8, 27_000)])
    def test_pair_products_formed(self, monkeypatch, what, dim, order, cap):
        # on the benchmark's dense (A, rho) the untruncated steps formed
        # 131,104, 112,611 and 54,855 pairs; the banded ones half of that at most
        a, rho = dense_pair(dim, order, np.random.default_rng([dim, order]))
        formed = []

        def counted(*args):
            out = _pairs(*args)
            formed.append(len(out[2]))
            return out

        monkeypatch.setattr(series, "_pairs", counted)
        ps_compose(rho, a) if what == "compose" else vs_inverse(a)
        assert 0 < sum(formed) <= cap

    @pytest.mark.parametrize("dim, order", [(1, 48), (2, 9), (3, 6), (4, 5)])
    def test_float_over_dense_inner_matches_untruncated(self, dim, order):
        # dense and sparse outer series over a dense inner series: each step
        # keeps the operand order of the untruncated one, so the bits stay
        a, rho = dense_pair(dim, order, np.random.default_rng([dim, order]))
        b = vs_inverse(a)
        want = inverse_by_components(a, horner_compose_full)
        assert all(same_series(g, w) for g, w in zip(b.components, want.components))
        rng = np.random.default_rng([dim, order, 1])
        sparse = [ScalarSeries(dim, order, np.where(rng.random(len(rho.vec)) < keep, rho.vec, 0))
                  for keep in (0.6, 0.3, 0.1)]
        pairs = [(rho, a)] + [(c, b) for c in a.components] + [(c, a) for c in b.components] \
            + [(f, a) for f in sparse]
        for f, g in pairs:
            assert same_series(ps_compose(f, g), horner_compose_full(f, g))

    @pytest.mark.parametrize("dim, order, seed", [(1, 12, 0), (2, 6, 1), (2, 6, 2), (3, 5, 0)])
    def test_sparse_float_within_rounding(self, dim, order, seed):
        # a sparse inner series can leave untruncated entries past a band
        # zero, and then the operand order, and the last bits, may differ
        # from the untruncated steps (they do here at d = 2 and 3)
        rng = np.random.default_rng([dim, order, seed])

        def thin(s, keep):
            kept = np.where(rng.random(len(s.vec)) < keep, s.vec, 0)
            return ScalarSeries(dim, s.max_degree, kept)

        for keep in (0.6, 0.3):
            f = thin(random_series(dim, order + 2, rng), keep)
            g = VectorSeries.from_components(thin(random_series(dim, order, rng, constant=0), keep)
                                             for _ in range(dim))
            got = ps_compose(f, g)
            assert same_series(got, horner_compose(f, g))
            assert series_diff(got, horner_compose_full(f, g)) <= 1e-15

    @pytest.mark.parametrize("kind", CATALOG_KINDS)
    def test_catalog_float_matches_untruncated(self, kind):
        for dim, order in ((1, 16), (2, 7), (3, 5)):
            a, rho = catalog(kind, dim, order, exact=False)
            if rho is not None:
                assert same_series(ps_compose(rho, a), horner_compose_full(rho, a))
            got, want = vs_inverse(a), inverse_by_components(a, horner_compose_full)
            assert all(same_series(g, w) for g, w in zip(got.components, want.components))

    @pytest.mark.parametrize("f_dim, g_dim", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 1)])
    def test_exact_matches_untruncated(self, f_dim, g_dim):
        rng = np.random.default_rng([f_dim, g_dim])
        order = {1: 9, 2: 6, 3: 5}[max(f_dim, g_dim)]
        for keep in (1.0, 0.4):
            f = rational_series(rng, f_dim, order, keep)
            g = VectorSeries.from_components(rational_series(rng, g_dim, order, keep, lowest=1)
                                             for _ in range(f_dim))
            assert ps_compose(f, g) == horner_compose_full(f, g)
        a = rational_unit_linear(rng, g_dim, order)
        assert vs_inverse(a) == inverse_by_components(a, horner_compose_full)


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


class TestInverseByComponents:
    # the batched Newton steps against one composition and one ps_mul per
    # component and Jacobian entry, bit for bit
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim, order", [(1, 16), (1, 33), (2, 9), (3, 6), (4, 5)])
    def test_dense(self, dim, order, exact):
        rng = np.random.default_rng([dim, order])
        if exact:
            if order > 9:
                order = 9
            a = rational_unit_linear(rng, dim, order)
        else:
            a = random_unit_linear(dim, order, rng, decay=2.0)
        got, want = vs_inverse(a), inverse_by_components(a)
        assert got.exact == exact
        assert all(same_series(g, w) for g, w in zip(got.components, want.components))


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
