from __future__ import annotations

import base64
import hashlib
import gc
import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from shefferkit import engine
from shefferkit.engine import (
    SEQUENCE_FORMAT,
    DegreeOverflowError,
    PolynomialOnDual,
    ShefferSequence,
    binomial_check,
    build_basic,
    build_sheffer,
    load_sequence,
    random_polynomial,
    save_sequence,
    sequence_from_json_dict,
    sequence_to_json_dict,
    sheffer_apply,
    sheffer_inverse_apply,
)
from shefferkit.families import FamilySpec, log1p_series, make_family, neg_log1m_series
from shefferkit.series import (
    ScalarSeries,
    VectorSeries,
    _product_table,
    graded_size,
    monomial_basis,
    ps_exp,
    ps_mul,
)
from shefferkit.symtensor import SymCoeff, sym_contract, sym_norm, sym_product

from conftest import bits, coeff_column_1d, poly_abs_diff, poly_scale, random_polynomial_sparse
from oracles import (
    apply_by_blocks,
    binomial_convolution,
    charlier_coeffs,
    dense_pair,
    dict_product,
    falling_coeffs,
    hermite_coeffs,
    laguerre_coeffs,
    power_rows_by_monomial,
    power_rows_in_engine_form,
    random_series,
    random_unit_linear,
    rising_coeffs,
    umbral_apply_direct,
)


def falling_seq(order, exact=True):
    a = log1p_series(order, exact=exact)
    return build_basic(VectorSeries.from_scalar_1d(a), order)


def hermite_seq(order, exact=True):
    half = F(1, 2) if exact else 0.5 + 0.0j
    rho = ps_exp(ScalarSeries.from_terms(1, order, {(2,): half}))
    return build_sheffer(VectorSeries.identity(1, order, exact=exact), rho, order)


def assert_exact_inverse(seq):
    """The exact forward matrix times the inverse matrix is the identity;
    each is multiplied as integers over the lcm of its denominators."""
    scaled = []
    for mat in (seq.matrix, seq.inverse_matrix):
        den = math.lcm(*(x.denominator for x in mat.flat))
        scaled.append((np.array([int(x * den) for x in mat.flat], dtype=object)
                       .reshape(mat.shape), den))
    (fwd, den_f), (inv, den_i) = scaled
    assert np.array_equal(fwd @ inv, np.eye(len(fwd), dtype=object) * (den_f * den_i))


def monomial_1d(n, exact=True):
    return PolynomialOnDual.monomial(1, (n,), F(1) if exact else 1.0 + 0.0j)


class TestBuild:
    def test_identity_blocks(self):
        seq = build_basic(VectorSeries.identity(2, 4), 4)
        for n in range(5):
            for k in range(n + 1):
                mat = seq.blocks[(k, n)]
                if k == n:
                    assert np.array_equal(mat, np.eye(mat.shape[0], dtype=complex))
                else:
                    assert not np.any(mat)

    def test_falling_block_literals(self):
        seq = falling_seq(4)
        assert seq.blocks[(2, 3)][0, 0] == -3
        assert seq.blocks[(1, 3)][0, 0] == 2

    def test_falling_matches_product_oracle(self):
        seq = falling_seq(10)
        for n in range(11):
            assert coeff_column_1d(sheffer_apply(seq, monomial_1d(n)), n) == \
                [complex(c) for c in falling_coeffs(n)]

    def test_rising_matches_product_oracle(self):
        seq = build_basic(VectorSeries.from_scalar_1d(neg_log1m_series(8, exact=True)), 8)
        for n in range(9):
            assert coeff_column_1d(sheffer_apply(seq, monomial_1d(n)), n) == \
                [complex(c) for c in rising_coeffs(n)]

    def test_hermite_matches_recurrence(self):
        seq = hermite_seq(10)
        for n in range(11):
            got = sheffer_apply(seq, monomial_1d(n))
            assert [got.coefficient(k).coefficient((k,)) for k in range(n + 1)] == \
                hermite_coeffs(n)

    def test_hermite_s4_literal(self):
        got = sheffer_apply(hermite_seq(4), monomial_1d(4))
        assert coeff_column_1d(got, 4) == [3, 0, -6, 0, 1]

    def test_charlier_s2_literal(self):
        a, rho = make_family(FamilySpec("charlier", 1, 2), exact=True)
        got = sheffer_apply(build_sheffer(a, rho, 2), monomial_1d(2))
        assert coeff_column_1d(got, 2) == [1, -3, 1]

    def test_trivial_rho_collapses_to_basic(self):
        a = VectorSeries.from_scalar_1d(log1p_series(5, exact=True))
        with_one = build_sheffer(a, ScalarSeries.one(1, 5, exact=True), 5)
        basic = build_basic(a, 5)
        assert with_one.is_basic
        for key, mat in basic.blocks.items():
            assert np.array_equal(mat, with_one.blocks[key])

    def test_requires_unit_linear(self):
        a = ScalarSeries.from_terms(1, 3, {(1,): 2.0})
        with pytest.raises(ValueError):
            build_basic(VectorSeries.from_scalar_1d(a), 3)

    def test_requires_full_truncation_orders(self):
        a = VectorSeries.identity(1, 4)
        with pytest.raises(ValueError):
            build_basic(a, 6)
        short_rho = ps_exp(ScalarSeries.from_terms(1, 3, {(2,): 0.5 + 0.0j}))
        with pytest.raises(ValueError):
            build_sheffer(VectorSeries.identity(1, 6), short_rho, 6)

    def test_monicity_float_exact(self, rng):
        a = random_unit_linear(2, 5, rng)
        seq = build_basic(a, 5)
        for n in range(6):
            mat = seq.blocks[(n, n)]
            assert np.array_equal(mat, np.eye(mat.shape[0], dtype=complex))

    @pytest.mark.parametrize("exact", [False, True])
    def test_non_identity_top_block_named_by_lowest_degree(self, exact):
        spec = FamilySpec("charlier", 2, 5, weights=(0.5, 1.5))
        seq = build_sheffer(*make_family(spec, exact=exact), 5)
        built, one = seq.matrix, F(1) if exact else 1.0 + 0.0j
        off = [graded_size(2, k - 1) for k in range(7)]
        for wrong, degree in (
                ({(off[4] + 2, off[4] + 2): one + one / 2 ** 40}, 4),  # a diagonal entry
                ({(off[3], off[3] + 1): one / 3}, 3),  # off the diagonal, inside V[3, 3]
                ({(off[5] + 1, off[5] + 1): 2 * one, (off[2] + 1, off[2]): -one}, 2),
                ({(off[2], off[4]): 7 * one, (off[0], off[5]): one}, None)):  # not top blocks
            seq.matrix = built.copy()
            for at, value in wrong.items():
                seq.matrix[at] = value
            if degree is None:
                engine._assert_monic(seq)
                continue
            with pytest.raises(AssertionError, match=f"^top block at degree {degree} is not"):
                engine._assert_monic(seq)

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_variable_builds_read_no_product_table(self, exact):
        # the graded index of x^i x^j is i + j: no d = 1 product touches the table
        order = 24 if exact else 64
        a, rho = (rational_pair if exact else dense_pair)(1, order, np.random.default_rng(order))
        before = _product_table.cache_info()
        seq = build_sheffer(a, rho, order)
        assert seq.inverse_blocks[0, order].shape == (1, 1)
        assert _product_table.cache_info() == before

    def test_float_blocks_finite_up_to_the_double_range(self):
        # gamma! leaves the double range at n = 171; falling blocks stay
        # finite through n = 170 and first overflow at V[4, 171].  The float
        # inverse blocks, built from a float compositional inverse, stay
        # finite through n = 167 and first overflow at V[1, 168]
        seq = falling_seq(170, exact=False)
        assert np.isfinite(seq.matrix).all()
        for (k, n), want in {(1, 170): -math.factorial(169),
                             (169, 170): -math.comb(170, 2)}.items():
            assert abs(seq.blocks[(k, n)][0, 0] - want) <= 1e-14 * abs(want)
        with pytest.raises(ValueError, match=r"V\[4,171\].*below 171"):
            falling_seq(200, exact=False)
        assert np.isfinite(falling_seq(167, exact=False).inverse_matrix).all()
        with pytest.raises(ValueError, match=r"V\[1,168\].*below 168"):
            falling_seq(168, exact=False).inverse_blocks

    def test_exact_dense_d3_inverse_blocks_invert(self, rng):
        d, order = 3, 5

        def rational(deg):
            return F(int(rng.integers(-4, 5)), 2 ** deg)

        comps = []
        for i in range(d):
            terms = {b: rational(deg) for deg in range(2, order + 1)
                     for b in monomial_basis(d, deg)}
            terms[tuple(int(j == i) for j in range(d))] = F(1)
            comps.append(ScalarSeries.from_terms(d, order, terms))
        rho = ScalarSeries.from_terms(d, order, {b: rational(deg) for deg in range(order + 1)
                                                 for b in monomial_basis(d, deg)})
        rho = rho - ScalarSeries.constant(d, order, rho.constant_term - 1)
        seq = build_sheffer(VectorSeries.from_components(comps), rho, order)
        assert seq.exact
        inv = seq.inverse_blocks
        for k in range(order + 1):
            for n in range(k, order + 1):
                prod = sum(inv[(k, m)].dot(seq.blocks[(m, n)]) for m in range(k, n + 1))
                want = np.eye(len(monomial_basis(d, k)), dtype=int) if k == n else 0
                assert np.all(prod == want)

    @pytest.mark.parametrize("dim, order", [(1, 128), (4, 5)])
    def test_dense_float_forward_times_inverse_is_identity(self, dim, order):
        # the dense data of the benchmark's dense-deep (d=1, N=128) and
        # dense-wide (d=4, N=5) cases; over the whole graded matrices,
        # |V W - I| <= 1e-13 |V| |W| entry by entry
        a, rho = dense_pair(dim, order, np.random.default_rng([dim, order]))
        seq = build_sheffer(a, rho, order)
        fwd, inv = seq.matrix, seq.inverse_matrix
        err = np.abs(fwd @ inv - np.eye(graded_size(dim, order)))
        assert np.all(err <= 1e-13 * (np.abs(fwd) @ np.abs(inv)))


class TestThetaKappa:
    def test_trivial_rho(self):
        seq = build_basic(VectorSeries.identity(1, 5, exact=True), 5)
        thetas, kappas = seq.theta, seq.kappa
        assert thetas[0].coefficient((0,)) == 1
        assert all(t.is_zero for t in thetas[1:])
        assert all(k.is_zero for k in kappas[1:])

    def test_hermite_values(self):
        seq = hermite_seq(6)
        assert seq.theta[2].coefficient((2,)) == F(-1, 2)
        assert seq.kappa[2].coefficient((2,)) == F(1, 2)
        assert seq.theta[1].is_zero and seq.theta[3].is_zero
        assert seq.kappa[1].is_zero and seq.kappa[3].is_zero

    def test_convolution_identity(self):
        # theta and kappa are mutually reciprocal series: their symmetric
        # product convolution telescopes to the constant 1
        a, rho = make_family(FamilySpec("laguerre", 1, 8, k=2.0), exact=True)
        seq = build_sheffer(a, rho, 8)
        for n in range(9):
            acc = SymCoeff.zero(1, n)
            for j in range(n + 1):
                acc = acc + sym_product(seq.theta[j], seq.kappa[n - j])
            if n == 0:
                assert acc.coefficient((0,)) == 1
            else:
                assert acc.is_zero

    def test_convolution_identity_via_series(self):
        a, rho = make_family(FamilySpec("charlier", 2, 5))
        seq = build_sheffer(a, rho, 5)
        prod = ps_mul(seq.theta_series, seq.kappa_series)
        assert abs(prod.constant_term - 1) <= 1e-14
        assert all(abs(complex(c)) <= 1e-12
                   for exps, c in prod.terms.items() if sum(exps) > 0)

    def test_hermite_float_theta_against_exact(self):
        # theta = exp(-z^2/2) as the reciprocal of the rounded exp(z^2/2):
        # at N = 64 every nonzero coefficient keeps its leading digit (the
        # remaining loss is the conditioning of the reciprocal of rounded
        # data), and the odd ones stay exactly zero
        want = hermite_seq(64).theta_series.vec
        got = hermite_seq(64, exact=False).theta_series.vec
        nonzero = want != 0
        assert not np.any(got[~nonzero])
        exact = want[nonzero].astype(complex)
        assert np.all(np.abs(got[nonzero] - exact) <= 0.1 * np.abs(exact))


class TestApply:
    def test_identity_sequence(self, rng):
        seq = build_basic(VectorSeries.identity(2, 5), 5)
        p = random_polynomial(2, 5, rng)
        assert poly_abs_diff(sheffer_apply(seq, p), p) == 0.0

    def test_falling_z4(self):
        got = sheffer_apply(falling_seq(4), monomial_1d(4))
        assert coeff_column_1d(got, 4) == [0, -6, 11, -6, 1]

    def test_hermite_z2(self):
        got = sheffer_apply(hermite_seq(2), monomial_1d(2))
        assert coeff_column_1d(got, 2) == [-1, 0, 1]

    def test_zero_polynomial_short_circuit(self):
        seq = falling_seq(4)
        out = sheffer_apply(seq, PolynomialOnDual.zero(1))
        assert out.is_zero

    def test_degree_overflow(self):
        seq = falling_seq(4)
        with pytest.raises(DegreeOverflowError):
            sheffer_apply(seq, monomial_1d(5))

    def test_triangularity_preserves_degree(self, rng):
        seq = build_basic(random_unit_linear(2, 6, rng), 6)
        for n in range(7):
            basis = monomial_basis(2, n)
            p = PolynomialOnDual.monomial(2, basis[0])
            q = sheffer_apply(seq, p)
            assert q.degree == n
            top = q.coefficient(n)
            assert top == p.coefficient(n)


class TestInverseApply:
    def test_falling_cubic(self):
        seq = falling_seq(3)
        p = PolynomialOnDual.from_coeffs(1, [
            SymCoeff.zero(1, 0),
            SymCoeff.from_coeffs(1, 1, {(1,): F(2)}),
            SymCoeff.from_coeffs(1, 2, {(2,): F(-3)}),
            SymCoeff.from_coeffs(1, 3, {(3,): F(1)}),
        ])
        got = sheffer_inverse_apply(seq, p)
        assert coeff_column_1d(got, 3) == [0, 0, 0, 1]

    def test_hermite_quadratic(self):
        seq = hermite_seq(2)
        p = PolynomialOnDual.from_coeffs(1, [
            SymCoeff.from_coeffs(1, 0, {(0,): F(-1)}),
            SymCoeff.zero(1, 1),
            SymCoeff.from_coeffs(1, 2, {(2,): F(1)}),
        ])
        got = sheffer_inverse_apply(seq, p)
        assert coeff_column_1d(got, 2) == [0, 0, 1]

    def test_roundtrip_random_families(self, rng):
        catalog = [
            build_sheffer(*make_family(FamilySpec("falling", 1, 8)), 8),
            build_sheffer(*make_family(FamilySpec("hermite", 1, 8)), 8),
            build_sheffer(*make_family(FamilySpec("charlier", 1, 8)), 8),
            build_sheffer(*make_family(FamilySpec("laguerre", 1, 8, k=2.0)), 8),
            build_sheffer(*make_family(FamilySpec("charlier", 2, 6)), 6),
        ]
        for seq in catalog:
            for _ in range(5):
                p = random_polynomial(seq.dim, seq.max_degree, rng)
                mid = sheffer_apply(seq, p)
                back = sheffer_inverse_apply(seq, mid)
                scale = max(1.0, poly_scale(p), poly_scale(mid))
                assert poly_abs_diff(back, p) / scale <= 1e-9

    def test_roundtrip_exact_is_identity(self, rng):
        seq = falling_seq(8)
        p = PolynomialOnDual.from_coeffs(1, [
            SymCoeff.from_coeffs(1, n, {(n,): F(int(rng.integers(-5, 6)), 3)})
            for n in range(9)])
        back = sheffer_inverse_apply(seq, sheffer_apply(seq, p))
        for n in range(9):
            assert back.coefficient(n) == p.coefficient(n)


def rational_polynomial(dim, order, rng):
    return PolynomialOnDual.from_coeffs(dim, [
        SymCoeff.from_coeffs(dim, n, {b: F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                                      for b in monomial_basis(dim, n)})
        for n in range(order + 1)])


def graded_vector(p, order):
    vec = np.zeros(graded_size(p.dim, order), dtype=complex)
    for n, c in enumerate(p.coeffs):
        vec[graded_size(p.dim, n - 1):graded_size(p.dim, n)] = c.vec
    return vec


class TestApplyByBlocks:
    """The graded apply, one column panel per input degree, against the
    block-by-block oracle."""

    @pytest.mark.parametrize("spec", [FamilySpec("charlier", 1, 8),
                                      FamilySpec("laguerre", 2, 5, k=2.0),
                                      FamilySpec("hermite", 3, 4)],
                             ids=["charlier-d1", "laguerre-d2", "hermite-d3"])
    def test_exact_is_fraction_equal(self, spec, rng):
        seq = build_sheffer(*make_family(spec, exact=True), spec.max_degree)
        assert seq.exact
        for apply, blocks in ((sheffer_apply, seq.blocks),
                              (sheffer_inverse_apply, seq.inverse_blocks)):
            p = rational_polynomial(seq.dim, seq.max_degree, rng)
            got, want = apply(seq, p), apply_by_blocks(blocks, p, exact=True)
            assert got.degree == want.degree
            for c, w in zip(got.coeffs, want.coeffs):
                assert all(isinstance(v, (int, F)) for v in c.vec)
                assert np.array_equal(c.vec, w.vec)

    @pytest.mark.parametrize("kind", ["falling", "hermite", "charlier", "laguerre", "dense"])
    def test_float_d1_is_bit_identical(self, kind, rng):
        if kind == "dense":
            seq = build_sheffer(*dense_pair(1, 64, rng), 64)
        else:
            seq = build_sheffer(*make_family(FamilySpec(kind, 1, 16, k=2.0)), 16)
        for apply, blocks in ((sheffer_apply, seq.blocks),
                              (sheffer_inverse_apply, seq.inverse_blocks)):
            p = random_polynomial(1, seq.max_degree, rng)
            got, want = apply(seq, p), apply_by_blocks(blocks, p, exact=False)
            assert got.degree == want.degree
            for c, w in zip(got.coeffs, want.coeffs):
                assert np.array_equal(c.vec, w.vec)

    @pytest.mark.parametrize("dim, order", [(2, 6), (3, 5), (4, 4)])
    def test_float_dense_agrees_to_rounding(self, dim, order, rng):
        # entry by entry, |got - want| <= 1e-15 (|V| |phi|)
        seq = build_sheffer(*dense_pair(dim, order, rng), order)
        for apply, mat, blocks in ((sheffer_apply, seq.matrix, seq.blocks),
                                   (sheffer_inverse_apply, seq.inverse_matrix,
                                    seq.inverse_blocks)):
            p = random_polynomial(dim, order, rng)
            got, want = apply(seq, p), apply_by_blocks(blocks, p, exact=False)
            scale = np.abs(mat) @ np.abs(graded_vector(p, order))
            err = np.abs(graded_vector(got, order) - graded_vector(want, order))
            assert np.all(err <= 1e-15 * scale)


def views_by_dict(mat, dim, order):
    """The blocks as one dict of views, in the order the builder used to make it."""
    off = [graded_size(dim, n - 1) for n in range(order + 2)]
    return {(k, n): mat[off[k]:off[k + 1], off[n]:off[n + 1]]
            for n in range(order + 1) for k in range(n + 1)}


class TestBlockViews:
    """seq.blocks and seq.inverse_blocks make their views on demand and
    behave as the dict of views they replace."""

    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 6), (3, 4)])
    def test_order_and_views_match_the_dict(self, dim, order, rng):
        seq = build_sheffer(*dense_pair(dim, order, rng), order)
        for mat, blocks in ((seq.matrix, seq.blocks), (seq.inverse_matrix, seq.inverse_blocks)):
            want = views_by_dict(mat, dim, order)
            assert list(blocks) == list(want)
            assert [key for key, _ in blocks.items()] == list(want)
            assert [key for key, _ in sorted(blocks.items())] == sorted(want)
            for got, block in zip(blocks.values(), want.values()):
                assert got.shape == block.shape and bits(got) == bits(block)
            assert len(blocks) == len(want) == (order + 1) * (order + 2) // 2

    def test_membership_and_bad_keys(self):
        blocks = falling_seq(4, exact=False).blocks
        assert (0, 0) in blocks and (2, 4) in blocks and (4, 4) in blocks
        assert (np.int64(1), np.int64(3)) in blocks
        assert blocks[(np.int64(1), np.int64(3))].shape == (1, 1)
        bad = [(3, 2), (0, 5), (5, 5), (-1, 2), (0, -1), (1.0, 2), (1, 2.0), ("1", "2"),
               "1,2", (1,), (1, 2, 3), None, 3]
        for key in bad:
            assert key not in blocks
            with pytest.raises(KeyError):
                blocks[key]
            with pytest.raises(KeyError):
                blocks[key] = np.zeros((1, 1))

    @pytest.mark.parametrize("exact", [False, True])
    def test_views_are_read_only_and_share_the_matrix(self, exact):
        seq = build_sheffer(*make_family(FamilySpec("charlier", 2, 5), exact=exact), 5)
        for mat, blocks in ((seq.matrix, seq.blocks), (seq.inverse_matrix, seq.inverse_blocks)):
            for block in blocks.values():
                assert not block.flags.writeable
                assert block.base is mat and np.shares_memory(block, mat)
                with pytest.raises(ValueError):
                    block[0, 0] = 7
            assert blocks[(1, 3)] is not blocks[(1, 3)]  # made per read, not kept

    def test_replacement_stays_in_the_mapping(self, rng):
        seq = build_sheffer(*dense_pair(2, 5, rng), 5)
        p = random_polynomial(2, 5, rng)
        before = sheffer_apply(seq, p)
        replaced = np.zeros_like(seq.blocks[(0, 5)])
        seq.blocks[(0, 5)] = replaced
        assert seq.blocks[(0, 5)] is replaced and dict(seq.blocks.items())[(0, 5)] is replaced
        assert np.any(views_by_dict(seq.matrix, 2, 5)[(0, 5)])
        after = sheffer_apply(seq, p)
        assert all(bits(c.vec) == bits(w.vec) for c, w in zip(after.coeffs, before.coeffs))
        assert len(seq.blocks) == 21
        with pytest.raises(TypeError):
            del seq.blocks[(0, 5)]

    def test_a_sequence_keeps_little_beyond_its_matrices(self):
        # the benchmark's dense-deep case at its largest N: forward and
        # inverse together keep less than twice their matrices (a dict of
        # views per direction kept about 8x)
        a, rho = dense_pair(1, 128, np.random.default_rng([1, 128]))
        build_sheffer(a, rho, 128).inverse_matrix  # fills the caches first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seq = build_sheffer(a, rho, 128)
            seq.inverse_blocks
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * (seq.matrix.nbytes + seq.inverse_matrix.nbytes)


def rational_pair(dim, order, rng):
    """Exact unit-linear A and rho with rho(0) = 1, every coefficient drawn."""
    def draw(lowest):
        return {b: F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                for k in range(lowest, order + 1) for b in monomial_basis(dim, k)}
    comps = [ScalarSeries.from_terms(dim, order, {**draw(2), tuple(int(j == i) for j in range(dim)): 1})
             for i in range(dim)]
    return VectorSeries.from_components(comps), ScalarSeries.from_terms(
        dim, order, {**draw(1), (0,) * dim: 1})


class TestPowerRows:
    """The block rows factor * vec^beta, one batched product per first
    variable, against one ps_mul per monomial, bit for bit, in both
    directions; and the matrices built from either.  Exact rows are compared
    as integer numerators over one denominator per row, and by value."""

    @staticmethod
    def check(seq, monkeypatch):
        inverse_factor = seq.kappa_series if seq.rho is None else seq.rho.truncate(seq.max_degree)
        for vec, factor, matrix in ((seq.a, seq.theta_series, seq.matrix),
                                    (seq.inverse_a, inverse_factor, seq.inverse_matrix)):
            args = (vec, factor, seq.max_degree, seq.exact)
            got = list(engine._power_rows(*args))
            want = list(power_rows_in_engine_form(*args))
            assert len(got) == len(want) == seq.max_degree + 1
            if seq.exact:
                for (nums, dens), (want_nums, want_dens), rows in zip(
                        got, want, power_rows_by_monomial(*args)):
                    assert bits(nums) == bits(want_nums) and bits(dens) == bits(want_dens)
                    assert all(F(num, den) == value for num_row, den, row in zip(nums, dens, rows)
                               for num, value in zip(num_row, row))
            else:
                assert [bits(raw) for raw in got] == [bits(raw) for raw in want]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_power_rows", power_rows_in_engine_form)
                oracle_matrix = engine._transfer_blocks(*args)[0]
            assert bits(oracle_matrix) == bits(matrix)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim, order", [(1, 16), (2, 7), (3, 5), (4, 4)])
    def test_dense(self, dim, order, exact, monkeypatch):
        rng = np.random.default_rng([dim, order])
        a, rho = rational_pair(dim, order, rng) if exact else dense_pair(dim, order, rng)
        self.check(build_sheffer(a, rho, order), monkeypatch)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", ["falling", "rising", "hermite", "charlier", "laguerre"])
    def test_catalog(self, kind, exact, monkeypatch):
        for dim, order in ((1, 12), (2, 6), (3, 4)):
            spec = FamilySpec(kind, dim, order, k=2.0, weights=(0.5, 1.5, 1.25)[:dim]
                              if kind in ("charlier", "laguerre") else None)
            self.check(build_sheffer(*make_family(spec, exact=exact), order), monkeypatch)

    @pytest.mark.parametrize("kind", ["falling", "rising", "hermite", "charlier", "laguerre"])
    def test_exact_catalog_deep(self, kind, monkeypatch):
        spec = FamilySpec(kind, 1, 64, k=2.0)
        self.check(build_sheffer(*make_family(spec, exact=True), 64), monkeypatch)

    @pytest.mark.parametrize("spec", [
        FamilySpec("charlier", 3, 6, weights=(0.3, 1.75, 0.5)),
        FamilySpec("hermite", 3, 6, cov=((1.0, 0.25, 0.0), (0.25, 1.0, -0.125), (0.0, -0.125, 1.0))),
    ], ids=["weighted-charlier", "hermite-cov"])
    def test_exact_catalog_wide(self, spec, monkeypatch):
        self.check(build_sheffer(*make_family(spec, exact=True), 6), monkeypatch)


class TestCombinatorialPath:
    def test_identity_map(self, rng):
        a = VectorSeries.identity(2, 4)
        p = random_polynomial(2, 4, rng)
        assert poly_abs_diff(umbral_apply_direct(a, p), p) <= 1e-14

    def test_falling_agrees_with_blocks(self, rng):
        a = VectorSeries.from_scalar_1d(log1p_series(6))
        seq = build_basic(a, 6)
        for _ in range(5):
            p = random_polynomial(1, 6, rng)
            assert poly_abs_diff(sheffer_apply(seq, p),
                                 umbral_apply_direct(a, p)) <= 1e-10

    def test_random_d2_agrees(self, rng):
        a = random_unit_linear(2, 4, rng, decay=2.0)
        seq = build_basic(a, 4)
        for _ in range(5):
            p = random_polynomial(2, 4, rng)
            assert poly_abs_diff(sheffer_apply(seq, p),
                                 umbral_apply_direct(a, p)) <= 1e-10

    def test_budget_guard(self, rng):
        a = random_unit_linear(3, 3, rng)
        with pytest.raises(ValueError):
            umbral_apply_direct(a, random_polynomial(3, 3, rng))


class TestBinomial:
    def test_identity_sequence(self):
        # the binomial theorem itself; float evaluation order leaves eps dust
        seq = build_basic(VectorSeries.identity(2, 5), 5)
        rep = binomial_check(seq, trials=10, rng=np.random.default_rng(3))
        assert rep.max_deviation <= 1e-13

    def test_falling_d1(self):
        seq = falling_seq(8, exact=False)
        rep = binomial_check(seq, trials=20, rng=np.random.default_rng(4))
        assert rep.max_deviation <= 1e-10

    def test_random_basic_d2(self, rng):
        seq = build_basic(random_unit_linear(2, 6, rng, decay=2.0), 6)
        rep = binomial_check(seq, trials=15, rng=np.random.default_rng(5))
        assert rep.max_deviation <= 1e-9

    def test_rejects_sheffer_input(self):
        seq = hermite_seq(4, exact=False)
        with pytest.raises(ValueError):
            binomial_check(seq)

    @pytest.mark.parametrize("kind", ["falling", "rising"])
    @pytest.mark.parametrize("dim,order", [(1, 8), (2, 6), (3, 4)])
    def test_against_convolution_oracle(self, kind, dim, order):
        seq = build_sheffer(*make_family(FamilySpec(kind, dim, order)), order)
        rep = binomial_check(seq, trials=6, rng=np.random.default_rng(dim))
        want = binomial_convolution(seq, 6, np.random.default_rng(dim), order)
        assert max(abs(rep.per_degree[n] - want[n]) for n in want) <= 1e-13

    def test_random_basic_against_convolution_oracle(self, rng):
        seq = build_basic(random_unit_linear(2, 5, rng, decay=2.0), 5)
        rep = binomial_check(seq, trials=6, rng=np.random.default_rng(6))
        want = binomial_convolution(seq, 6, np.random.default_rng(6), 5)
        assert max(abs(rep.per_degree[n] - want[n]) for n in want) <= 1e-13

    def test_perturbed_matrix_is_detected(self):
        # a constant term 1e-6 in P_{(0,2)} breaks the identity at degree 2
        seq = build_sheffer(*make_family(FamilySpec("falling", 2, 5)), 5)
        mat = seq.matrix.copy()
        mat[0, graded_size(2, 1)] += 1e-6
        bad = ShefferSequence(2, 5, mat, seq.blocks, seq.a, seq.rho, seq.theta_series,
                              seq.kappa_series, seq.exact)
        rep = binomial_check(bad, trials=4, rng=np.random.default_rng(7))
        want = binomial_convolution(bad, 4, np.random.default_rng(7), 5)
        assert rep.max_deviation >= 1e-8 and max(want.values()) >= 1e-8
        assert max(abs(rep.per_degree[n] - want[n]) for n in want) <= 1e-13


def theta_route_apply(basic, thetas, p):
    """Test-only route: build the Sheffer image from the basic blocks and the
    reciprocal coefficients through slot contraction."""
    dim, order = basic.dim, p.trimmed().degree
    out = [SymCoeff.zero(dim, k) for k in range(order + 1)]
    for n in range(order + 1):
        phi = p.coefficient(n)
        if phi.is_zero:
            continue
        for j in range(n + 1):
            if thetas[j].is_zero:
                continue
            reduced = sym_contract(thetas[j], phi)
            scale = math.factorial(n) / math.factorial(n - j)
            img = sheffer_apply(basic, PolynomialOnDual.from_coeffs(
                dim, [SymCoeff.zero(dim, t) for t in range(n - j)] + [reduced]))
            for k in range(n - j + 1):
                out[k] = out[k] + img.coefficient(k).scale(scale)
    return PolynomialOnDual.from_coeffs(dim, out)


class TestPathEquivalence:
    def test_theta_convolution_route(self, rng):
        for spec in (FamilySpec("charlier", 1, 6), FamilySpec("laguerre", 1, 6, k=2.0),
                     FamilySpec("charlier", 2, 4)):
            a, rho = make_family(spec)
            seq = build_sheffer(a, rho, spec.max_degree)
            basic = build_basic(a, spec.max_degree)
            for _ in range(3):
                p = random_polynomial(spec.dim, spec.max_degree, rng)
                direct = sheffer_apply(seq, p)
                via_theta = theta_route_apply(basic, seq.theta, p)
                scale = max(1.0, poly_scale(direct))
                assert poly_abs_diff(direct, via_theta) / scale <= 1e-9

    def test_kappa_reverse_route(self, rng):
        # the basic tensors expand in the Sheffer tensors through kappa
        a, rho = make_family(FamilySpec("charlier", 1, 6))
        seq = build_sheffer(a, rho, 6)
        basic = build_basic(a, 6)
        for _ in range(5):
            w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
            for n in range(7):
                lhs = basic.polynomial_tensor(n, w)
                rhs = SymCoeff.zero(1, n)
                for k in range(n + 1):
                    scale = math.factorial(n) / math.factorial(n - k)
                    rhs = rhs + sym_product(seq.kappa[k],
                                            seq.polynomial_tensor(n - k, w)).scale(scale)
                assert sym_norm(lhs - rhs) <= 1e-9 * max(1.0, sym_norm(lhs))


class TestGeneratingFunction:
    # xi shrinks with the truncation order: the truncated generating function
    # is off by O(|xi|^(order+1)), which must stay below the 1e-8 tolerance
    @pytest.mark.parametrize("dim, order, radius", [(1, 8, 0.05), (3, 6, 0.02), (4, 5, 0.02)],
                             ids=["laguerre-d1", "dense-d3", "dense-d4"])
    def test_reproduction_at_random_points(self, rng, dim, order, radius):
        if dim == 1:
            a, rho = make_family(FamilySpec("laguerre", 1, order, k=2.0))
        else:
            a = random_unit_linear(dim, order, rng)
            rho = random_series(dim, order, rng, constant=1.0 + 0.0j)
        seq = build_sheffer(a, rho, order)
        for _ in range(20):
            w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]
            xi = [radius * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]
            lhs = sum((1.0 / math.factorial(n)) * seq.polynomial_tensor(n, w).evaluate(xi)
                      for n in range(order + 1))
            axi = seq.a.evaluate(xi)
            rhs = np.exp(np.dot(w, axi)) / seq.rho.evaluate(axi)
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestEvaluate:
    def test_constant(self):
        p = PolynomialOnDual.from_coeffs(1, [SymCoeff.scalar(1, 1.0)])
        assert p.evaluate([123.0]) == 1.0

    def test_square(self):
        assert PolynomialOnDual.monomial(1, (2,)).evaluate([3.0]) == 9.0

    def test_falling_value(self):
        p = sheffer_apply(falling_seq(3, exact=False), monomial_1d(3, exact=False))
        assert abs(p.evaluate([5.0]) - 60.0) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            PolynomialOnDual.monomial(2, (1, 0)).evaluate([1.0])


def flip_last_bit(entry: dict) -> None:
    """Flip the lowest mantissa bit of the first entry of a stored block,
    keeping its checksum consistent."""
    raw = bytearray(base64.b64decode(entry["data"]))
    raw[0] ^= 1
    entry["data"] = base64.b64encode(bytes(raw)).decode("ascii")
    entry["sha256"] = hashlib.sha256(bytes(raw)).hexdigest()


def generic_build(spec: FamilySpec):
    """A catalog sequence built the way files of format 4 and older were:
    from its JSON'd (A, rho), with no closed forms and no family spec."""
    a, rho = make_family(spec)
    return build_sheffer(VectorSeries.from_json_dict(a.to_json_dict()),
                         ScalarSeries.from_json_dict(rho.to_json_dict()), spec.max_degree)


class TestSequenceFiles:
    def test_save_load_roundtrip(self, tmp_path):
        a, rho = make_family(FamilySpec("charlier", 1, 6))
        seq = build_sheffer(a, rho, 6)
        path = tmp_path / "seq.json"
        save_sequence(seq, path)
        loaded = load_sequence(path)
        for key, mat in seq.blocks.items():
            assert np.array_equal(mat, loaded.blocks[key])

    def test_checksum_detects_corruption(self, tmp_path):
        a, rho = make_family(FamilySpec("falling", 1, 4))
        seq = build_sheffer(a, rho, 4)
        doc = sequence_to_json_dict(seq)
        doc["blocks"]["1,3"]["sha256"] = "0" * 64
        with pytest.raises(ValueError):
            sequence_from_json_dict(doc)

    def test_stale_blocks_detected(self, tmp_path):
        a, rho = make_family(FamilySpec("falling", 1, 4))
        seq = build_sheffer(a, rho, 4)
        doc = sequence_to_json_dict(seq)
        other = build_sheffer(*make_family(FamilySpec("rising", 1, 4)), 4)
        doc["a"] = other.a.to_json_dict()
        with pytest.raises(ValueError):
            sequence_from_json_dict(doc)

    def test_untagged_files(self):
        # files without the format tag come from an earlier block builder:
        # they load while their blocks match a fresh build bit for bit, and a
        # block that differs, even in the last bit, asks for regeneration
        for dim in (1, 2):
            seq = generic_build(FamilySpec("charlier", dim, 4))
            doc = sequence_to_json_dict(seq)
            del doc["format_version"]
            assert sequence_from_json_dict(doc).max_degree == 4
            doc["format_version"] = SEQUENCE_FORMAT
            flip_last_bit(doc["blocks"]["1,3"])
            with pytest.raises(ValueError, match="disagrees with recomputation"):
                sequence_from_json_dict(doc)
            del doc["format_version"]
            with pytest.raises(ValueError, match="regenerate the file with `shefferkit family`"):
                sequence_from_json_dict(doc)
            doc["format_version"] = 99
            with pytest.raises(ValueError, match="unsupported sequence format_version 99"):
                sequence_from_json_dict(doc)

    def test_version_2_files(self):
        # version 2 files come from before the Newton series inverse: they
        # load while their blocks match a fresh build bit for bit, and a
        # block that differs in the last bit asks for regeneration
        seq = generic_build(FamilySpec("charlier", 1, 16))
        doc = sequence_to_json_dict(seq)
        doc["format_version"] = 2
        assert sequence_from_json_dict(doc).max_degree == 16
        flip_last_bit(doc["blocks"]["2,16"])
        with pytest.raises(ValueError, match="regenerate the file with `shefferkit family`"):
            sequence_from_json_dict(doc)

    @pytest.mark.parametrize("kind", ["hermite", "charlier", "laguerre"])
    def test_version_3_files(self, kind):
        # version 3 files come from before the degree recurrences of the
        # series layer, which moved the float theta of every non-constant
        # rho: they load while their blocks match a fresh build bit for bit,
        # and a block that differs in the last bit asks for regeneration
        seq = generic_build(FamilySpec(kind, 2, 10))
        doc = sequence_to_json_dict(seq)
        doc["format_version"] = 3
        assert sequence_from_json_dict(doc).max_degree == 10
        flip_last_bit(doc["blocks"]["0,10"])
        with pytest.raises(ValueError, match="regenerate the file with `shefferkit family`"):
            sequence_from_json_dict(doc)

    def test_every_block_and_entry_checked(self):
        # the stored bytes are the blocks' bytes, and the loader checks each
        # entry's key, fields, checksum and bytes against the rebuild
        seq = build_sheffer(*make_family(FamilySpec("charlier", 2, 4, weights=(0.5, 1.5))), 4)
        doc = sequence_to_json_dict(seq)
        assert sorted(doc["blocks"]) == sorted(f"{k},{n}" for k, n in seq.blocks)
        for (k, n), block in seq.blocks.items():
            entry = doc["blocks"][f"{k},{n}"]
            assert base64.b64decode(entry["data"]) == block.astype("<c16").tobytes()
            assert (entry["rows"], entry["cols"]) == block.shape
        assert sequence_from_json_dict(json.loads(json.dumps(doc))).max_degree == 4
        for key, edit, match in (
                ("5,5", None, "block key '5,5' must be 'k,n' with integers 0 <= k <= n <= 4"),
                ("1, 3", None, "block key '1, 3' must be 'k,n'"),
                ("1,3", lambda e: e.update(data=5), "block 1,3 needs string data and sha256"),
                ("2,3", lambda e: e.pop("sha256"), "block 2,3 needs string data and sha256"),
                ("0,4", lambda e: e.update(sha256="0" * 64), "corrupt block 0,4"),
                ("4,4", flip_last_bit, "block 4,4 disagrees with recomputation")):
            bad = json.loads(json.dumps(doc))
            if edit is None:  # block 1,3 stored under a bad key
                bad["blocks"][key] = bad["blocks"].pop("1,3")
            else:
                edit(bad["blocks"][key])
            with pytest.raises(ValueError, match=match):
                sequence_from_json_dict(bad)

    def test_polynomial_json_roundtrip(self, rng):
        p = random_polynomial_sparse(2, 4, rng)
        doc = json.loads(json.dumps(p.to_json_dict()))
        q = PolynomialOnDual.from_json_dict(doc)
        assert poly_abs_diff(p, q) == 0.0


class TestClassicalExactness:
    def test_charlier_oracle_exact(self):
        a, rho = make_family(FamilySpec("charlier", 1, 8), exact=True)
        seq = build_sheffer(a, rho, 8)
        for n in range(9):
            got = sheffer_apply(seq, monomial_1d(n))
            assert [got.coefficient(k).coefficient((k,)) for k in range(n + 1)] == \
                charlier_coeffs(n)

    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_laguerre_oracle_exact(self, k):
        a, rho = make_family(FamilySpec("laguerre", 1, 8, k=k), exact=True)
        seq = build_sheffer(a, rho, 8)
        for n in range(9):
            got = sheffer_apply(seq, monomial_1d(n))
            assert [got.coefficient(m).coefficient((m,)) for m in range(n + 1)] == \
                laguerre_coeffs(n, k)

    @pytest.mark.parametrize("kind", ["falling", "rising", "hermite", "charlier", "laguerre"])
    def test_catalog_n64_exact(self, kind):
        # the exact oracle for float mode at N = 64: column n of the forward
        # matrix is s_n, and forward times inverse is exactly the identity
        closed_form = {"falling": falling_coeffs, "rising": rising_coeffs,
                       "hermite": hermite_coeffs, "charlier": charlier_coeffs,
                       "laguerre": lambda n: laguerre_coeffs(n, 2)}[kind]
        seq = build_sheffer(*make_family(FamilySpec(kind, 1, 64, k=2), exact=True), 64)
        assert [list(seq.matrix[:n + 1, n]) for n in range(65)] == \
            [closed_form(n) for n in range(65)]
        assert_exact_inverse(seq)

    def test_non_dyadic_laguerre_exact(self):
        # k = 0.1 enters as its binary value, so the denominators reach 2^55
        spec = FamilySpec("laguerre", 2, 6, k=0.1, weights=(0.3, 0.7))
        a, rho = make_family(spec, exact=True)
        assert max(c.denominator for c in rho.vec) >= 2 ** 55
        for comp in a.components:
            assert ps_mul(rho, comp).terms == dict_product(rho, comp)
        assert_exact_inverse(build_sheffer(a, rho, 6))
