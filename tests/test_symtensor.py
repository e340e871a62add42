from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shefferkit.engine import build_sheffer
from shefferkit.series import ScalarSeries, graded_size, monomial_basis, ps_mul
from shefferkit.symtensor import (
    SymCoeff,
    WeightedInnerProduct,
    apply_slot_map,
    column_norms,
    sym_contract,
    sym_dual_norm,
    sym_norm,
    sym_product,
    to_dense,
)

from conftest import bits
from oracles import (dense_by_slots, dense_contract, dense_pair, dense_pairing,
                     dense_sym_product, from_dense)


def random_symcoeff(dim, degree, rng):
    basis = monomial_basis(dim, degree)
    vals = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
    return SymCoeff.from_coeffs(dim, degree, dict(zip(basis, vals)))


class TestNorm:
    def test_1d_reduction(self):
        phi = SymCoeff.from_coeffs(1, 2, {(2,): 3.0})
        assert sym_norm(phi) == 3.0

    def test_mixed_entry(self):
        phi = SymCoeff.from_coeffs(2, 2, {(1, 1): 1.0})
        assert abs(sym_norm(phi) - 1 / math.sqrt(2)) <= 1e-15
        assert abs(sym_norm(phi) - np.linalg.norm(to_dense(phi).ravel())) <= 1e-15

    def test_elementary_power(self):
        phi = SymCoeff.from_coeffs(2, 3, {(3, 0): 1.0})
        assert abs(sym_norm(phi) - 1.0) <= 1e-15

    def test_dense_consistency_sweep(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 5))
            phi = random_symcoeff(d, n, rng)
            assert abs(sym_norm(phi) - np.linalg.norm(to_dense(phi).ravel())) <= 1e-12

    def test_tiny_columns_scaled_up(self):
        # the squares of 1e-170 underflow; the norm is the unit norm times 1e-170
        got = column_norms([[1e-170], [1e-170]], 2, 1)[0]
        want = column_norms([[1.0], [1.0]], 2, 1)[0] * 1e-170
        assert abs(got - want) <= 1e-15 * want
        got = sym_norm(SymCoeff(1, 3, np.array([3e-170 + 0j])))
        want = sym_norm(SymCoeff(1, 3, np.array([1.0 + 0j]))) * 3e-170
        assert abs(got - want) <= 1e-15 * want

    def test_scaling_leaves_other_columns(self):
        # zero, ordinary and overflowing columns next to a tiny one keep their norms
        mat = np.array([[0.0, 3.0, 1e300, 1e-170], [0.0, 4.0, 1e300, 0.0]])
        got = column_norms(mat, 2, 1)
        assert got[0] == 0.0 and got[1] == column_norms(mat[:, 1:2], 2, 1)[0]
        assert got[2] == 1e300 * column_norms([[1.0], [1.0]], 2, 1)[0]
        assert abs(got[3] - 1e-170) <= 1e-15 * 1e-170

    @pytest.mark.parametrize("dim,order", [(2, 6), (3, 4), (4, 3)])
    def test_tensor_norm_is_block_column_norm(self, dim, order):
        # the norms the bounds and diverge checks read, bit for bit
        seq = build_sheffer(*dense_pair(dim, order, np.random.default_rng(dim)), order)
        for (k, n), block in seq.blocks.items():
            want = column_norms(block, dim, k).tolist()
            assert [sym_norm(SymCoeff(dim, k, block[:, j].copy()))
                    for j in range(block.shape[1])] == want, (k, n)


class TestProduct:
    def test_1d(self):
        a = SymCoeff.from_coeffs(1, 1, {(1,): 2.0})
        b = SymCoeff.from_coeffs(1, 1, {(1,): 3.0})
        assert sym_product(a, b).coefficient((2,)) == 6.0

    def test_xy(self):
        x = SymCoeff.from_coeffs(2, 1, {(1, 0): 1.0})
        y = SymCoeff.from_coeffs(2, 1, {(0, 1): 1.0})
        p = sym_product(x, y)
        assert p.coefficient((1, 1)) == 1.0 and p.degree == 2

    def test_dense_oracle_sweep(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a = random_symcoeff(d, k, rng)
            b = random_symcoeff(d, m, rng)
            got = to_dense(sym_product(a, b))
            want = dense_sym_product(to_dense(a), to_dense(b))
            assert float(np.max(np.abs(got - want))) <= 1e-12
            assert abs(sym_norm(sym_product(a, b)) - np.linalg.norm(want.ravel())) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_dense_oracle(self, rng, d):
        # Fraction and int operands: the product equals the dense oracle exactly
        def exact_symcoeff(degree, ints):
            return SymCoeff.from_coeffs(d, degree, {
                b: int(rng.integers(-9, 10)) if ints
                else F(int(rng.integers(-9, 10)), int(rng.integers(1, 12)))
                for b in monomial_basis(d, degree)})

        for k in range(3):
            for m in range(1, 3):
                for ints in (False, True):
                    a, b = exact_symcoeff(k, ints), exact_symcoeff(m, ints)
                    prod = sym_product(a, b)
                    assert prod.exact
                    assert all(type(c) is int for c in prod.vec) if ints else \
                        all(type(c) in (int, F) for c in prod.vec)
                    assert np.array_equal(to_dense(prod),
                                          dense_sym_product(to_dense(a), to_dense(b)))

    @staticmethod
    def sparse_symcoeff(rng, dim, degree, count, exact):
        """`count` nonzero entries (all of them for None) at random places."""
        size = len(monomial_basis(dim, degree))
        count = size if count is None else min(count, size)
        vec = np.zeros(size, dtype=object if exact else complex)
        at = rng.choice(size, count, replace=False)
        if exact:
            vec[at] = [F(int(rng.integers(1, 10) * rng.choice([-1, 1])), int(rng.integers(1, 13)))
                       for _ in range(count)]
        else:
            vec[at] = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
        return SymCoeff(dim, degree, vec)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_is_the_ring_product(self, dim, exact):
        # bit for bit ps_mul of the two slices placed in zero graded vectors
        # of order k + m: its outer-operand rule and zero skipping included
        def as_series(t, order):
            vec = np.zeros(graded_size(dim, order), dtype=t.vec.dtype)
            lo = graded_size(dim, t.degree - 1)
            vec[lo:lo + len(t.vec)] = t.vec
            return ScalarSeries(dim, order, vec)

        rng = np.random.default_rng([dim, exact])
        counts = (0, 1, 2, None)
        for k, m in itertools.product(range(4), repeat=2):
            pairs = [(self.sparse_symcoeff(rng, dim, k, ca, exact),
                      self.sparse_symcoeff(rng, dim, m, cb, exact))
                     for ca, cb in itertools.product(counts, repeat=2)]
            other = self.sparse_symcoeff(rng, dim, m, None, not exact)
            pairs += [(SymCoeff.zero(dim, k), other), (other, SymCoeff.zero(dim, k))]
            for a, b in pairs:
                got = sym_product(a, b)
                want = ps_mul(as_series(a, k + m), as_series(b, k + m)).degree_part(k + m)
                assert bits(got.vec) == bits(want), (k, m, a, b)

    def test_pairing_factorization(self, rng):
        a = random_symcoeff(2, 2, rng)
        b = random_symcoeff(2, 3, rng)
        prod = sym_product(a, b)
        for _ in range(20):
            w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            lhs = prod.evaluate(w)
            rhs = a.evaluate(w) * b.evaluate(w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestContract:
    def test_1d_coefficient_product(self):
        t = SymCoeff.from_coeffs(1, 1, {(1,): 2.0})
        c = SymCoeff.from_coeffs(1, 3, {(3,): 5.0})
        r = sym_contract(t, c)
        assert r.degree == 2 and r.coefficient((2,)) == 10.0

    def test_degree_zero_is_identity(self, rng):
        phi = random_symcoeff(2, 3, rng)
        unit = SymCoeff.scalar(2, 1.0)
        assert sym_contract(unit, phi) == phi

    def test_dense_oracle_sweep(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(0, 3))
            n = k + int(rng.integers(1, 3))
            t = random_symcoeff(d, k, rng)
            phi = random_symcoeff(d, n, rng)
            got = to_dense(sym_contract(t, phi))
            want = dense_contract(to_dense(t), to_dense(phi), k)
            assert float(np.max(np.abs(np.asarray(got, dtype=complex) - want))) <= 1e-12

    def test_defining_duality(self, rng):
        # <G (.) t, phi> = <G, contract(t, phi)> through dense pairings
        d, k, n = 2, 1, 3
        t = random_symcoeff(d, k, rng)
        phi = random_symcoeff(d, n, rng)
        r = sym_contract(t, phi)
        for _ in range(10):
            g = random_symcoeff(d, n - k, rng)
            lhs = dense_pairing(to_dense(sym_product(g, t)), to_dense(phi))
            rhs = dense_pairing(to_dense(g), to_dense(r))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_cauchy_schwarz_bound(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(0, 3))
            n = k + int(rng.integers(0, 3))
            t = random_symcoeff(d, k, rng)
            phi = random_symcoeff(d, n, rng)
            assert sym_norm(sym_contract(t, phi)) <= \
                sym_norm(t) * sym_norm(phi) * (1 + 1e-12)

    def test_degree_mismatch(self):
        t = SymCoeff.from_coeffs(1, 3, {(3,): 1.0})
        phi = SymCoeff.from_coeffs(1, 2, {(2,): 1.0})
        with pytest.raises(ValueError):
            sym_contract(t, phi)


class TestDense:
    def test_1d_any_degree(self):
        phi = SymCoeff.from_coeffs(1, 4, {(4,): 2.5})
        dense = to_dense(phi)
        assert dense.shape == (1,) * 4 and complex(dense.ravel()[0]) == 2.5

    def test_symmetrization_entries(self):
        phi = SymCoeff.from_coeffs(2, 2, {(1, 1): 1.0})
        dense = to_dense(phi)
        assert dense[0, 1] == 0.5 and dense[1, 0] == 0.5 and dense[0, 0] == 0

    def test_roundtrip_float_ulp(self, rng):
        # the beta!/n! scaling and its inverse are each a single correctly
        # rounded operation, so the float round trip is exact to the ulp
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            phi = random_symcoeff(d, n, rng)
            back = from_dense(to_dense(phi), dim=d)
            err = max((abs(complex(back.coefficient(mi)) - complex(c))
                       for mi, c in phi.coeffs.items()), default=0.0)
            assert err <= 1e-15
            assert set(back.coeffs) == set(phi.coeffs)

    def test_exact_mode_roundtrip_is_identity(self):
        phi = SymCoeff.from_coeffs(2, 3, {(2, 1): F(3, 7), (0, 3): F(-1, 2)})
        assert from_dense(to_dense(phi), dim=2) == phi

    def test_budget(self):
        phi = SymCoeff.from_coeffs(4, 7, {(7, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            to_dense(phi)


SHAPES = [(d, n) for d in range(1, 5) for n in range(7) if d ** n <= 4096]


class TestDenseGather:
    """to_dense against the slot-by-slot oracle: same dtype, shape and bits."""

    @staticmethod
    def assert_same(phi):
        got, want = to_dense(phi), dense_by_slots(phi)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert bits(got) == bits(want)
        if got.dtype == object:
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("dim,degree", SHAPES)
    def test_float(self, rng, dim, degree):
        for _ in range(3):
            self.assert_same(random_symcoeff(dim, degree, rng))

    @pytest.mark.parametrize("dim,degree", SHAPES)
    def test_exact(self, rng, dim, degree):
        basis = monomial_basis(dim, degree)
        for _ in range(3):
            vals = [F(int(v), int(w)) if v % 3 else int(v)
                    for v, w in zip(rng.integers(-9, 10, len(basis)),
                                    rng.integers(1, 12, len(basis)))]
            self.assert_same(SymCoeff.from_coeffs(dim, degree, dict(zip(basis, vals))))

    @pytest.mark.parametrize("dim,degree", SHAPES)
    def test_zero(self, dim, degree):
        size = len(monomial_basis(dim, degree))
        self.assert_same(SymCoeff.zero(dim, degree))
        self.assert_same(SymCoeff(dim, degree, np.zeros(size, dtype=object)))
        self.assert_same(SymCoeff(dim, degree, np.full(size, -0.0 - 0.0j)))

    def test_special_values(self):
        # -0.0 parts read as zero, a subnormal scales with one rounding, and
        # an entry that is not finite becomes NaN + NaN j in both
        vec = np.array([-0.0 + 1.0j, 1e308 + 0j, np.inf + 0j, np.nan + 2j, 0j,
                        3.0 - 0.0j, 1e-320 + 0j, -0.0 - 0.0j, 1.0, 2.0], dtype=complex)
        self.assert_same(SymCoeff(3, 3, vec))

    @pytest.mark.parametrize("dim,degree", [(4, 7), (2, 13), (5, 6), (3, 8)])
    def test_budget(self, dim, degree):
        phi = SymCoeff.from_coeffs(dim, degree, {(degree,) + (0,) * (dim - 1): 1.0})
        for route in (to_dense, dense_by_slots):
            with pytest.raises(ValueError, match="dense budget exceeded"):
                route(phi)


class TestWeights:
    def test_identity_matches_default(self, rng):
        w = WeightedInnerProduct.identity(2)
        phi = random_symcoeff(2, 3, rng)
        assert sym_norm(phi, w) == sym_norm(phi)

    def test_diagonal_1d_scaling(self):
        w = WeightedInnerProduct.diagonal([4.0])
        phi = SymCoeff.from_coeffs(1, 3, {(3,): 1.0})
        assert abs(sym_norm(phi, w) - 8.0) <= 1e-12       # (sqrt 4)^3
        assert abs(sym_dual_norm(phi, w) - 0.125) <= 1e-12

    def test_matrix_weight_against_dense_slots(self, rng):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        w = WeightedInnerProduct(m)
        lmap = w.primal_slot_map()
        for _ in range(10):
            phi = random_symcoeff(2, 3, rng)
            dense = to_dense(phi)
            for axis in range(3):
                dense = np.tensordot(lmap, dense, axes=(1, axis))
            # tensordot cycles the axes; the Euclidean norm is unaffected
            assert abs(sym_norm(phi, w) - np.linalg.norm(dense.ravel())) <= 1e-12

    def test_slot_map_identity(self, rng):
        phi = random_symcoeff(2, 3, rng)
        assert apply_slot_map(phi, np.eye(2)) == phi

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedInnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            WeightedInnerProduct(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            WeightedInnerProduct.diagonal([1.0, 0.0])
