from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np
import pytest

from shefferkit import families, series
from shefferkit.engine import binomial_check, build_sheffer
from shefferkit.families import (
    FamilySpec,
    lift_1d,
    log1p_series,
    make_family,
    neg_log1m_series,
    ratio_series,
)
from shefferkit.norms import quasi_holo_probe
from shefferkit.series import (
    ScalarSeries,
    VectorSeries,
    graded_exponents,
    monomial_basis,
    ps_compose,
    ps_exp,
    vs_inverse,
)

from conftest import bits
from oracles import worst_block_error


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FamilySpec("nosuch", 1, 4)

    def test_laguerre_parameter_floor(self):
        with pytest.raises(ValueError):
            FamilySpec("laguerre", 1, 4, k=-2.0)
        FamilySpec("laguerre", 1, 4, k=-1.0)

    def test_covariance_shape_and_pd(self):
        with pytest.raises(ValueError):
            FamilySpec("hermite", 2, 4, cov=((1.0,),))
        with pytest.raises(ValueError):
            FamilySpec("hermite", 2, 4, cov=((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ValueError):
            FamilySpec("hermite", 2, 4, cov=((1.0, 0.5), (0.4, 1.0)))

    @pytest.mark.parametrize("max_degree", [0, -1])
    def test_max_degree_at_least_one(self, max_degree):
        with pytest.raises(ValueError, match=f"max_degree must be at least 1, got {max_degree}"):
            FamilySpec("hermite", 1, max_degree)
        FamilySpec("hermite", 1, 1)

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            FamilySpec("falling", 2, 4, weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            FamilySpec("falling", 2, 4, weights=(1.0,))

    def test_exact_weights_are_the_doubles(self):
        # the exact oracle transforms the float data itself: 0.3 is the double
        # nearest 3/10, not 3/10
        spec = FamilySpec("charlier", 3, 4, weights=(0.3, 2.0, 0.125))
        got = spec.resolved_weights(exact=True)
        assert got == [F(0.3), 2, F(1, 8)] and got[0] != F(3, 10)
        assert [type(w) for w in got] == [F, int, F]
        assert spec.resolved_weights() == [0.3, 2.0, 0.125]

    def test_json_roundtrip(self):
        spec = FamilySpec("hermite", 2, 6, cov=((2.0, 0.5), (0.5, 1.0)),
                          weights=(1.0, 2.0))
        doc = json.loads(json.dumps(spec.to_json_dict()))
        assert FamilySpec.from_json_dict(doc) == spec
        spec2 = FamilySpec("laguerre", 1, 4, k=2.0)
        assert FamilySpec.from_json_dict(spec2.to_json_dict()) == spec2

    def test_json_fields_typed(self):
        base = {"kind": "hermite", "dim": 2, "N": 4}
        for bad in ({"dim": 1.7}, {"N": "4"}, {"cov": [[1, 0], [0]]},
                    {"cov": [["1", 0], [0, 1]]}, {"k": float("inf")}, {"weights": "1,1"}):
            with pytest.raises(ValueError):
                FamilySpec.from_json_dict({**base, **bad})
        with pytest.raises(ValueError):
            FamilySpec.from_json_dict([base])
        spec = FamilySpec.from_json_dict({**base, "cov": [[2, 0], [0, 1]], "weights": [1, 2]})
        assert spec.cov == ((2.0, 0.0), (0.0, 1.0)) and spec.weights == (1.0, 2.0)


class TestHermite:
    def test_rho_coefficients_1d(self):
        _, rho = make_family(FamilySpec("hermite", 1, 8), exact=True)
        assert rho.coefficient((2,)) == F(1, 2)
        assert rho.coefficient((4,)) == F(1, 8)
        assert rho.coefficient((6,)) == F(1, 48)
        assert rho.coefficient((1,)) == 0 and rho.coefficient((3,)) == 0

    def test_quadratic_form_with_covariance(self):
        cov = ((2.0, 0.3), (0.3, 1.7))
        _, rho = make_family(FamilySpec("hermite", 2, 4, cov=cov))
        # degree-2 part of exp is the quadratic form itself, each entry the
        # exact covariance entry (halved on the diagonal) rounded once
        assert rho.coefficient((2, 0)) == complex(F(2.0) / 2)
        assert rho.coefficient((1, 1)) == complex(F(0.3))
        assert rho.coefficient((0, 2)) == complex(F(1.7) / 2)

    def test_even_structure_matches_symmetrized_powers(self):
        # rho^(2k) = Delta^{(.)k} / (k! 2^k) with Delta the quadratic kernel
        from shefferkit.symtensor import SymCoeff, sym_product
        cov = ((2.0, 0.5), (0.5, 1.0))
        _, rho = make_family(FamilySpec("hermite", 2, 6, cov=cov))
        delta = SymCoeff.from_coeffs(2, 2, {
            (2, 0): 2.0, (1, 1): 1.0, (0, 2): 1.0})
        power = delta
        import math
        for k in (1, 2, 3):
            if k > 1:
                power = sym_product(power, delta)
            part = rho.degree_part(2 * k)
            scale = 1.0 / (math.factorial(k) * 2.0 ** k)
            for exps, c in zip(monomial_basis(2, 2 * k), part):
                assert abs(complex(c) - scale * complex(power.coefficient(exps))) <= 1e-12

    def test_appell_shape(self):
        a, _ = make_family(FamilySpec("hermite", 2, 5))
        assert a == VectorSeries.identity(2, 5)


class TestLift:
    def test_identity_pair(self):
        u = ScalarSeries.variable(1, 5, 0, exact=True)
        a, rho = lift_1d(u, None, 3)
        assert a == VectorSeries.identity(3, 5, exact=True)
        assert rho.constant_term == 1 and len(rho.terms) == 1

    def test_falling_d2_components(self):
        a, rho = make_family(FamilySpec("falling", 2, 5), exact=True)
        lg = log1p_series(5, exact=True)
        for i, comp in enumerate(a.components):
            for k in range(1, 6):
                exps = [0, 0]
                exps[i] = k
                assert comp.coefficient(tuple(exps)) == lg.coefficient((k,))
        assert len(rho.terms) == 1 and rho.constant_term == 1

    def test_charlier_divisor_in_source_variable(self):
        # the lift is arranged so rho(A(xi)) = exp(sum_i xi_i) exactly
        a, rho = make_family(FamilySpec("charlier", 2, 6), exact=True)
        composed = ps_compose(rho.truncate(6), a)
        expected = ps_exp(ScalarSeries.from_terms(2, 6, {(1, 0): F(1), (0, 1): F(1)}))
        assert composed == expected

    def test_laguerre_divisor(self):
        a, rho = make_family(FamilySpec("laguerre", 1, 6, k=2.0), exact=True)
        composed = ps_compose(rho.truncate(6), a)
        # (1+u)^{k+1} = exp((k+1) log(1+u)) at k = 2
        expected = ps_exp(log1p_series(6, exact=True).scale(3))
        assert composed == expected

    def test_laguerre_km1_is_basic(self):
        _, rho = make_family(FamilySpec("laguerre", 1, 6, k=-1.0), exact=True)
        assert len(rho.terms) == 1 and rho.constant_term == 1

    def test_weighted_charlier_divisor(self):
        a, rho = make_family(FamilySpec("charlier", 2, 5, weights=(1.0, 3.0)),
                             exact=True)
        composed = ps_compose(rho.truncate(5), a)
        expected = ps_exp(ScalarSeries.from_terms(2, 5, {(1, 0): F(1), (0, 1): F(3)}))
        assert composed == expected

    def test_d1_lift_reproduces_direct_family(self):
        # blockwise identity between the lifted family at d = 1, unit weight,
        # and the same family assembled by hand
        for kind, kpar in (("charlier", 0.0), ("laguerre", 2.0)):
            a, rho = make_family(FamilySpec(kind, 1, 6, k=kpar), exact=True)
            seq = build_sheffer(a, rho, 6)
            if kind == "charlier":
                base = log1p_series(6, exact=True)
                c = ScalarSeries.from_terms(1, 6, {(1,): F(1)})
            else:
                base = ratio_series(6, exact=True)
                c = log1p_series(6, exact=True).scale(3)
            a2, rho2 = lift_1d(base, c, 1, [F(1)])
            seq2 = build_sheffer(a2, rho2, 6)
            for key, mat in seq.blocks.items():
                assert np.array_equal(mat, seq2.blocks[key])

    def test_lifted_basic_passes_binomial(self):
        for kind in ("falling", "rising"):
            a, rho = make_family(FamilySpec(kind, 2, 6))
            seq = build_sheffer(a, rho, 6)
            assert seq.is_basic
            rep = binomial_check(seq, trials=10, rng=np.random.default_rng(8))
            assert rep.max_deviation <= 1e-9

    def test_catalog_quasi_holomorphic(self):
        for kind in ("falling", "rising", "charlier", "laguerre"):
            a, _ = make_family(FamilySpec(kind, 1, 10))
            rep = quasi_holo_probe(a)
            assert rep.forward_envelope <= 1.0 + 1e-9
            assert np.isfinite(rep.inverse_envelope)

    def test_lift_validation(self):
        bad = ScalarSeries.from_terms(1, 4, {(1,): 2.0})
        with pytest.raises(ValueError):
            lift_1d(bad, None, 2)
        u = ScalarSeries.variable(1, 4, 0)
        with pytest.raises(ValueError):
            lift_1d(u, None, 2, weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            lift_1d(u, None, 2, weights=[1.0])


class TestBaseSeries:
    def test_log1p(self):
        s = log1p_series(5, exact=True)
        assert [s.coefficient((k,)) for k in range(1, 6)] == [
            F(1), F(-1, 2), F(1, 3), F(-1, 4), F(1, 5)]

    def test_neg_log1m(self):
        s = neg_log1m_series(4, exact=True)
        assert [s.coefficient((k,)) for k in range(1, 5)] == [
            F(1), F(1, 2), F(1, 3), F(1, 4)]

    def test_ratio(self):
        s = ratio_series(5, exact=True)
        assert [s.coefficient((k,)) for k in range(1, 6)] == [1, -1, 1, -1, 1]

    @pytest.mark.parametrize("builder", [log1p_series, neg_log1m_series, ratio_series])
    def test_float_is_exact_rounded_once(self, builder):
        assert builder(40).vec.tobytes() == builder(40, exact=True).vec.astype(complex).tobytes()

    @pytest.mark.parametrize("kind", ["falling", "rising", "charlier", "laguerre"])
    @pytest.mark.parametrize("dim, order", [(1, 12), (2, 8), (3, 6)])
    def test_float_a_is_exact_rounded_once(self, kind, dim, order):
        spec = FamilySpec(kind, dim, order, k=2.0)
        a_float, _ = make_family(spec)
        a_exact, _ = make_family(spec, exact=True)
        for cf, ce in zip(a_float.components, a_exact.components, strict=True):
            assert cf.vec.tobytes() == ce.vec.astype(complex).tobytes()

    def test_rising_is_mirror_of_falling(self):
        # -log(1-u) and log(1+u) differ by alternating signs
        lg = log1p_series(6, exact=True)
        mg = neg_log1m_series(6, exact=True)
        for k in range(1, 7):
            assert mg.coefficient((k,)) == abs(lg.coefficient((k,)))


def series_route(spec: FamilySpec):
    """(A, rho) of a catalog family as the series route makes them: `lift_1d`
    of the family's 1-d pair (a, c), and hermite's rho = exp(xi^T C xi / 2)."""
    n, d = spec.max_degree, spec.dim
    if spec.kind == "hermite":
        cov = np.eye(d) if spec.cov is None else np.asarray(spec.cov)
        quad = {}
        for i in range(d):
            for j in range(i, d):
                exps = tuple(int(m == i) + int(m == j) for m in range(d))
                quad[exps] = F(cov[i, j]) / (2 if i == j else 1)
        return VectorSeries.identity(d, n, exact=True), ps_exp(ScalarSeries.from_terms(d, n, quad))
    a = {"falling": log1p_series, "charlier": log1p_series, "rising": neg_log1m_series,
         "laguerre": ratio_series}[spec.kind](n, exact=True)
    c = None
    if spec.kind == "charlier":
        c = ScalarSeries.from_terms(1, n, {(1,): F(1)})
    elif spec.kind == "laguerre" and spec.k != -1:
        c = log1p_series(n, exact=True).scale(F(spec.k) + 1)
    return lift_1d(a, c, d, spec.resolved_weights(exact=True))


def closed_form_specs():
    """Every kind at d = 1, 2, 3, with unit and non-unit weights (hermite:
    identity and off-diagonal covariance), laguerre at k = -1, 0.5, 2."""
    specs = []
    for dim, order in ((1, 10), (2, 6), (3, 4)):
        weights = (None, (0.3, 2.0, 1.25)[:dim])
        for kind in ("falling", "rising", "charlier"):
            specs += [FamilySpec(kind, dim, order, weights=w) for w in weights]
        specs += [FamilySpec("laguerre", dim, order, k=k, weights=w)
                  for k in (-1.0, 0.5, 2.0) for w in weights]
        cov = tuple(tuple(1.5 if i == j else -0.3 for j in range(dim)) for i in range(dim))
        specs += [FamilySpec("hermite", dim, order), FamilySpec("hermite", dim, order, cov=cov)]
    return specs


def spec_id(spec: FamilySpec) -> str:
    out = f"{spec.kind}-d{spec.dim}-N{spec.max_degree}"
    if spec.kind == "laguerre":
        out += f"-k{spec.k:g}"
    if spec.weights is not None:
        out += "-w" + ",".join(f"{w:g}" for w in spec.weights)
    return out + ("-cov" if spec.cov is not None else "")


class TestClosedForms:
    @pytest.mark.parametrize("spec", closed_form_specs(), ids=spec_id)
    def test_equal_to_series_route(self, spec):
        n = spec.max_degree
        a, rho = make_family(spec, exact=True)
        plain = VectorSeries.from_components(a.components)
        assert a.inverse == vs_inverse(plain)
        want_a, want_rho = series_route(spec)
        assert a == want_a and rho == want_rho
        closed, generic = build_sheffer(a, rho, n), build_sheffer(plain, rho.series, n)
        assert closed.spec == spec and generic.spec is None
        assert closed.theta_series == generic.theta_series
        assert closed.kappa_series == generic.kappa_series
        assert np.array_equal(closed.matrix, generic.matrix)
        assert np.array_equal(closed.inverse_matrix, generic.inverse_matrix)

    @pytest.mark.parametrize("spec", closed_form_specs(), ids=spec_id)
    def test_float_is_exact_rounded_once(self, spec):
        (a_f, rho_f), (a_e, rho_e) = (make_family(spec, exact=e) for e in (False, True))
        pairs = [(rho_f, rho_e), (rho_f.theta, rho_e.theta), (rho_f.kappa, rho_e.kappa)]
        pairs += list(zip(a_f.inverse.components, a_e.inverse.components, strict=True))
        for got, want in pairs:
            assert bits(got.vec) == bits(want.vec.astype(complex))

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_series_inversion_or_composition(self, monkeypatch, exact):
        def forbidden(*args):
            raise AssertionError("a catalog build composed or lifted a series")
        monkeypatch.setattr(series, "_compose", forbidden)
        monkeypatch.setattr(families, "lift_1d", forbidden)
        for spec in closed_form_specs():
            seq = build_sheffer(*make_family(spec, exact=exact), spec.max_degree)
            assert seq.inverse_a is seq.a.inverse
            seq.inverse_blocks
            quasi_holo_probe(seq.a)

    def test_divisor_for_another_a_is_composed(self):
        # the closed forms belong to the A they were made with, not to an equal one
        spec = FamilySpec("charlier", 1, 6)
        a, rho = make_family(spec, exact=True)
        seq = build_sheffer(VectorSeries.from_components(a.components), rho, 6)
        assert seq.spec is None
        assert seq.kappa_series == ps_compose(rho.truncate(6), a)

    def test_divisor_arithmetic_is_plain(self):
        _, rho = make_family(FamilySpec("charlier", 2, 4))
        for got in (rho.truncate(3), rho.scale(2.0), rho + rho, -rho):
            assert type(got) is ScalarSeries
        assert rho == rho.series and rho.series == rho


class TestFloatAccuracy:
    # float blocks, forward and inverse, against the exact ones: the worst
    # block's relative Frobenius error
    @pytest.mark.parametrize("spec", [
        *(FamilySpec(kind, 1, order, k=2.0)
          for kind in ("falling", "rising", "hermite", "charlier", "laguerre")
          for order in (32, 64)),
        FamilySpec("charlier", 2, 12, weights=(0.3, 1.75)),
        FamilySpec("laguerre", 2, 12, k=2.0, weights=(0.3, 1.75))], ids=spec_id)
    def test_blocks_within_1e14_of_exact(self, spec):
        exact, approx = (build_sheffer(*make_family(spec, exact=e), spec.max_degree)
                         for e in (True, False))
        assert worst_block_error(approx.blocks, exact.blocks) <= 1e-14
        assert worst_block_error(approx.inverse_blocks, exact.inverse_blocks) <= 1e-14


class TestKronecker:
    @pytest.mark.parametrize("kind", ["falling", "rising", "charlier", "laguerre"])
    def test_exact_d2_blocks_factor(self, kind):
        # with unit weights every factor of the generating function is a
        # product over the coordinates, so V[beta, gamma] =
        # V1[beta_1, gamma_1] V1[beta_2, gamma_2] with V1 the d = 1 matrix
        one, two = (build_sheffer(*make_family(FamilySpec(kind, d, 6, k=2.0), exact=True), 6)
                    for d in (1, 2))
        exps = graded_exponents(2, 6)
        for v1, v2 in ((one.matrix, two.matrix), (one.inverse_matrix, two.inverse_matrix)):
            kron = v1[np.ix_(exps[:, 0], exps[:, 0])] * v1[np.ix_(exps[:, 1], exps[:, 1])]
            assert np.array_equal(v2, kron)


class TestCustomRejected:
    def test_make_family_custom_raises(self):
        with pytest.raises(ValueError):
            make_family(FamilySpec("custom", 1, 4))
