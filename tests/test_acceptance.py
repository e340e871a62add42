"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np

from shefferkit.cli import main as cli_main
from shefferkit.engine import (
    PolynomialOnDual,
    binomial_check,
    build_basic,
    build_sheffer,
    random_polynomial,
    sheffer_apply,
    sheffer_inverse_apply,
)
from shefferkit.families import FamilySpec, log1p_series, make_family, neg_log1m_series, ratio_series
from shefferkit.norms import (
    appell_condition_check,
    divergence_sweep,
    embedding_check,
    operator_bound_check,
)
from shefferkit.series import (
    VectorSeries,
    monomial_basis,
    vs_compose,
    vs_inverse,
)
from shefferkit.symtensor import (
    SymCoeff,
    sym_contract,
    sym_norm,
    sym_product,
    to_dense,
)

from conftest import coeff_column_1d, poly_abs_diff, poly_scale
from oracles import (
    charlier_coeffs,
    dense_contract,
    dense_sym_product,
    falling_coeffs,
    hermite_coeffs,
    laguerre_coeffs,
    random_unit_linear,
    rising_coeffs,
    umbral_apply_direct,
)

SEED = 20260810


def verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def exact_column(seq, n):
    got = sheffer_apply(seq, PolynomialOnDual.monomial(1, (n,), F(1)))
    return [got.coefficient(k).coefficient((k,)) for k in range(n + 1)]


def test_criterion_1_classical_family_fidelity():
    ok = True
    # exact rational mode
    herm = build_sheffer(*make_family(FamilySpec("hermite", 1, 10), exact=True), 10)
    ok &= all(exact_column(herm, n) == hermite_coeffs(n) for n in range(11))
    fall = build_sheffer(*make_family(FamilySpec("falling", 1, 10), exact=True), 10)
    ok &= all(exact_column(fall, n) == falling_coeffs(n) for n in range(11))
    char = build_sheffer(*make_family(FamilySpec("charlier", 1, 8), exact=True), 8)
    ok &= all(exact_column(char, n) == charlier_coeffs(n) for n in range(9))
    for k in (-1, 0, 2):
        lag = build_sheffer(*make_family(FamilySpec("laguerre", 1, 8, k=k), exact=True), 8)
        ok &= all(exact_column(lag, n) == laguerre_coeffs(n, k) for n in range(9))
    # float mode within 1e-10, normwise per polynomial: the coefficients of
    # one polynomial span ~1e0..1e6, and the float build is conditioned by
    # the largest of them, so "match to 1e-10" compares against that scale
    worst = 0.0
    for spec, oracle, top in (
            (FamilySpec("hermite", 1, 10), hermite_coeffs, 10),
            (FamilySpec("falling", 1, 10), falling_coeffs, 10),
            (FamilySpec("rising", 1, 10), rising_coeffs, 10),
            (FamilySpec("charlier", 1, 8), charlier_coeffs, 8),
            (FamilySpec("laguerre", 1, 8, k=2.0), lambda n: laguerre_coeffs(n, 2), 8)):
        seq = build_sheffer(*make_family(spec), spec.max_degree)
        for n in range(top + 1):
            got = coeff_column_1d(sheffer_apply(
                seq, PolynomialOnDual.monomial(1, (n,))), n)
            want = [complex(w) for w in oracle(n)]
            scale = max(1.0, max(abs(w) for w in want))
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)) / scale)
    ok &= worst <= 1e-10
    verdict(1, "classical families match their oracles", bool(ok),
            f"float deviation {worst:.2e}")


def test_criterion_2_compositional_inversion():
    rng = np.random.default_rng(SEED)
    worst = 0.0

    def residual(a):
        b = vs_inverse(a)
        ident = VectorSeries.identity(a.dim_in, a.max_degree)
        err = 0.0
        for comp_pair in ((vs_compose(b, a), ident), (vs_compose(a, b), ident)):
            for ci, cj in zip(comp_pair[0].components, comp_pair[1].components):
                diff = ci - cj
                err = max(err, max((abs(complex(v)) for v in diff.terms.values()),
                                   default=0.0))
        return err

    for series in (log1p_series(10), neg_log1m_series(10), ratio_series(10)):
        worst = max(worst, residual(VectorSeries.from_scalar_1d(series)))
    sizes = [(1, 10)] * 4 + [(2, 6)] * 5 + [(2, 8)] * 4 + [(2, 10)] * 2 \
        + [(3, 4)] * 2 + [(3, 6)] * 2 + [(3, 10)]
    assert len(sizes) == 20
    for dim, order in sizes:
        worst = max(worst, residual(random_unit_linear(dim, order, rng)))
    verdict(2, "compositional inverses invert to truncation", worst <= 1e-12,
            f"max residual {worst:.2e}")


def test_criterion_3_binomial_identity():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    cases = [
        build_sheffer(*make_family(FamilySpec("falling", 1, 8)), 8),
        build_sheffer(*make_family(FamilySpec("rising", 1, 8)), 8),
        build_sheffer(*make_family(FamilySpec("falling", 2, 6)), 6),
        build_basic(random_unit_linear(2, 6, rng, decay=2.0), 6),
    ]
    for seq in cases:
        rep = binomial_check(seq, trials=50, rng=rng)
        worst = max(worst, rep.max_deviation)
    verdict(3, "binomial convolution identity", worst <= 1e-9,
            f"max deviation {worst:.2e}")


def test_criterion_4_operator_round_trip():
    rng = np.random.default_rng(SEED + 2)
    specs = [FamilySpec("falling", 1, 10), FamilySpec("rising", 1, 10),
             FamilySpec("hermite", 1, 10), FamilySpec("charlier", 1, 10),
             FamilySpec("laguerre", 1, 10, k=2.0), FamilySpec("charlier", 2, 6)]
    worst = 0.0
    for spec in specs:
        seq = build_sheffer(*make_family(spec), spec.max_degree)
        for _ in range(100):
            p = random_polynomial(seq.dim, seq.max_degree, rng)
            mid = sheffer_apply(seq, p)
            back = sheffer_inverse_apply(seq, mid)
            scale = max(1.0, poly_scale(p), poly_scale(mid))
            worst = max(worst, poly_abs_diff(back, p) / scale)
    verdict(4, "inverse transform undoes the forward transform",
            worst <= 1e-9, f"max relative error {worst:.2e}")


def test_criterion_5_path_equivalence():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    cases = [
        (VectorSeries.from_scalar_1d(log1p_series(6)), 1, 6, 20),
        (make_family(FamilySpec("falling", 2, 4))[0], 2, 4, 10),
        (random_unit_linear(2, 4, rng, decay=2.0), 2, 4, 10),
    ]
    for a, dim, order, count in cases:
        seq = build_basic(a, order)
        for _ in range(count):
            p = random_polynomial(dim, order, rng)
            worst = max(worst, poly_abs_diff(sheffer_apply(seq, p),
                                             umbral_apply_direct(a, p)))
    verdict(5, "combinatorial route agrees with block extraction",
            worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_6_continuity_bound():
    ok = True
    details = []
    for spec in (FamilySpec("falling", 1, 12), FamilySpec("charlier", 2, 12)):
        seq = build_sheffer(*make_family(spec), spec.max_degree)
        rep = operator_bound_check(seq, 1.0, 0)
        ok &= rep.passed
        details.append(f"{spec.kind}: ratio {rep.measured:.3e} <= {rep.bound:.3f}")
    verdict(6, "graded transform stays within the continuity constant",
            bool(ok), "; ".join(details))


def test_criterion_7_norm_scale_embeddings():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for i in range(100):
            dim = 1 if i % 2 == 0 else 2
            p = random_polynomial(dim, 8, rng)
            rep = embedding_check(p, alpha, 0,
                                  rng=np.random.default_rng(SEED + 5 + i))
            worst = max(worst, rep.measured)
            if not rep.passed:
                verdict(7, "norm-scale embedding inequalities", False,
                        f"alpha={alpha} measured {rep.measured:.3e}")
    verdict(7, "norm-scale embedding inequalities", worst <= 1.0 + 1e-9,
            f"worst ratio {worst:.3e} over 300 polynomials")


def test_criterion_8_divergence_sharpness():
    falling = build_sheffer(*make_family(FamilySpec("falling", 1, 24)), 24)
    sweep_f = divergence_sweep(falling, 2.0, range(1, 25))
    r5 = next(r["ratio"] for r in sweep_f.rows if r["degree"] == 5)
    r24 = next(r["ratio"] for r in sweep_f.rows if r["degree"] == 24)
    falling_ok = (r24 > 10 * r5) and sweep_f.verdict == "unbounded-looking"

    hermite = build_sheffer(*make_family(FamilySpec("hermite", 1, 24)), 24)
    cond = appell_condition_check(hermite, 2.0)
    sweep_h = divergence_sweep(hermite, 2.0, range(1, 25))
    # bounded here means controlled geometric growth: every per-degree step
    # stays within a factor 3, which is what an index shift can absorb (the
    # raw same-level ratios themselves grow like 2^{n/2} for this family)
    hermite_ok = (sweep_h.max_step_factor <= 3.0
                  and sweep_h.verdict == "bounded" and cond.passed)
    verdict(8, "same-level sweep separates the two growth classes",
            falling_ok and hermite_ok,
            f"falling r24/r5 {r24 / r5:.3e}; "
            f"hermite max step {sweep_h.max_step_factor:.3f}")


def test_criterion_9_tensor_layer_oracle():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0

    def rand_coeff(dim, degree):
        basis = monomial_basis(dim, degree)
        vals = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
        return SymCoeff.from_coeffs(dim, degree, dict(zip(basis, vals)))

    for _ in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(0, 3))
        m = int(rng.integers(1, 3))
        theta = rand_coeff(d, k)
        eta = rand_coeff(d, m)
        phi = rand_coeff(d, k + m)
        worst = max(worst, abs(sym_norm(phi) - np.linalg.norm(to_dense(phi).ravel())))
        got = to_dense(sym_product(theta, eta))
        want = dense_sym_product(to_dense(theta), to_dense(eta))
        worst = max(worst, float(np.max(np.abs(got - want))))
        got_c = np.asarray(to_dense(sym_contract(theta, phi)), dtype=complex)
        want_c = dense_contract(to_dense(theta), to_dense(phi), k)
        worst = max(worst, float(np.max(np.abs(got_c - np.asarray(want_c, dtype=complex)))))
    verdict(9, "tensor operations match the dense brute-force oracle",
            worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    poly = PolynomialOnDual.monomial(1, (4,))
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps(poly.to_json_dict()), encoding="utf-8")
    jobs = [
        ["check"],
        ["family", "--kind", "charlier", "--dim", "2", "--max-degree", "5"],
        ["bounds", "--kind", "falling", "--dim", "1", "--max-degree", "10"],
        ["diverge", "--kind", "falling", "--dim", "1", "--max-degree", "12",
         "--degrees", "1:12"],
        ["probe", "--kind", "laguerre", "--dim", "1", "--max-degree", "8"],
        ["expand", "--kind", "falling", "--dim", "1", "--max-degree", "8",
         "--input", str(poly_file)],
        ["roundtrip", "--kind", "hermite", "--dim", "1", "--max-degree", "8",
         "--input", str(poly_file)],
    ]
    ok = True
    for i, args in enumerate(jobs):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        assert cli_main(args + ["--seed", "11", "--out", str(a)]) == 0
        assert cli_main(args + ["--seed", "11", "--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    verdict(10, "seeded reports are byte-identical", bool(ok),
            f"{len(jobs)} commands compared")
