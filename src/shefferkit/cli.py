"""Command-line front end.

Subcommands: family, expand, apply, roundtrip, bounds, diverge, probe,
check.  All randomness flows from --seed, so a fixed RunConfig produces
byte-identical report files.  stdout carries summary tables, stderr the
diagnostics.

Exit codes: 0 success, 1 failed self-checks, 2 invalid specification or
usage, 3 I/O failure, 4 degree overflow, 5 violated check precondition.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .engine import (
    DegreeOverflowError,
    PolynomialOnDual,
    ShefferSequence,
    _symmetrize,
    binomial_check,
    build_sheffer,
    load_sequence,
    random_polynomial,
    save_sequence,
    sheffer_apply,
    sheffer_inverse_apply,
)
from .families import FAMILY_KINDS, FamilySpec, make_family
from .norms import (
    PreconditionError,
    appell_condition_check,
    divergence_sweep,
    embedding_check,
    operator_bound_check,
    quasi_holo_probe,
)
from .series import (
    ScalarSeries,
    VectorSeries,
    finite_number,
    graded_exponents,
    monomial_basis,
    ps_exp,
    ps_log,
    ps_mul,
    ps_recip,
    vs_compose,
    vs_inverse,
)
from .symtensor import (
    SymCoeff,
    sym_contract,
    sym_norm,
    sym_product,
    to_dense,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_DEGREE = 4
EXIT_PRECONDITION = 5


@dataclass
class RunConfig:
    """Merged command options; a JSON --config file overrides the flags."""

    command: str
    seed: int = 0
    out: str | None = None
    format: str = "json"
    kind: str | None = None
    dim: int = 1
    max_degree: int = 8
    cov: str | None = None
    laguerre_k: float = 0.0
    weights: str | None = None
    spec: str | None = None
    sequence: str | None = None
    a: str | None = None
    rho: str | None = None
    input: str | None = None
    alpha: float = 1.0
    l: int = 0
    l_prime: int | None = None
    degrees: str = "1:12"
    trials: int = 20
    no_blocks: bool = False

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        cfg = cls(**{k: v for k, v in vars(args).items() if k in known})
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("the config file must hold a JSON object")
            for key, value in overrides.items():
                if key == "command":
                    raise ValueError("the config file may not set 'command': "
                                     "the subcommand comes from the command line")
                if key not in known:
                    raise ValueError(f"unknown RunConfig key {key!r} in config file")
                setattr(cfg, key, value)
        for f in fields(cls):
            _check_type(getattr(cfg, f.name), f.name, f.type)
        if cfg.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {cfg.format!r}")
        if cfg.trials < 1:
            raise ValueError(f"trials must be at least 1, got {cfg.trials}")
        if cfg.seed < 0:
            raise ValueError(f"seed must be non-negative, got {cfg.seed}")
        return cfg


_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _check_type(value, name: str, annotation: str) -> None:
    """`value` must have the type of its RunConfig field (annotation
    "int", "str | None", ...); a bool is no number."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return
    if not isinstance(value, _FIELD_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{name} must be of type {kind}, got {value!r}")
    if kind == "float":
        finite_number(value, name)


def _parse_degree_range(text: str) -> list[int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"degree range must be start:end, got {text!r}") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise ValueError(f"bad degree range {text!r}")
    return list(range(lo_i, hi_i + 1))


def _family_spec(cfg: RunConfig) -> FamilySpec:
    if cfg.spec:
        with open(cfg.spec, "r", encoding="utf-8") as fh:
            return FamilySpec.from_json_dict(json.load(fh))
    if cfg.kind is None:
        raise ValueError("a family kind, spec file, or sequence file is required")
    doc = {"kind": cfg.kind, "dim": cfg.dim, "N": cfg.max_degree, "k": cfg.laguerre_k}
    if cfg.cov:
        doc["cov"] = json.loads(cfg.cov)
    if cfg.weights:
        doc["weights"] = [float(w) for w in cfg.weights.split(",")]
    return FamilySpec.from_json_dict(doc)


def _load_series_or_token(path_or_token: str, dim: int, order: int, role: str):
    if role == "a" and path_or_token == "identity":
        return VectorSeries.identity(dim, order)
    if role == "rho" and path_or_token == "one":
        return None
    with open(path_or_token, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if role == "a":
        return VectorSeries.from_json_dict(doc)
    return ScalarSeries.from_json_dict(doc)


def _resolve_sequence(cfg: RunConfig) -> ShefferSequence:
    if cfg.sequence:
        return load_sequence(cfg.sequence)
    if cfg.kind == "custom":
        if cfg.a is None:
            raise ValueError("custom families need --a (path or 'identity')")
        if cfg.max_degree < 1:
            raise ValueError(f"max_degree must be at least 1, got {cfg.max_degree}")
        a = _load_series_or_token(cfg.a, cfg.dim, cfg.max_degree, "a")
        rho = _load_series_or_token(cfg.rho or "one", cfg.dim, cfg.max_degree, "rho")
        return build_sheffer(a, rho, cfg.max_degree)
    spec = _family_spec(cfg)
    a, rho = make_family(spec)
    return build_sheffer(a, rho, spec.max_degree)


def _emit_report(cfg: RunConfig, doc: dict, fieldnames: list[str],
                 rows: list[dict]) -> None:
    """Write `doc` as JSON (sorted keys, indent 2), or `rows` as CSV under a
    header row with every float written as its repr.  The rows hold values of
    `doc`; a NaN or Infinity in it raises a ValueError, and nothing is written."""
    if not cfg.out:
        raise ValueError("--out is required for report commands")
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: repr(float(v)) if isinstance(v, float) else v
                          for k, v in row.items()} for row in rows)
        text = buf.getvalue()
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_family(cfg: RunConfig) -> int:
    seq = _resolve_sequence(cfg)
    if not cfg.out:
        raise ValueError("--out is required: family writes a sequence file")
    save_sequence(seq, cfg.out, include_blocks=not cfg.no_blocks)
    print(f"sequence dim={seq.dim} max_degree={seq.max_degree} "
          f"{'basic' if seq.is_basic else 'sheffer'}")
    print("degree basis_size theta_norm kappa_norm")
    for row in seq.summary_rows():
        print(f"{row['degree']:>6d} {row['basis_size']:>10d} "
              f"{row['theta_norm']:.12e} {row['kappa_norm']:.12e}")
    return EXIT_OK


def _load_polynomial(path: str) -> PolynomialOnDual:
    with open(path, "r", encoding="utf-8") as fh:
        return PolynomialOnDual.from_json_dict(json.load(fh))


def _poly_rows(p: PolynomialOnDual) -> list[dict]:
    rows = []
    for n, c in enumerate(p.coeffs):
        for exps, v in c.coeffs.items():
            rows.append({"degree": n, "exp": " ".join(str(e) for e in exps),
                         "re": complex(v).real, "im": complex(v).imag})
    return rows


def _transform_command(cfg: RunConfig, inverse: bool) -> int:
    if not cfg.input:
        raise ValueError("--input polynomial file is required")
    seq = _resolve_sequence(cfg)
    p = _load_polynomial(cfg.input)
    q = sheffer_inverse_apply(seq, p) if inverse else sheffer_apply(seq, p)
    _emit_report(cfg, q.to_json_dict(), ["degree", "exp", "re", "im"], _poly_rows(q))
    print(f"{'expanded' if inverse else 'applied'} degree {p.trimmed().degree} "
          f"-> {q.trimmed().degree}, wrote {cfg.out}")
    return EXIT_OK


def cmd_expand(cfg: RunConfig) -> int:
    return _transform_command(cfg, inverse=True)


def cmd_apply(cfg: RunConfig) -> int:
    return _transform_command(cfg, inverse=False)


def _coeff_scale(p: PolynomialOnDual) -> float:
    return max([abs(complex(v)) for c in p.coeffs for v in c.coeffs.values()],
               default=0.0)


def _poly_errors(p: PolynomialOnDual, q: PolynomialOnDual,
                 *via: PolynomialOnDual) -> tuple[float, float]:
    """Max coefficient deviation, absolute and relative.

    The relative figure is taken against the largest coefficient seen along
    the trip (including intermediates passed as `via`): a graded transform
    can inflate coefficients by factorial factors, and measuring against the
    input alone would charge that conditioning to the round trip.
    """
    top = max(p.degree, q.degree)
    abs_err = 0.0
    for n in range(top + 1):
        diff = p.coefficient(n) - q.coefficient(n)
        for v in diff.coeffs.values():
            abs_err = max(abs_err, abs(complex(v)))
    return abs_err, abs_err / max(1.0, _coeff_scale(p), *(_coeff_scale(m) for m in via))


def cmd_roundtrip(cfg: RunConfig) -> int:
    if not cfg.input:
        raise ValueError("--input polynomial file is required")
    seq = _resolve_sequence(cfg)
    p = _load_polynomial(cfg.input)
    mid = sheffer_inverse_apply(seq, p)
    back = sheffer_apply(seq, mid)
    abs_err, rel_err = _poly_errors(p, back, mid)
    doc = {"max_abs_error": abs_err, "max_rel_error": rel_err,
           "degree": p.trimmed().degree}
    _emit_report(cfg, doc, list(doc), [doc])
    print(f"roundtrip max_rel_error {rel_err:.3e}")
    return EXIT_OK


def cmd_bounds(cfg: RunConfig) -> int:
    seq = _resolve_sequence(cfg)
    report = operator_bound_check(seq, cfg.alpha, cfg.l, cfg.l_prime)
    _emit_report(cfg, report.to_json_dict(), report.CSV_FIELDS, report.rows)
    print(f"bounds {'PASS' if report.passed else 'FAIL'} "
          f"measured {report.measured:.6e} bound {report.bound:.6e}")
    return EXIT_OK


def cmd_diverge(cfg: RunConfig) -> int:
    seq = _resolve_sequence(cfg)
    degrees = _parse_degree_range(cfg.degrees)
    report = divergence_sweep(seq, cfg.alpha, degrees)
    _emit_report(cfg, report.to_json_dict(), report.CSV_FIELDS, report.rows)
    print(f"diverge verdict {report.verdict} raw_growth {report.raw_growth:.6e} "
          f"max_step_factor {report.max_step_factor:.6e}")
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    seq = _resolve_sequence(cfg)
    report = quasi_holo_probe(seq.a)
    _emit_report(cfg, report.to_json_dict(), report.CSV_FIELDS, report.rows)
    print(f"probe forward_envelope {report.forward_envelope:.6e} "
          f"inverse_envelope {report.inverse_envelope:.6e}")
    return EXIT_OK


# -- self-check suite ---------------------------------------------------------


def _falling_coeffs(n: int) -> list[float]:
    """Coefficients of z(z-1)...(z-n+1) by direct integer product."""
    coeffs = [1]
    for j in range(n):
        shifted = [0] + coeffs
        coeffs = [shifted[i] - j * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(shifted))]
    return [float(c) for c in coeffs]


def _hermite_coeffs(n: int) -> list[float]:
    """Monic recurrence p_{n+1} = z p_n - n p_{n-1}."""
    prev, cur = [1.0], [0.0, 1.0]
    if n == 0:
        return prev
    for m in range(1, n):
        nxt = [0.0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= m * c
        prev, cur = cur, nxt
    return cur


def _run_checks(cfg: RunConfig) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, measured: float, threshold: float) -> None:
        checks.append({"name": name, "passed": bool(measured <= threshold),
                       "measured": float(measured), "threshold": float(threshold)})

    def stream(i: int) -> np.random.Generator:
        # Each check that draws has its own stream, index i fixed to it, so
        # no check's figures depend on how many draws another one makes.
        return np.random.default_rng([cfg.seed, i])

    def rand_series(rng, dim, order, nnz_scale=0.5):
        terms = {}
        for deg in range(order + 1):
            for b in monomial_basis(dim, deg):
                terms[b] = nnz_scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return ScalarSeries.from_terms(dim, order, terms)

    # ring laws
    rng = stream(0)
    worst = 0.0
    for _ in range(5):
        a, b, c = (rand_series(rng, 2, 5) for _ in range(3))
        lhs = ps_mul(ps_mul(a, b), c)
        rhs = ps_mul(a, ps_mul(b, c))
        d1 = lhs - rhs
        d2 = ps_mul(a, b) - ps_mul(b, a)
        worst = max(worst, *(abs(complex(v)) for v in d1.terms.values()), 0.0)
        worst = max(worst, *(abs(complex(v)) for v in d2.terms.values()), 0.0)
    record("series_ring_laws", worst, 1e-12)

    # exp/log and recip round trips
    rng = stream(1)
    worst = 0.0
    for _ in range(5):
        z = rand_series(rng, 2, 6, 0.3)
        z = z - ScalarSeries.constant(2, 6, z.constant_term)
        back = ps_log(ps_exp(z)) - z
        worst = max(worst, *(abs(complex(v)) for v in back.terms.values()), 0.0)
        one_plus = ScalarSeries.one(2, 6) + z
        resid = ps_mul(one_plus, ps_recip(one_plus)) - ScalarSeries.one(2, 6)
        worst = max(worst, *(abs(complex(v)) for v in resid.terms.values()), 0.0)
    record("series_exp_log_recip", worst, 1e-12)

    # compositional inverse round trip
    rng = stream(2)
    worst = 0.0
    for _ in range(3):
        comps = []
        for i in range(2):
            s = rand_series(rng, 2, 6, 0.4)
            terms = {exps: c for exps, c in s.terms.items() if 2 <= sum(exps)}
            e = [0, 0]
            e[i] = 1
            terms[tuple(e)] = 1.0 + 0.0j
            comps.append(ScalarSeries.from_terms(2, 6, terms))
        a = VectorSeries.from_components(comps)
        resid = vs_compose(vs_inverse(a), a)
        ident = VectorSeries.identity(2, 6)
        for ci, cj in zip(resid.components, ident.components):
            diff = ci - cj
            worst = max(worst, *(abs(complex(v)) for v in diff.terms.values()), 0.0)
    record("series_inverse_roundtrip", worst, 1e-12)

    # tensor layer against dense oracle
    rng = stream(3)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        t = _random_symcoeff(d, k, rng)
        f = _random_symcoeff(d, k + m, rng)
        g = _random_symcoeff(d, m, rng)
        worst = max(worst, abs(sym_norm(f) - np.linalg.norm(to_dense(f).ravel())))
        dense_prod = _symmetrize(np.multiply.outer(to_dense(t), to_dense(g)))
        worst = max(worst, _dense_diff(to_dense(sym_product(t, g)), dense_prod))
        dense_ctr = np.tensordot(to_dense(t), to_dense(f), axes=k)
        worst = max(worst, _dense_diff(to_dense(sym_contract(t, f)), dense_ctr))
    record("tensor_dense_oracle", worst, 1e-12)

    # classical families
    falling = build_sheffer(*make_family(FamilySpec("falling", 1, 8)), 8)
    worst = max(abs(got - want) for n in range(9)
                for got, want in zip(falling.matrix[:n + 1, n], _falling_coeffs(n)))
    record("family_falling", worst, 1e-10)
    hermite = build_sheffer(*make_family(FamilySpec("hermite", 1, 8)), 8)
    worst = max(abs(got - want) for n in range(9)
                for got, want in zip(hermite.matrix[:n + 1, n], _hermite_coeffs(n)))
    record("family_hermite", worst, 1e-10)

    # binomial identity
    rep = binomial_check(falling, trials=max(1, cfg.trials // 2), rng=stream(4),
                         max_degree=6)
    record("binomial_falling", rep.max_deviation, 1e-9)

    # transform round trips per family
    rng = stream(5)
    worst = 0.0
    for kind, kpar in (("falling", 0.0), ("hermite", 0.0), ("charlier", 0.0),
                       ("laguerre", 2.0)):
        seq = build_sheffer(*make_family(FamilySpec(kind, 1, 8, k=kpar)), 8)
        for _ in range(5):
            p = random_polynomial(1, 8, rng)
            mid = sheffer_apply(seq, p)
            back = sheffer_inverse_apply(seq, mid)
            worst = max(worst, _poly_errors(p, back, mid)[1])
    record("transform_roundtrip", worst, 1e-9)

    # falling factorials factor over the variables: the exact d=2 matrix is
    # V[beta, gamma] = V1[beta_1, gamma_1] V1[beta_2, gamma_2] of the d=1 one
    v1, v2 = (build_sheffer(*make_family(FamilySpec("falling", d, 6), exact=True), 6).matrix
              for d in (1, 2))
    exps = graded_exponents(2, 6)
    kron = v1[np.ix_(exps[:, 0], exps[:, 0])] * v1[np.ix_(exps[:, 1], exps[:, 1])]
    record("falling_kronecker", np.count_nonzero(v2 != kron), 0.0)

    # generating function reproduction
    charlier = build_sheffer(*make_family(FamilySpec("charlier", 1, 8)), 8)
    rng = stream(6)
    worst = 0.0
    for _ in range(10):
        w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        xi = [0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        lhs = sum((1.0 / math.factorial(n)) * charlier.polynomial_tensor(n, w).evaluate(xi)
                  for n in range(9))
        axi = charlier.a.evaluate(xi)
        rho_val = 1.0 if charlier.rho is None else charlier.rho.evaluate(axi)
        rhs = np.exp(w[0] * axi[0]) / rho_val
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    record("gf_reproduction", worst, 1e-8)

    # embeddings
    rng = stream(7)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(3):
            p = random_polynomial(2, 6, rng)
            rep = embedding_check(p, alpha, 0, rng=np.random.default_rng(cfg.seed + 1))
            worst = max(worst, rep.measured)
    record("embedding_inequalities", worst, 1.0 + 1e-9)

    # operator bound
    fall12 = build_sheffer(*make_family(FamilySpec("falling", 1, 12)), 12)
    rep = operator_bound_check(fall12, 1.0, 0)
    record("operator_bound_falling", rep.measured, rep.bound * (1 + 1e-9))

    # divergence verdicts
    fall24 = build_sheffer(*make_family(FamilySpec("falling", 1, 24)), 24)
    sweep = divergence_sweep(fall24, 2.0, range(1, 25))
    record("diverge_falling_flags", 0.0 if sweep.verdict == "unbounded-looking" else 1.0, 0.5)
    herm24 = build_sheffer(*make_family(FamilySpec("hermite", 1, 24)), 24)
    sweep = divergence_sweep(herm24, 2.0, range(1, 25))
    record("diverge_hermite_bounded", 0.0 if sweep.verdict == "bounded" else 1.0, 0.5)

    # appell growth condition
    rep = appell_condition_check(build_sheffer(*make_family(FamilySpec("hermite", 1, 16)), 16), 2.0)
    record("appell_hermite_beta2", rep.measured, rep.bound * (1 + 1e-9))

    # quasi-holomorphy probes stay finite on the catalog
    worst = 0.0
    for kind in ("falling", "rising", "charlier", "laguerre"):
        seq = build_sheffer(*make_family(FamilySpec(kind, 1, 10)), 10)
        pr = quasi_holo_probe(seq.a)
        worst = max(worst, pr.forward_envelope, pr.inverse_envelope)
    record("quasi_holo_envelopes", worst, 4.0)

    return checks


def _random_symcoeff(dim: int, degree: int, rng: np.random.Generator) -> SymCoeff:
    basis = monomial_basis(dim, degree)
    vals = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
    return SymCoeff.from_coeffs(dim, degree, dict(zip(basis, vals)))


def _dense_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))))


def cmd_check(cfg: RunConfig) -> int:
    checks = _run_checks(cfg)
    all_passed = all(c["passed"] for c in checks)
    doc = {"seed": cfg.seed, "all_passed": all_passed, "checks": checks}
    if cfg.out:
        _emit_report(cfg, doc, ["name", "passed", "measured", "threshold"], checks)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
              f"{c['measured']:.3e} (threshold {c['threshold']:.3e})")
    print(f"{'all checks passed' if all_passed else 'SOME CHECKS FAILED'}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# -- argument parsing ----------------------------------------------------------


def _add_family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=FAMILY_KINDS, help="catalog family")
    sub.add_argument("--dim", type=int, default=1)
    sub.add_argument("--max-degree", dest="max_degree", type=int, default=8)
    sub.add_argument("--cov", help="hermite covariance as a JSON matrix")
    sub.add_argument("--laguerre-k", dest="laguerre_k", type=float, default=0.0)
    sub.add_argument("--weights", help="comma-separated quadrature weights")
    sub.add_argument("--spec", help="FamilySpec JSON file")
    sub.add_argument("--sequence", help="previously written sequence file")
    sub.add_argument("--a", help="custom: vector series JSON file or 'identity'")
    sub.add_argument("--rho", help="custom: scalar series JSON file or 'one'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args reads the parser and writes only the
    # namespace it returns, so no call sees another call's options.  The
    # globals are accepted before and after the subcommand; SUPPRESS keeps
    # either parser from clobbering a value the other parsed, and RunConfig
    # supplies the defaults.  No parser takes abbreviations: a prefix such as
    # --l would otherwise select --laguerre-k in a command that has no --l.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS, help="output file path")
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON RunConfig overriding the flags")
    parser = argparse.ArgumentParser(
        prog="shefferkit", parents=[common], allow_abbrev=False,
        description="Build Sheffer sequences, transform polynomials, and run "
                    "norm-bound verifications.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=help_text, parents=[common], allow_abbrev=False)

    p = command("family", "build a sequence file")
    _add_family_options(p)
    p.add_argument("--no-blocks", action="store_true",
                   help="omit precomputed blocks from the sequence file")

    for name, help_text in (("expand", "coefficients of the input in the S-basis"),
                            ("apply", "apply the forward transform"),
                            ("roundtrip", "expand then apply, report the error")):
        p = command(name, help_text)
        _add_family_options(p)
        p.add_argument("--input", help="polynomial JSON file")

    p = command("bounds", "operator continuity bound check")
    _add_family_options(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--l-prime", dest="l_prime", type=int, default=None)

    p = command("diverge", "same-level ratio sweep at alpha > 1")
    _add_family_options(p)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--degrees", default="1:12", help="inclusive range start:end")

    p = command("probe", "graded block envelopes of A and its inverse")
    _add_family_options(p)

    p = command("check", "run the built-in invariant suite")
    p.add_argument("--trials", type=int, default=20)

    return parser


_COMMANDS = {
    "family": cmd_family,
    "expand": cmd_expand,
    "apply": cmd_apply,
    "roundtrip": cmd_roundtrip,
    "bounds": cmd_bounds,
    "diverge": cmd_diverge,
    "probe": cmd_probe,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        with np.errstate(all="ignore"):  # a value out of range ends in one line, below
            return _COMMANDS[cfg.command](cfg)
    except DegreeOverflowError as exc:
        print(f"degree overflow: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid specification: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
