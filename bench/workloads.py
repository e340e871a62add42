"""The four benchmark workloads: input generation, one timed pass, checks.

Each workload is a closed loop with a single client: the next call into
shefferkit starts only after the previous one returned.  A pass first makes
every call in a fixed order, timing each one (the "timed part"), and only
then checks what the calls returned, so checking never counts as program
time.  Calls go through the public entry points only:

    families.make_family, engine.build_sheffer, ShefferSequence.inverse_blocks,
    engine.sheffer_apply, engine.sheffer_inverse_apply, cli.main

Inputs come from the seed alone and are handed to the program in its
documented JSON schemas (series, polynomial and family documents).

An operation fails when it raises, returns a non-finite value, exits with
another code than expected, writes a report whose bytes differ between the
two rounds of a CLI pass, fails the roundtrip report's 1e-9 pin, or gives a
verdict that differs from the known answer.  Accuracy is scored apart from
failure, as digits: -log10 of a relative error, clamped to [0, 16].
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from shefferkit import cli, engine, families, series

ROUNDTRIP_PIN = 1e-9
MAX_DIGITS = 16.0


@dataclass
class Op:
    """One timed call into the program and what the checks made of it."""

    name: str
    stage: str
    seconds: float
    error: str | None = None
    digits: float | None = None


@dataclass
class PassResult:
    ops: list[Op]
    wall_s: float
    report_bytes: int = 0

    @property
    def failures(self) -> list[Op]:
        return [op for op in self.ops if op.error is not None]


def digits(rel_err: float) -> float:
    if not math.isfinite(rel_err):
        return 0.0
    if rel_err <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(rel_err)))


def basis(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one total degree in lexicographic order.

    The benchmark enumerates its own monomials so that a seed keeps meaning
    the same inputs whatever order the program uses internally.
    """
    out = []
    for cut in itertools.combinations(range(degree + dim - 1), dim - 1):
        edges = (-1,) + cut + (degree + dim - 1,)
        out.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(dim)))
    return sorted(out)


def _uniform_square(rng: np.random.Generator) -> tuple[float, float]:
    re, im = rng.uniform(-1.0, 1.0, size=2)
    return float(re), float(im)


def _term(exps, re, im) -> dict:
    return {"exp": list(exps), "re": re, "im": im}


def polynomial_doc(dim: int, degree: int, rng: np.random.Generator) -> dict:
    """Polynomial file document with coefficients uniform on the unit complex square."""
    return {"dim": dim, "coefficients": [
        {"dim": dim, "degree": n,
         "terms": [_term(b, *_uniform_square(rng)) for b in basis(dim, n)]}
        for n in range(degree + 1)]}


def dense_pair_docs(dim: int, order: int, rng: np.random.Generator) -> tuple[dict, dict]:
    """Series documents of a dense unit-linear A and a dense rho with rho(0) = 1.

    Degree-k coefficients are uniform on the complex square, scaled by
    2^-(k-1) in A and 2^-k in rho, so both series converge near the origin.
    """
    comps = []
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        terms = [_term(unit, 1.0, 0.0)]
        for k in range(2, order + 1):
            scale = 2.0 ** -(k - 1)
            for b in basis(dim, k):
                re, im = _uniform_square(rng)
                terms.append(_term(b, scale * re, scale * im))
        comps.append({"dim": dim, "max_degree": order, "terms": terms})
    a_doc = {"dim_in": dim, "dim_out": dim, "max_degree": order, "components": comps}
    terms = [_term((0,) * dim, 1.0, 0.0)]
    for k in range(1, order + 1):
        scale = 2.0 ** -k
        for b in basis(dim, k):
            re, im = _uniform_square(rng)
            terms.append(_term(b, scale * re, scale * im))
    return a_doc, {"dim": dim, "max_degree": order, "terms": terms}


def poly_values(doc: dict) -> dict[tuple[int, ...], complex]:
    """Coefficients of a polynomial document, keyed by exponent tuple."""
    return {tuple(t["exp"]): complex(t["re"], t["im"])
            for c in doc["coefficients"] for t in c["terms"]}


def roundtrip_error(p: dict, back: dict, mid: dict) -> float:
    """Largest coefficient deviation of back from p, relative to the largest
    coefficient seen along the trip (at least 1); NaN if any is not finite.

    A graded transform can inflate coefficients by factorial factors, so the
    intermediate expansion is part of the scale, as in the CLI roundtrip.
    """
    pv, bv, mv = poly_values(p), poly_values(back), poly_values(mid)
    diff = np.array([pv.get(k, 0j) - bv.get(k, 0j) for k in pv.keys() | bv.keys()])
    scale = np.abs(np.array([1.0, *pv.values(), *mv.values()]))
    return float(np.max(np.abs(diff), initial=0.0) / np.max(scale))


class _Clock:
    """Runs calls in order, timing each and catching what they raise."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def call(self, name: str, stage: str, fn, *args):
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        self.ops.append(Op(name, stage, time.perf_counter() - t0, error))
        return self.ops[-1], result


def _finite_blocks(blocks: dict) -> bool:
    return all(np.isfinite(np.asarray(m, dtype=complex)).all() for m in blocks.values())


# -- dense random (A, rho) --------------------------------------------------


class DenseWorkload:
    """Dense random (A, rho) per (d, N): forward build, inverse build, and
    ROUNDTRIPS seeded expand -> apply round trips scored in digits."""

    ROUNDTRIPS = 3
    digits_name = "roundtrip_digits"
    table = ("forward_build_s", "inverse_build_s")

    def __init__(self, sizes: tuple[tuple[int, int], ...]) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: str) -> list:
        # (A, rho) come from a stream fixed per (d, N) and the seed draws the
        # polynomials: the round-trip digits of one (A, rho) draw differ from
        # the next by a quarter at d = 1, N >= 64, which would swamp any change
        # made to the program, while the polynomials barely move them.
        rng = np.random.default_rng(seed)
        cases = []
        for d, n in self.sizes:
            a_doc, rho_doc = dense_pair_docs(d, n, np.random.default_rng([d, n]))
            polys = [polynomial_doc(d, n, rng) for _ in range(self.ROUNDTRIPS)]
            cases.append((f"d{d}-N{n}", series.VectorSeries.from_json_dict(a_doc),
                          series.ScalarSeries.from_json_dict(rho_doc), n, polys,
                          [engine.PolynomialOnDual.from_json_dict(p) for p in polys]))
        return cases

    def warm(self, cases: list) -> None:
        """One untimed forward build per case: the first build of a size
        fills the program's caches and allocator pools, and costs about a
        fifth more at (4, 5) than later ones."""
        for _label, a, rho, n, _docs, _polys in cases:
            engine.build_sheffer(a, rho, n)

    def run_pass(self, cases: list, workdir: str) -> PassResult:
        clock = _Clock()
        block_sets, trips = [], []
        t0 = time.perf_counter()
        for label, a, rho, n, poly_docs, polys in cases:
            op, seq = clock.call(f"build.{label}", "forward", engine.build_sheffer, a, rho, n)
            if seq is None:
                continue
            block_sets.append((op, seq.blocks))
            op, inv = clock.call(f"inverse.{label}", "inverse",
                                 lambda s: s.inverse_blocks, seq)
            if inv is None:
                continue
            block_sets.append((op, inv))
            for j, p in enumerate(polys):
                op_e, mid = clock.call(f"expand.{label}.p{j}", "transform",
                                       engine.sheffer_inverse_apply, seq, p)
                if mid is None:
                    continue
                op_a, back = clock.call(f"apply.{label}.p{j}", "transform",
                                        engine.sheffer_apply, seq, mid)
                if back is not None:
                    trips.append((op_a, poly_docs[j], back, mid))
        wall = time.perf_counter() - t0
        for op, blocks in block_sets:
            if not _finite_blocks(blocks):
                op.error = "non-finite block entries"
        for op, p_doc, back, mid in trips:
            err = roundtrip_error(p_doc, back.to_json_dict(), mid.to_json_dict())
            op.digits = digits(err)
            if not math.isfinite(err):
                op.error = "non-finite roundtrip residual"
        return PassResult(clock.ops, wall)


# -- exact oracle -------------------------------------------------------------


def _stirling1(top: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind, s[n][k]."""
    s = [[1]]
    for n in range(top):
        row = [0] * (n + 2)
        for k, v in enumerate(s[n]):
            row[k + 1] += v
            row[k] -= n * v
        s.append(row)
    return s


def known_columns(kind: str, top: int, lag_k: int = 2) -> list[list[int]]:
    """Coefficients of s_n(z) in z^k for the 1-d catalog families, from
    closed forms independent of the engine."""
    s1 = _stirling1(top)
    if kind == "falling":
        return s1
    if kind == "rising":
        return [[abs(v) for v in row] for row in s1]
    if kind == "charlier":  # e^-u (1+u)^z: binomial transform of falling factorials
        return [[sum(math.comb(n, j) * (-1) ** (n - j) * s1[j][k] for j in range(k, n + 1))
                 for k in range(n + 1)] for n in range(top + 1)]
    if kind == "laguerre":  # (1+u)^-(k+1) exp(z u / (1+u))
        return [[math.factorial(n) // math.factorial(m) * (-1) ** (n - m)
                 * math.comb(n + lag_k, n - m) for m in range(n + 1)]
                for n in range(top + 1)]
    if kind == "hermite":  # He_{n+1} = z He_n - n He_{n-1}
        rows = [[1], [0, 1]]
        for n in range(1, top):
            nxt = [0] + rows[n]
            for i, v in enumerate(rows[n - 1]):
                nxt[i] -= n * v
            rows.append(nxt)
        return rows[:top + 1]
    raise ValueError(f"no closed form for {kind!r}")


def exact_identity_error(fwd: dict, inv: dict, top: int) -> str | None:
    """First (k, n) where sum_m V[k, m] U[m, n] differs from the identity."""
    for n in range(top + 1):
        for k in range(n + 1):
            acc = sum(fwd[(k, m)].dot(inv[(m, n)]) for m in range(k, n + 1))
            want = np.eye(acc.shape[0], dtype=int) if k == n else 0
            if not (acc == want).all():
                return f"forward x inverse differs from the identity at block ({k}, {n})"
    return None


def blockwise_error(approx: dict, exact: dict) -> float:
    """Worst relative Frobenius error over the blocks (NaN if any is not
    finite); a block that is zero in exact arithmetic is compared absolutely,
    the unit top blocks setting the scale."""
    errors = []
    for key, e in exact.items():
        e = np.asarray(e, dtype=complex)
        diff = np.linalg.norm(np.asarray(approx[key], dtype=complex) - e)
        errors.append(diff / (np.linalg.norm(e) or 1.0))
    return float(np.max(errors))


class OracleWorkload:
    """Catalog families built in Fraction mode and in float mode; each float
    block set (forward and inverse) is scored against its exact twin."""

    digits_name = "oracle_digits"
    table = ("forward_build_s", "inverse_build_s")

    def __init__(self, cases: tuple[tuple[str, int, int], ...]) -> None:
        self.cases = cases

    def setup(self, seed: int, workdir: str) -> list:
        # The seed draws the non-diagonal covariance and the quadrature
        # weights of the d > 1 lifts; dyadic values keep them exact in both modes.
        rng = np.random.default_rng(seed)
        specs = []
        for kind, d, n in self.cases:
            doc = {"kind": kind, "dim": d, "N": n}
            if kind == "laguerre":
                doc["k"] = 2.0
            if d > 1 and kind == "hermite":
                off = int(rng.integers(-6, 7)) / 16
                doc["cov"] = [[1.0 if i == j else off for j in range(d)] for i in range(d)]
            elif d > 1:
                doc["weights"] = [int(rng.integers(4, 17)) / 8 for _ in range(d)]
            specs.append((f"{kind}-d{d}-N{n}", families.FamilySpec.from_json_dict(doc)))
        return specs

    def warm(self, specs: list) -> None:
        """Nothing: the first pass costs the same as the later ones."""

    @staticmethod
    def _build(spec, exact: bool):
        a, rho = families.make_family(spec, exact=exact)
        return engine.build_sheffer(a, rho, spec.max_degree)

    def run_pass(self, specs: list, workdir: str) -> PassResult:
        clock = _Clock()
        built = []
        t0 = time.perf_counter()
        for label, spec in specs:
            pair = {}
            for mode, exact in (("exact", True), ("float", False)):
                op_f, seq = clock.call(f"build.{mode}.{label}", "forward",
                                       self._build, spec, exact)
                op_i, inv = clock.call(f"inverse.{mode}.{label}", "inverse",
                                       lambda s: s.inverse_blocks, seq) if seq else (None, None)
                pair[mode] = (op_f, seq, op_i, inv)
            built.append((spec, pair))
        wall = time.perf_counter() - t0
        for spec, pair in built:
            self._check(spec, pair)
        return PassResult(clock.ops, wall)

    @staticmethod
    def _check(spec, pair) -> None:
        op_fe, seq_e, op_ie, inv_e = pair["exact"]
        op_ff, seq_f, op_if, inv_f = pair["float"]
        if seq_e is not None and spec.dim == 1:
            want = known_columns(spec.kind, spec.max_degree, int(spec.k))
            got = [[seq_e.blocks[(k, n)][0, 0] for k in range(n + 1)]
                   for n in range(spec.max_degree + 1)]
            if got != want:
                op_fe.error = "exact blocks differ from the closed-form coefficients"
        if inv_e is not None and op_ie.error is None:
            op_ie.error = exact_identity_error(seq_e.blocks, inv_e, spec.max_degree)
        for op, approx, exact in ((op_ff, seq_f and seq_f.blocks, seq_e and seq_e.blocks),
                                  (op_if, inv_f, inv_e)):
            if op is None or approx is None:
                continue
            if not _finite_blocks(approx):
                op.error = "non-finite block entries"
            if exact is not None:
                op.digits = digits(blockwise_error(approx, exact))


# -- CLI session ----------------------------------------------------------------


@dataclass
class CliCall:
    name: str
    stage: str
    argv: list[str]
    expect: int = 0
    out: str | None = None
    verdict: str | None = None
    output: str = field(default="", repr=False)


class CliWorkload:
    """Catalog specs driven through cli.main, issued once and then repeated
    in full so that the two rounds' report files can be compared byte for byte."""

    POLYS = 3
    digits_name = "roundtrip_digits"
    table = ("transform_s", "verify_s", "command_ms.p50", "command_ms.p90")

    # (kind, dim, N, laguerre k, diverge verdict at alpha 2 over 1:N).  Hermite
    # is Appell, so its ratios stay geometric; the other kinds deform A and
    # grow super-geometrically.  rising d3 N6 has no answer: a sweep that ends
    # one degree past the reference degree 5 cannot show growth.
    SPECS = (("falling", 1, 24, None, "unbounded-looking"),
             ("charlier", 2, 10, None, "unbounded-looking"),
             ("hermite", 2, 12, None, "bounded"),
             ("laguerre", 1, 16, 2, "unbounded-looking"),
             ("rising", 3, 6, None, None),
             ("charlier", 1, 16, None, "unbounded-looking"))

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        off, diag = rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.5)
        cov = json.dumps([[1.0, float(off)], [float(off), float(diag)]])
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        specs = []
        for i, (kind, d, n, lag_k, verdict) in enumerate(self.SPECS):
            flags = ["--kind", kind, "--dim", str(d), "--max-degree", str(n)]
            if kind == "hermite":
                flags += ["--cov", cov]
            if lag_k is not None:
                flags += ["--laguerre-k", str(lag_k)]
            polys = []
            for j in range(self.POLYS):
                path = os.path.join(inputs, f"poly{i}{j}.json")
                _write_json(path, polynomial_doc(d, n, rng))
                polys.append(path)
            specs.append((f"{kind}-d{d}-N{n}", n, flags, polys, verdict))
        too_deep = os.path.join(inputs, "too_deep.json")
        _write_json(too_deep, polynomial_doc(1, self.SPECS[0][2] + 1, rng))
        return {"seed": seed, "specs": specs, "too_deep": too_deep}

    def warm(self, state: dict) -> None:
        """Nothing: the first pass costs the same as the later ones."""

    def calls(self, state: dict, out_dir: str) -> list[CliCall]:
        out = lambda name: os.path.join(out_dir, name)  # noqa: E731
        calls = []
        for label, n, flags, polys, verdict in state["specs"]:
            seq = out(f"{label}.seq.json")
            calls.append(CliCall(f"family.{label}", "family",
                                 ["family", *flags, "--out", seq], out=seq))
            for j, poly in enumerate(polys):
                for cmd in ("expand", "apply", "roundtrip"):
                    path = out(f"{label}.{cmd}{j}.json")
                    calls.append(CliCall(f"{cmd}.{label}.p{j}", "transform",
                                         [cmd, "--sequence", seq, "--input", poly,
                                          "--out", path], out=path))
            seq_flags = ["--sequence", seq]
            calls.append(CliCall(f"bounds.{label}", "verify",
                                 ["bounds", *seq_flags, "--out", out(f"{label}.bounds.json")],
                                 out=out(f"{label}.bounds.json")))
            calls.append(CliCall(f"diverge.{label}", "verify",
                                 ["diverge", *seq_flags, "--alpha", "2", "--degrees", f"1:{n}",
                                  "--format", "csv", "--out", out(f"{label}.diverge.csv")],
                                 out=out(f"{label}.diverge.csv"), verdict=verdict))
            calls.append(CliCall(f"probe.{label}", "verify",
                                 ["probe", *seq_flags, "--out", out(f"{label}.probe.json")],
                                 out=out(f"{label}.probe.json")))
        calls.append(CliCall("check", "verify",
                             ["check", "--seed", str(state["seed"]), "--out", out("check.json")],
                             out=out("check.json")))
        first = state["specs"][0]
        seq, top = out(f"{first[0]}.seq.json"), first[1]
        scratch = out("rejected.json")
        for name, argv, code in (
                ("alpha-half", ["diverge", "--sequence", seq, "--alpha", "0.5"], 2),
                ("degrees-past-N", ["diverge", "--sequence", seq, "--degrees", f"1:{top + 1}"], 2),
                ("cov-not-pd", ["family", "--kind", "hermite", "--dim", "2", "--max-degree", "4",
                                "--cov", "[[1.0, 2.0], [2.0, 1.0]]"], 2),
                ("missing-sequence", ["expand", "--sequence", out("missing.seq.json"),
                                      "--input", first[3][0]], 3),
                ("degree-past-N", ["expand", "--sequence", seq, "--input", state["too_deep"]], 4),
                ("l-prime-0", ["bounds", "--sequence", seq, "--l-prime", "0"], 5),
                ("alpha-nan", ["diverge", "--sequence", seq, "--alpha", "nan"], 2)):
            calls.append(CliCall(f"invalid.{name}", "invalid", argv + ["--out", scratch], code))
        return calls

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        """cli.main in-process with stdout and stderr captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects usage errors this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, buf.getvalue()

    def run_pass(self, state: dict, workdir: str) -> PassResult:
        # Every pass writes into fresh directories and removes them once
        # checked: on some filesystems truncating or removing a file that has
        # reached the disk costs tens of milliseconds, and a young one does not.
        out_dirs = [tempfile.mkdtemp(prefix=f"round{r}-", dir=workdir) for r in range(2)]
        rounds = []
        ops = []
        t0 = time.perf_counter()
        for r, out_dir in enumerate(out_dirs):
            calls = self.calls(state, out_dir)
            for call in calls:
                start = time.perf_counter()
                try:
                    code, call.output = self._main(call.argv)
                    error = None if code == call.expect else \
                        f"exit code {code}, expected {call.expect}"
                except Exception as exc:  # a traceback out of cli.main is a failure
                    error = f"raised {type(exc).__name__}: {exc}"
                ops.append(Op(call.name, call.stage,
                              time.perf_counter() - start, error))
            rounds.append(calls)
        wall = time.perf_counter() - t0
        n_calls = len(rounds[0])
        report_bytes = 0
        for i, (first, again) in enumerate(zip(*rounds)):
            report_bytes += self._check(first, ops[i], None)
            report_bytes += self._check(again, ops[n_calls + i], first)
        for out_dir in out_dirs:
            shutil.rmtree(out_dir)
        return PassResult(ops, wall, report_bytes)

    def _check(self, call: CliCall, op: Op, first: CliCall | None) -> int:
        """Check one call's output; returns the bytes of the report it wrote."""
        if op.error is not None or call.expect != 0:
            return 0
        try:
            with open(call.out, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            op.error = f"no report: {exc}"
            return 0
        if first is not None:
            with open(first.out, "rb") as fh:
                if fh.read() != raw:
                    op.error = "report bytes differ from the first round"
                    return len(raw)
        text = raw.decode("utf-8")
        is_csv = call.out.endswith(".csv")
        try:  # NaN and Infinity parse, and then count as non-finite
            doc = None if is_csv else json.loads(text, parse_constant=float)
        except ValueError as exc:
            op.error = f"unreadable report: {exc}"
            return len(raw)
        values = _csv_numbers(text) if is_csv else _json_numbers(doc)
        if not all(math.isfinite(v) for v in values):
            op.error = "non-finite value in report"
        cmd = call.argv[0]
        if cmd == "roundtrip":
            rel = doc["max_rel_error"]
            op.digits = digits(rel)
            if not rel <= ROUNDTRIP_PIN:
                op.error = f"max_rel_error {rel:.3e} exceeds the {ROUNDTRIP_PIN:g} pin"
        elif cmd == "bounds" and doc["passed"] is not True:
            op.error = "continuity bound violated"
        elif cmd == "check" and doc["all_passed"] is not True:
            op.error = "self-checks failed"
        elif cmd == "diverge" and call.verdict is not None \
                and f"verdict {call.verdict} " not in call.output:
            op.error = f"verdict differs from {call.verdict}"
        return len(raw)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _json_numbers(doc) -> list[float]:
    """Every number in a parsed JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [v for item in doc for v in _json_numbers(item)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [float(doc)]
    return []


def _csv_numbers(text: str) -> list[float]:
    out = []
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                continue
    return out


WORKLOADS = {
    # The 2d-variable ring in engine dominates; series.vs_inverse is ~10 %.
    "dense-wide": DenseWorkload(((3, 8), (4, 5))),
    # series.vs_inverse dominates while the block ring stays small; float
    # accuracy falls with N.
    "dense-deep": DenseWorkload(((1, 64), (1, 96), (1, 128))),
    # The path users take: cli, load-time rebuild, graded apply, symtensor, norms.
    "cli-session": CliWorkload(),
    # Fraction mode (_mul_dict, object blocks): the reference for float accuracy.
    "exact-oracle": OracleWorkload(
        tuple((kind, 1, n) for kind in ("falling", "rising", "hermite", "charlier", "laguerre")
              for n in (8, 16, 32))
        + tuple((kind, 2, 8) for kind in ("charlier", "hermite", "laguerre", "falling"))),
}
