"""Benchmark of shefferkit: one workload, one seed, in a fresh process.

    python3 bench/run.py --workload dense-wide --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; shefferkit is imported from src/ as it is.
The run sets up its inputs from the seed, warms the workload up, repeats
passes of it (see workloads.py) while the next pass still fits in --seconds
(at least one pass), checks every pass's outputs, prints a table of its
metrics with units and sample counts, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 passes alternate between untraced and traced (spans.py); the
metrics are the per-layer ones, per traced pass, plus trace.overhead_share,
the traced pass time over the untraced one, minus 1.  The spans are written
to bench/out/ when the run ends.

`correct` is false when an operation fails that is not one of the program's
known defects (KNOWN_DEFECTS); known defects still count in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One single-threaded client: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 10

# Operation name prefixes that fail at the parent commit of this benchmark,
# with the reason.  They count in `failed` but leave `correct` true.
KNOWN_DEFECTS = {
    "invalid.alpha-nan": "diverge --alpha nan exits 0 and writes NaN/Infinity (ROADMAP item 3)",
    "roundtrip.falling-d1-N24.":
        "float falling N=24 round trips miss the 1e-9 pin (ROADMAP item 3)",
}


def known_defect(op_name: str) -> str | None:
    return next((why for prefix, why in KNOWN_DEFECTS.items() if op_name.startswith(prefix)),
                None)


def _load_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "shefferkit")):
        sys.exit(f"no shefferkit package under {src}")
    sys.path[:0] = [src, BENCH_DIR]
    import workloads
    return workloads


def setup_once(name: str, seed: int, workdir: str):
    """Import shefferkit and make the workload's inputs; returns
    (seconds, workload, inputs)."""
    t0 = time.perf_counter()
    workload = _load_workloads().WORKLOADS[name]
    state = workload.setup(seed, workdir)
    return time.perf_counter() - t0, workload, state


def probe_setup(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of fresh interpreters, so import cost is sampled more than once."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(workload, state, workdir: str, seconds: float, tracer=None):
    """Warm up, then passes while the next one fits in `seconds`; returns
    [(PassResult, traced)].

    With a tracer, passes alternate untraced / traced, starting untraced,
    and there are at least two.
    """
    passes = []
    start = time.perf_counter()
    workload.warm(state)
    minimum = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        begun = time.perf_counter()
        if traced:
            tracer.install()
        try:
            result = workload.run_pass(state, workdir)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((result, traced))
        now = time.perf_counter()
        if len(passes) >= minimum and now - start + (now - begun) > seconds:
            return passes


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(workload, passes, setup_times) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra table rows), each name -> (value, unit, n).

    Times come from the untraced passes; failures and digits from every pass.
    """
    ops = [op for r, _ in passes for op in r.ops]
    timed = [r for r, traced in passes if not traced]
    scored = [op.digits for op in ops if op.digits is not None]
    failed = sum(op.error is not None for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median([r.wall_s for r in timed]), "s", len(timed)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "digits": (statistics.fmean(scored) if scored else 0.0, "digits", len(scored)),
        "ok_share": (1.0 - failed / len(ops), "ratio", len(ops)),
    }
    table = {workload.digits_name: metrics["digits"],
             "failed_share": (failed / len(ops), "ratio", len(ops))}
    for metric, stage in (("forward_build_s", "forward"), ("inverse_build_s", "inverse"),
                          ("transform_s", "transform"), ("verify_s", "verify")):
        if metric in workload.table:
            per_pass = [sum(op.seconds for op in r.ops if op.stage == stage) for r in timed]
            table[metric] = (statistics.median(per_pass), "s", len(per_pass))
    if "command_ms.p50" in workload.table:
        ms = [op.seconds * 1e3 for r in timed for op in r.ops]
        table["command_ms.p50"] = (_percentile(ms, 0.5), "ms", len(ms))
        table["command_ms.p90"] = (_percentile(ms, 0.9), "ms", len(ms))
    return metrics, table


def per_layer(tracer, passes, units: dict) -> dict:
    """Per-layer totals per traced pass, and the tracing overhead."""
    traced = [r for r, t in passes if t]
    plain = [r for r, t in passes if not t]
    totals = tracer.layer_totals()
    totals["cli.report_bytes"] = sum(r.report_bytes for r in traced)
    metrics = {name: (totals.get(name, 0.0) / len(traced), unit, len(traced))
               for name, unit in units.items() if name != "trace.overhead_share"}
    overhead = (statistics.median([r.wall_s for r in traced])
                / statistics.median([r.wall_s for r in plain]) - 1.0)
    metrics["trace.overhead_share"] = (overhead, units["trace.overhead_share"],
                                       len(traced) + len(plain))
    return metrics


def print_report(name: str, seed: int, passes, rows: dict, failures) -> None:
    traced = sum(t for _, t in passes)
    print(f"workload {name} seed {seed}: {len(passes)} passes ({traced} traced)")
    print("pass wall_s: " + " ".join(f"{r.wall_s:.3f}{'t' if t else ''}" for r, t in passes))
    print(f"{'metric':<40} {'value':>16} {'unit':<8} {'n':>6}")
    for metric, (value, unit, n) in rows.items():
        print(f"{metric:<40} {value:>16.6g} {unit:<8} {n:>6}")
    by_name: dict[str, list] = {}
    for op in failures:
        by_name.setdefault(op.name, []).append(op)
    for op_name, ops in by_name.items():
        why = known_defect(op_name)
        tag = f" [known defect: {why}]" if why else ""
        print(f"FAILED {op_name} x{len(ops)}: {ops[0].error}{tag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        seconds, workload, state = setup_once(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"{seconds!r}")
            return 0
        # Half the probes before the passes and half after, so that the
        # median samples the machine at both ends of the run.
        setup_times = [seconds] + probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        passes = measure(workload, state, workdir, args.seconds, tracer)
        setup_times += probe_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir)

    results = [r for r, _ in passes]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = rows = per_layer(tracer, passes, units)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        metrics, table = end_to_end(workload, passes, setup_times)
        rows = {**metrics, **table}
    failures = [op for r in results for op in r.failures]
    print_report(args.workload, args.seed, passes, rows, failures)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": all(known_defect(op.name) for op in failures),
        "attempted": sum(len(r.ops) for r in results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
