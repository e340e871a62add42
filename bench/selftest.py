"""Self-test of the benchmark itself.

    python3 bench/selftest.py            # about two minutes
    python3 bench/selftest.py -k Fault   # the injected faults only, seconds

It checks that every run prints, as its last line, exactly the metrics that
BENCHMARK.json names, with their units, and that injected faults are seen:
a block made non-finite or perturbed lowers the oracle digits and the
non-finite one counts as failed, and a wrong exit code counts as failed and
makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shefferkit import cli, engine  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


class EmittedMetrics(unittest.TestCase):
    """One short run per workload and trace mode, through the real command."""

    def check_run(self, workload: str, trace: int) -> None:
        done = subprocess.run(
            [*SPEC["command"], "--workload", workload, "--seed", "7",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])

    def test_every_workload(self) -> None:
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


def _one_pass(workload, seed: int = 3):
    workdir = os.path.join(run.OUT_DIR, "selftest")
    os.makedirs(workdir, exist_ok=True)
    state = workload.setup(seed, workdir)
    return workload.run_pass(state, workdir)


def _scores(result) -> tuple[dict, dict]:
    return run.end_to_end(SMALL_ORACLE, [(result, False), (result, False)], [0.1])


SMALL_ORACLE = workloads.OracleWorkload((("charlier", 1, 8), ("hermite", 2, 6)))


class _SmallCli(workloads.CliWorkload):
    SPECS = (("falling", 1, 6, None, None), ("hermite", 2, 4, None, "bounded"))


class InjectedFaults(unittest.TestCase):

    def perturbed_builds(self, fault):
        """Rebind engine.build_sheffer so float builds come back with block
        (0, N) altered by `fault`."""
        original = engine.build_sheffer

        def faulty(a, rho, order):
            seq = original(a, rho, order)
            if not seq.exact:
                seq.blocks[(0, order)] = fault(seq.blocks[(0, order)].copy())
            return seq

        return spans.rebind(original, faulty)

    def test_clean_oracle(self) -> None:
        metrics, table = _scores(_one_pass(SMALL_ORACLE))
        self.assertEqual(table["failed_share"][0], 0.0)
        self.assertGreater(metrics["digits"][0], 10.0)

    def test_non_finite_block_fails_and_lowers_digits(self) -> None:
        clean = _scores(_one_pass(SMALL_ORACLE))[0]["digits"][0]

        def to_nan(mat):
            mat[0, 0] = complex("nan")
            return mat

        undo = self.perturbed_builds(to_nan)
        try:
            result = _one_pass(SMALL_ORACLE)
        finally:
            spans.restore(undo)
        metrics, table = _scores(result)
        self.assertEqual({op.name for op in result.failures},
                         {"build.float.charlier-d1-N8", "build.float.hermite-d2-N6"})
        self.assertGreater(table["failed_share"][0], 0.0)
        self.assertLess(metrics["ok_share"][0], 1.0)
        self.assertLess(metrics["digits"][0], clean)

    def test_perturbed_block_lowers_digits(self) -> None:
        clean = _scores(_one_pass(SMALL_ORACLE))[0]["digits"][0]
        undo = self.perturbed_builds(lambda mat: mat * (1 + 1e-6))
        try:
            metrics, _ = _scores(_one_pass(SMALL_ORACLE))
        finally:
            spans.restore(undo)
        self.assertLess(metrics["digits"][0], clean - 1.0)

    def test_wrong_exit_code_fails(self) -> None:
        small = _SmallCli()
        unexpected = lambda result: sorted(  # noqa: E731
            op.name for op in result.failures if not run.known_defect(op.name))
        self.assertEqual(unexpected(_one_pass(small)), [])
        original = cli._COMMANDS["probe"]
        cli._COMMANDS["probe"] = lambda cfg: (original(cfg), cli.EXIT_CHECK_FAILED)[1]
        try:
            result = _one_pass(small)
        finally:
            cli._COMMANDS["probe"] = original
        self.assertEqual(unexpected(result),
                         ["probe.falling-d1-N6"] * 2 + ["probe.hermite-d2-N4"] * 2)
        metrics, table = run.end_to_end(small, [(result, False), (result, False)], [0.1])
        self.assertGreater(table["failed_share"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
