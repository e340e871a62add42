"""Outside-in tracing of shefferkit from the benchmark's own files.

`Tracer.install()` wraps the public functions listed in TRACED and rebinds
each name in every shefferkit module that imported it, so calls between the
program's own modules are seen too.  The classmethods
ScalarSeries.from_terms and SymCoeff.from_coeffs and the properties
ShefferSequence.inverse_a and ShefferSequence.inverse_blocks are wrapped on
their classes.  Nothing under src/ changes; `uninstall()` restores every
binding.

Each call records a span (name, start, end, parent span index) in memory.
A span's self time is its duration minus the durations of its child spans.
Inclusive time counts only the outermost span of a name, so a function that
reaches itself through another traced function is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from shefferkit import cli, engine, families, norms, series, symtensor

# (metric prefix, owner, attribute, kind)
TRACED = (
    ("series.ps_mul", series, "ps_mul", "function"),
    ("series.ps_compose", series, "ps_compose", "function"),
    ("series.ps_recip", series, "ps_recip", "function"),
    ("series.ps_exp", series, "ps_exp", "function"),
    ("series.vs_inverse", series, "vs_inverse", "function"),
    ("series.ScalarSeries.from_terms", series.ScalarSeries, "from_terms", "classmethod"),
    ("symtensor.SymCoeff.from_coeffs", symtensor.SymCoeff, "from_coeffs", "classmethod"),
    ("symtensor.sym_norm", symtensor, "sym_norm", "function"),
    ("symtensor.sym_product", symtensor, "sym_product", "function"),
    ("symtensor.to_dense", symtensor, "to_dense", "function"),
    ("engine.build_sheffer", engine, "build_sheffer", "function"),
    ("engine.inverse_a", engine.ShefferSequence, "inverse_a", "property"),
    ("engine.inverse_blocks", engine.ShefferSequence, "inverse_blocks", "property"),
    ("engine.sheffer_apply", engine, "sheffer_apply", "function"),
    ("engine.sheffer_inverse_apply", engine, "sheffer_inverse_apply", "function"),
    ("engine.load_sequence", engine, "load_sequence", "function"),
    ("engine.save_sequence", engine, "save_sequence", "function"),
    ("engine.binomial_check", engine, "binomial_check", "function"),
    ("norms.graded_block_norms", norms, "graded_block_norms", "function"),
    ("norms.sup_norm_estimate", norms, "sup_norm_estimate", "function"),
    ("norms.embedding_check", norms, "embedding_check", "function"),
    ("norms.operator_bound_check", norms, "operator_bound_check", "function"),
    ("norms.divergence_sweep", norms, "divergence_sweep", "function"),
    ("norms.quasi_holo_probe", norms, "quasi_holo_probe", "function"),
    ("families.lift_1d", families, "lift_1d", "function"),
    ("families.make_family", families, "make_family", "function"),
    ("cli.main", cli, "main", "function"),
)


def _count_ps_mul(counts, args, result) -> None:
    a, b = args
    counts["series.ps_mul.pairs"] += len(a.terms) * len(b.terms)
    counts["series.ps_mul.terms_out"] += len(result.terms)


def _count_blocks(counts, args, result) -> None:
    for mat in result.blocks.values():
        counts["engine.block_entries"] += mat.size
        counts["engine.block_nnz"] += int(np.count_nonzero(mat))


COUNTERS = {"series.ps_mul": _count_ps_mul, "engine.build_sheffer": _count_blocks}


def rebind(original, replacement) -> list[tuple]:
    """Point every shefferkit module's name for `original` at `replacement`;
    returns the (module, name, original) triples that undo it."""
    undo = []
    for key, module in list(sys.modules.items()):
        if key != "shefferkit" and not key.startswith("shefferkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Span recorder for the calls named in TRACED."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._outermost: set[int] = set()
        self._undo: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            if depth[name] == 0:
                self._outermost.add(index)
            stack.append(index)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, kind in TRACED:
            original = owner.__dict__[attr]
            if kind == "function":
                self._undo += rebind(original, self._wrap(name, original))
                continue
            if kind == "classmethod":
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = property(self._wrap(name, original.fget))
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def layer_totals(self) -> dict[str, float]:
        """calls, incl_s and self_s per traced name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for name, _owner, _attr, _kind in TRACED:
            totals[f"{name}.calls"] = 0.0
            totals[f"{name}.incl_s"] = 0.0
            totals[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - child[i]
            if i in self._outermost:
                totals[f"{name}.incl_s"] += end - start
        totals.update(self.counts)
        return dict(totals)

    def write(self, path: str) -> None:
        """All spans as gzip'd JSON lines: [name, start_s, end_s, parent]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
