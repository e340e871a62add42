from __future__ import annotations

import csv
import json
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from shefferkit import cli
from shefferkit.cli import main
from shefferkit.engine import (PolynomialOnDual, binomial_check, build_sheffer, load_sequence,
                               sheffer_apply)
from shefferkit.families import FamilySpec, make_family
from shefferkit.series import ScalarSeries, VectorSeries
from shefferkit.symtensor import SymCoeff

from conftest import coeff_column_1d
from oracles import falling_coeffs


def run(args):
    return main([str(a) for a in args])


def finite_json(path):
    """The JSON document at `path`; a NaN or Infinity in it fails the test."""
    def reject(name):
        raise AssertionError(f"{name} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


def monomial_file(tmp_path, name, dim, exps):
    p = PolynomialOnDual.monomial(dim, exps)
    path = tmp_path / name
    path.write_text(json.dumps(p.to_json_dict()), encoding="utf-8")
    return path


class TestFamilyCommand:
    def test_falling_blocks_in_file(self, tmp_path):
        out = tmp_path / "falling.json"
        assert run(["family", "--kind", "falling", "--dim", 1,
                    "--max-degree", 8, "--out", out]) == 0
        seq = load_sequence(out)
        assert seq.blocks[(2, 3)][0, 0] == -3
        assert seq.blocks[(1, 3)][0, 0] == 2

    def test_hermite_s4_row(self, tmp_path):
        out = tmp_path / "hermite.json"
        assert run(["family", "--kind", "hermite", "--dim", 1,
                    "--max-degree", 4, "--out", out]) == 0
        seq = load_sequence(out)
        got = sheffer_apply(seq, PolynomialOnDual.monomial(1, (4,)))
        assert coeff_column_1d(got, 4) == [3, 0, -6, 0, 1]

    def test_custom_identity(self, tmp_path):
        out = tmp_path / "ident.json"
        assert run(["family", "--kind", "custom", "--a", "identity",
                    "--rho", "one", "--dim", 2, "--max-degree", 4,
                    "--out", out]) == 0
        seq = load_sequence(out)
        for n in range(5):
            mat = seq.blocks[(n, n)]
            assert np.array_equal(mat, np.eye(mat.shape[0], dtype=complex))
            for k in range(n):
                assert not np.any(seq.blocks[(k, n)])

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "laguerre", "dim": 1, "N": 6, "k": 2}),
                        encoding="utf-8")
        out = tmp_path / "lag.json"
        assert run(["family", "--spec", spec, "--out", out]) == 0
        assert load_sequence(out).max_degree == 6

    def test_norms_whose_squares_overflow(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(ScalarSeries.from_coeffs_1d([1.0, 1e200]).to_json_dict()),
                       encoding="utf-8")
        assert run(["family", "--kind", "custom", "--a", "identity", "--rho", rho,
                    "--max-degree", 1, "--out", tmp_path / "seq.json"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split() == ["1", "1", "1.000000000000e+200", "1.000000000000e+200"]

    def test_no_blocks_file_loads(self, tmp_path):
        out = tmp_path / "slim.json"
        assert run(["family", "--kind", "falling", "--dim", 1,
                    "--max-degree", 6, "--no-blocks", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert "blocks" not in doc
        seq = load_sequence(out)
        assert seq.blocks[(2, 3)][0, 0] == -3


class TestTransformCommands:
    def test_expand_gives_stirling_numbers(self, tmp_path):
        seq_file = tmp_path / "falling.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 8,
             "--out", seq_file])
        poly = monomial_file(tmp_path, "z3.json", 1, (3,))
        out = tmp_path / "expanded.json"
        assert run(["expand", "--sequence", seq_file, "--input", poly,
                    "--out", out]) == 0
        q = PolynomialOnDual.from_json_dict(json.loads(out.read_text()))
        # z^3 = S(3,3) (z)_3 + S(3,2) (z)_2 + S(3,1) (z)_1
        got = coeff_column_1d(q, 3)
        assert np.allclose(got, [0, 1, 3, 1], atol=1e-12)

    def test_apply_then_expand_roundtrip(self, tmp_path):
        seq_file = tmp_path / "charlier.json"
        run(["family", "--kind", "charlier", "--dim", 1, "--max-degree", 6,
             "--out", seq_file])
        poly = monomial_file(tmp_path, "z4.json", 1, (4,))
        applied = tmp_path / "applied.json"
        assert run(["apply", "--sequence", seq_file, "--input", poly,
                    "--out", applied]) == 0
        back = tmp_path / "back.json"
        assert run(["expand", "--sequence", seq_file, "--input", applied,
                    "--out", back]) == 0
        q = PolynomialOnDual.from_json_dict(json.loads(back.read_text()))
        assert np.allclose(coeff_column_1d(q, 4), [0, 0, 0, 0, 1], atol=1e-10)

    def test_roundtrip_reports_small_error(self, tmp_path):
        seq_file = tmp_path / "lag.json"
        run(["family", "--kind", "laguerre", "--laguerre-k", 2, "--dim", 1,
             "--max-degree", 8, "--out", seq_file])
        poly = monomial_file(tmp_path, "z8.json", 1, (8,))
        out = tmp_path / "rt.json"
        assert run(["roundtrip", "--sequence", seq_file, "--input", poly,
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["max_rel_error"] <= 1e-9


class TestCatalogFiles:
    # format 5: a catalog sequence file stores its family spec and is rebuilt
    # from it, then checked against its stored (A, rho) and blocks
    @pytest.mark.parametrize("kind", ["falling", "rising", "hermite", "charlier", "laguerre"])
    def test_family_then_transforms(self, tmp_path, kind):
        seq_file = tmp_path / f"{kind}.json"
        assert run(["family", "--kind", kind, "--dim", 2, "--max-degree", 5,
                    "--weights", "0.3,1.5", "--laguerre-k", 0.5, "--out", seq_file]) == 0
        doc = json.loads(seq_file.read_text())
        assert doc["format_version"] == 5
        assert FamilySpec.from_json_dict(doc["family"]) == FamilySpec(
            kind, 2, 5, k=0.5 if kind == "laguerre" else 0.0, weights=(0.3, 1.5))
        poly = monomial_file(tmp_path, "p.json", 2, (2, 3))
        for cmd in ("expand", "apply", "roundtrip"):
            out = tmp_path / f"{cmd}.json"
            assert run([cmd, "--sequence", seq_file, "--input", poly, "--out", out]) == 0
        assert json.loads(out.read_text())["max_rel_error"] <= 1e-12

    @pytest.mark.parametrize("field", ["a", "rho"])
    def test_edited_series_rejected(self, tmp_path, capsys, field):
        seq_file = tmp_path / "charlier.json"
        run(["family", "--kind", "charlier", "--dim", 1, "--max-degree", 6, "--out", seq_file])
        doc = json.loads(seq_file.read_text())
        terms = (doc["a"]["components"][0] if field == "a" else doc["rho"])["terms"]
        terms[-1]["re"] *= 1 + 2 ** -40
        seq_file.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert run(["expand", "--sequence", seq_file,
                    "--input", monomial_file(tmp_path, "z2.json", 1, (2,)), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"stored '{field}' of this sequence file differs from its family spec's" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_custom_file_has_no_spec(self, tmp_path):
        seq_file = tmp_path / "custom.json"
        assert run(["family", "--kind", "custom", "--a", "identity", "--dim", 1,
                    "--max-degree", 4, "--out", seq_file]) == 0
        doc = json.loads(seq_file.read_text())
        assert doc["format_version"] == 5 and "family" not in doc
        assert load_sequence(seq_file).spec is None


class TestReportCommands:
    def test_check_suite(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run(["check", "--seed", 4, "--out", out]) == 0
        doc = finite_json(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert doc["all_passed"] is True and len(checks) == len(doc["checks"])
        assert checks["falling_kronecker"] == {"name": "falling_kronecker", "passed": True,
                                               "measured": 0.0, "threshold": 0.0}
        assert "path_equivalence" not in checks
        assert "PASS falling_kronecker: 0.000e+00" in capsys.readouterr().out

    def test_check_streams_are_independent(self, tmp_path):
        # --trials changes only binomial_falling's draws; each check draws
        # from its own stream, so every later check reports the same figure
        measured = []
        for trials in (20, 4):
            out = tmp_path / f"check{trials}.json"
            assert run(["check", "--seed", 3, "--trials", trials, "--out", out]) == 0
            measured.append({c["name"]: c["measured"] for c in finite_json(out)["checks"]})
        names = list(measured[0])
        later = names[names.index("binomial_falling") + 1:]
        assert "gf_reproduction" in later and "embedding_inequalities" in later
        assert [measured[0][n] for n in later] == [measured[1][n] for n in later]
        # binomial_falling runs trials // 2 trials on stream [seed, 4]: the
        # 10-trial run starts with the 2-trial run's draws, so its maximum
        # differs only where a later draw sets it, and it is never smaller
        falling = build_sheffer(*make_family(FamilySpec("falling", 1, 8)), 8)
        for figures, trials in zip(measured, (10, 2)):
            rep = binomial_check(falling, trials=trials, rng=np.random.default_rng([3, 4]),
                                 max_degree=6)
            assert figures["binomial_falling"] == rep.max_deviation
        assert measured[0]["binomial_falling"] >= measured[1]["binomial_falling"]

    def test_bounds_report(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--kind", "falling", "--dim", 1,
                    "--max-degree", 12, "--alpha", 1.0, "--l", 0,
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["params"]["l_prime"] == 2

    def test_bounds_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--kind", "falling", "--dim", 1,
                    "--max-degree", 8, "--format", "csv", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,passed,measured,bound")
        assert len(lines) == 2

    def test_diverge_verdicts(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["diverge", "--kind", "falling", "--dim", 1,
                    "--max-degree", 24, "--alpha", 2.0,
                    "--degrees", "1:24", "--out", out]) == 0
        assert json.loads(out.read_text())["verdict"] == "unbounded-looking"
        out2 = tmp_path / "h.json"
        assert run(["diverge", "--kind", "hermite", "--dim", 1,
                    "--max-degree", 24, "--alpha", 2.0,
                    "--degrees", "1:24", "--out", out2]) == 0
        assert json.loads(out2.read_text())["verdict"] == "bounded"

    def test_diverge_csv_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["diverge", "--kind", "falling", "--dim", 1,
                    "--max-degree", 8, "--degrees", "1:8",
                    "--format", "csv", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "degree,ratio,norm_num,norm_den"
        assert len(lines) == 9

    def test_falling_ratios_past_square_range(self, tmp_path):
        # Stirling numbers past 1e154 square out of the double range
        bounds, sweep = tmp_path / "b.json", tmp_path / "d.json"
        assert run(["bounds", "--kind", "falling", "--max-degree", 100, "--out", bounds]) == 0
        assert run(["diverge", "--kind", "falling", "--max-degree", 120, "--alpha", 2,
                    "--degrees", "1:120", "--out", sweep]) == 0
        doc = finite_json(bounds)
        assert doc["passed"] and doc["measured"] == 1.0
        level = doc["params"]["l_prime"]
        for row in doc["per_degree"]:
            n = row["degree"]
            stirling = [abs(s) for s in falling_coeffs(n)]
            exact = Fraction(sum(math.factorial(k) * s for k, s in enumerate(stirling)),
                             math.factorial(n) * 2 ** (level * n))
            assert abs(row["max_ratio"] - exact) <= 1e-14 * exact, n
        with localcontext() as ctx:
            ctx.prec = 40
            for row in finite_json(sweep)["rows"]:
                n = row["degree"]
                stirling = [abs(s) for s in falling_coeffs(n)]
                exact = sum(Decimal(math.factorial(k)).sqrt() * s for k, s in enumerate(stirling))
                exact /= Decimal(math.factorial(n)).sqrt()
                assert abs(Decimal(row["ratio"]) - exact) <= Decimal("1e-14") * exact, n

    def test_probe_report(self, tmp_path):
        out = tmp_path / "probe.json"
        assert run(["probe", "--kind", "falling", "--dim", 1,
                    "--max-degree", 10, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["forward_envelope"] - 1.0) <= 1e-9
        assert doc["comparable"] is True


class TestCsvReports:
    """A CSV report is a header row of the documented fields, then rows whose
    float cells are the repr of the matching JSON values."""

    @staticmethod
    def both_formats(tmp_path, args):
        paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            assert run(args + ["--format", fmt, "--out", path]) == 0
        with open(paths["csv"], newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        return json.loads(paths["json"].read_text()), header, rows

    @staticmethod
    def assert_cells(header, rows, json_rows):
        assert len(rows) == len(json_rows)
        for row, doc in zip(rows, json_rows):
            for name, cell in zip(header, row, strict=True):
                value = doc[name]
                assert cell == (repr(value) if isinstance(value, float) else str(value)), name

    def test_probe(self, tmp_path):
        doc, header, rows = self.both_formats(
            tmp_path, ["probe", "--kind", "laguerre", "--dim", 1, "--max-degree", 8])
        assert header == ["degree", "forward_norm", "inverse_norm"]
        self.assert_cells(header, rows, doc["rows"])

    def test_roundtrip(self, tmp_path):
        poly = monomial_file(tmp_path, "z5.json", 1, (5,))
        doc, header, rows = self.both_formats(
            tmp_path, ["roundtrip", "--kind", "charlier", "--dim", 1, "--max-degree", 8,
                       "--input", poly])
        assert header == ["max_abs_error", "max_rel_error", "degree"]
        self.assert_cells(header, rows, [doc])

    def test_check(self, tmp_path):
        doc, header, rows = self.both_formats(tmp_path, ["check", "--seed", 2])
        assert header == ["name", "passed", "measured", "threshold"]
        self.assert_cells(header, rows, doc["checks"])

    def test_expand(self, tmp_path):
        poly = monomial_file(tmp_path, "z4.json", 2, (3, 1))
        doc, header, rows = self.both_formats(
            tmp_path, ["expand", "--kind", "charlier", "--dim", 2, "--max-degree", 5,
                       "--input", poly])
        assert header == ["degree", "exp", "re", "im"]
        terms = [{"degree": c["degree"], "exp": " ".join(map(str, t["exp"])),
                  "re": t["re"], "im": t["im"]}
                 for c in doc["coefficients"] for t in c["terms"]]
        self.assert_cells(header, rows, terms)


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        poly = monomial_file(tmp_path, "z5.json", 1, (5,))
        jobs = [
            (["family", "--kind", "charlier", "--dim", 2, "--max-degree", 5], "fam"),
            (["bounds", "--kind", "falling", "--dim", 1, "--max-degree", 10], "bnd"),
            (["diverge", "--kind", "falling", "--dim", 1, "--max-degree", 12,
              "--degrees", "1:12"], "div"),
            (["probe", "--kind", "laguerre", "--dim", 1, "--max-degree", 8], "prb"),
            (["expand", "--kind", "falling", "--dim", 1, "--max-degree", 8,
              "--input", poly], "exp"),
            (["roundtrip", "--kind", "falling", "--dim", 1, "--max-degree", 8,
              "--input", poly], "rt"),
        ]
        for args, tag in jobs:
            one = tmp_path / f"{tag}1.json"
            two = tmp_path / f"{tag}2.json"
            assert run(args + ["--seed", 7, "--out", one]) == 0
            assert run(args + ["--seed", 7, "--out", two]) == 0
            assert one.read_bytes() == two.read_bytes(), tag

    def test_check_byte_identical(self, tmp_path):
        one = tmp_path / "c1.json"
        two = tmp_path / "c2.json"
        assert run(["check", "--seed", 3, "--out", one]) == 0
        assert run(["check", "--seed", 3, "--out", two]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_global_options_before_or_after_command(self, tmp_path):
        one = tmp_path / "c1.json"
        two = tmp_path / "c2.json"
        assert run(["--seed", 3, "check", "--out", one]) == 0
        assert run(["check", "--seed", 3, "--out", two]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert json.loads(one.read_text())["seed"] == 3


class TestParserCache:
    """One parser serves every call of a process and keeps nothing between calls."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_globals_do_not_carry_over(self, monkeypatch, tmp_path, where):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "probe", lambda cfg: seen.append(cfg) or 0)
        probe = ["probe", "--kind", "falling", "--max-degree", 4]
        flags = ["--seed", 5, "--format", "csv", "--out", tmp_path / "p.csv"]
        assert run(flags + probe if where == "before" else probe + flags) == 0
        assert run(probe) == 0
        assert (seen[0].seed, seen[0].format, seen[0].out) == (5, "csv", str(tmp_path / "p.csv"))
        assert (seen[1].seed, seen[1].format, seen[1].out) == (0, "json", None)

    def test_usage_errors_after_use(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run(["bounds", "--kind", "falling", "--max-degree", 4, "--l", 0,
                    "--l-prime", 2, "--out", out]) == 0
        for args in (["bounds", "--kind", "falling", "--max-degree", 4, "--l-p", 1],
                     ["bounds", "--kind", "falling", "--max-degree", 4, "--l-", 1],
                     ["diverge", "--kind", "laguerre", "--max-degree", 4, "--l", 2],
                     ["bogus", "--kind", "falling"]):
            with pytest.raises(SystemExit) as exc:
                run(args + ["--out", tmp_path / "x.json"])
            assert exc.value.code == 2, args
            assert capsys.readouterr().err.count("usage:") == 1, args
        assert not (tmp_path / "x.json").exists()


class TestConfig:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_degree": 6}), encoding="utf-8")
        out = tmp_path / "seq.json"
        assert run(["family", "--kind", "falling", "--dim", 1,
                    "--max-degree", 3, "--config", cfg, "--out", out]) == 0
        assert load_sequence(out).max_degree == 6

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert run(["check", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["probe", "nope", "expand"])
    def test_config_cannot_set_command(self, tmp_path, capsys, command):
        seq, poly = tmp_path / "seq.json", monomial_file(tmp_path, "poly.json", 1, (2,))
        assert run(["family", "--kind", "falling", "--max-degree", 4, "--out", seq]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command}), encoding="utf-8")
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(["expand", "--sequence", seq, "--input", poly, "--out", out,
                    "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'command'" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        [1, 2], {"max_degree": "3"}, {"max_degree": 3.0}, {"max_degree": True},
        {"degrees": 5}, {"alpha": "2"}, {"out": 7}, {"format": "xml"}],
        ids=["not-object", "int-as-str", "int-as-float", "int-as-bool", "degrees-int",
             "float-as-str", "out-int", "format-xml"])
    def test_config_values_typed(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "sweep.json"
        assert run(["diverge", "--kind", "falling", "--max-degree", 6, "--degrees", "1:6",
                    "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_invalid_spec(self, tmp_path):
        assert run(["family", "--kind", "laguerre", "--laguerre-k", -3,
                    "--out", tmp_path / "x.json"]) == 2

    def test_missing_out(self):
        assert run(["family", "--kind", "falling"]) == 2

    def test_io_failure(self):
        assert run(["family", "--kind", "falling",
                    "--out", "/nonexistent/dir/x.json"]) == 3

    def test_degree_overflow(self, tmp_path):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4,
             "--out", seq_file])
        poly = monomial_file(tmp_path, "z9.json", 1, (9,))
        assert run(["expand", "--sequence", seq_file, "--input", poly,
                    "--out", tmp_path / "o.json"]) == 4

    def test_precondition_violation(self, tmp_path):
        assert run(["bounds", "--kind", "falling", "--dim", 1,
                    "--max-degree", 6, "--l", 0, "--l-prime", 1,
                    "--out", tmp_path / "b.json"]) == 5

    def test_float_overflow_is_spec_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["family", "--kind", "falling", "--dim", 1,
                    "--max-degree", 200, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "lower max_degree below 171" in err and err.count("\n") == 1
        assert not out.exists()

    def test_negative_max_degree_in_sequence_file(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "charlier", "--dim", 1, "--max-degree", 4,
             "--no-blocks", "--out", seq_file])
        seq_doc = json.loads(seq_file.read_text(encoding="utf-8"))
        seq_doc["max_degree"] = -1
        seq_file.write_text(json.dumps(seq_doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert run(["expand", "--sequence", seq_file,
                    "--input", monomial_file(tmp_path, "z0.json", 1, (0,)), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "max_degree must be nonnegative, got -1" in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_options_rejected(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 6,
             "--out", seq_file])
        capsys.readouterr()
        out = tmp_path / "sweep.json"
        assert run(["diverge", "--sequence", seq_file, "--alpha", "nan",
                    "--out", out]) == 2
        assert "alpha must be a finite number" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laguerre_k": float("inf")}), encoding="utf-8")
        assert run(["family", "--kind", "laguerre", "--config", cfg,
                    "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["coefficients"][1]["terms"][0].update(re="1"),
        lambda doc: doc["coefficients"][1]["terms"][0].update(im=None),
        lambda doc: doc["coefficients"][1]["terms"][0].update(re=float("nan")),
        lambda doc: doc["coefficients"][1]["terms"][0].update(im=float("inf")),
        lambda doc: doc["coefficients"][1]["terms"][0].update(exp=[0.5]),
        lambda doc: doc["coefficients"][1]["terms"][0].update(exp=[-1]),
        lambda doc: doc["coefficients"][1]["terms"][0].update(exp=[1, 0]),
        lambda doc: doc["coefficients"][1].update(terms={}),
        lambda doc: doc["coefficients"][1].update(degree=2),
        lambda doc: doc.update(coefficients="x"),
        lambda doc: doc.update(coefficients=[]),
        lambda doc: doc.update(dim=None),
        lambda doc: doc.clear() or doc.update(polynomial=[]),
    ], ids=["re-str", "im-null", "re-nan", "im-inf", "exp-float", "exp-negative",
            "exp-length", "terms-object", "degree-slot", "coefficients-str", "coefficients-empty", "dim-null", "no-fields"])
    def test_bad_polynomial_documents(self, tmp_path, capsys, edit):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4, "--out", seq_file])
        doc = PolynomialOnDual.monomial(1, (1,)).to_json_dict()
        edit(doc)
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert run(["expand", "--sequence", seq_file, "--input", poly, "--out", out]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_bad_documents_of_each_kind(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4, "--out", seq_file])
        poly = monomial_file(tmp_path, "z2.json", 1, (2,))
        top_level_list = tmp_path / "list.json"
        top_level_list.write_text("[]", encoding="utf-8")
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"dim": 1, "max_degree": 4, "terms": [
            {"exp": [0], "re": 1.0, "im": 0.0}, {"exp": [2], "re": float("nan"), "im": 0.0}]}),
            encoding="utf-8")
        vec = tmp_path / "a.json"
        vec.write_text(json.dumps({"components": "x"}), encoding="utf-8")
        seq_doc = json.loads(seq_file.read_text(encoding="utf-8"))
        seq_doc["blocks"]["1,3"]["data"] = 5
        bad_block = tmp_path / "bad_block.json"
        bad_block.write_text(json.dumps(seq_doc), encoding="utf-8")
        seq_doc["blocks"] = [1]
        bad_blocks = tmp_path / "bad_blocks.json"
        bad_blocks.write_text(json.dumps(seq_doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        for args in (["expand", "--sequence", seq_file, "--input", top_level_list],
                     ["expand", "--sequence", top_level_list, "--input", poly],
                     ["expand", "--sequence", bad_block, "--input", poly],
                     ["expand", "--sequence", bad_blocks, "--input", poly],
                     ["family", "--kind", "custom", "--a", "identity", "--rho", rho],
                     ["family", "--kind", "custom", "--a", vec],
                     ["family", "--kind", "custom", "--a", top_level_list]):
            assert run(args + ["--max-degree", 4, "--out", out]) == 2, args
            assert capsys.readouterr().err.count("\n") == 1
            assert not out.exists()

    def test_repeated_exponent_in_polynomial(self, tmp_path, capsys):
        seq_file, out = tmp_path / "seq.json", tmp_path / "o.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4, "--out", seq_file])
        doc = PolynomialOnDual.monomial(1, (0,)).to_json_dict()
        terms = doc["coefficients"][0]["terms"]
        terms.append({**terms[0], "re": 5.0})
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(["apply", "--sequence", seq_file, "--input", poly, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "exponent [0] appears more than once" in err and err.count("\n") == 1
        assert not out.exists()

    def test_repeated_exponent_in_series(self, tmp_path, capsys):
        a = VectorSeries.from_scalar_1d(ScalarSeries.from_coeffs_1d([0, 1, 0.5], 4))
        doc = a.to_json_dict()
        terms = doc["components"][0]["terms"]
        terms.append({**terms[-1], "re": 0.25})
        a_file, out = tmp_path / "a.json", tmp_path / "o.json"
        a_file.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(["family", "--kind", "custom", "--a", a_file, "--max-degree", 4,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "exponent [2] appears more than once" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["99,99", "2,0", "-1,0", "a,b", "1,2,3"])
    def test_bad_block_keys(self, tmp_path, capsys, key):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4, "--out", seq_file])
        seq_doc = json.loads(seq_file.read_text(encoding="utf-8"))
        seq_doc["blocks"] = {key: seq_doc["blocks"]["1,3"]}
        seq_file.write_text(json.dumps(seq_doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert run(["expand", "--sequence", seq_file,
                    "--input", monomial_file(tmp_path, "z2.json", 1, (2,)), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"block key '{key}' must be 'k,n'" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("version", [4.0, 2.0, True, "4"])
    def test_format_version_must_be_int(self, tmp_path, capsys, version):
        seq_file = tmp_path / "seq.json"
        run(["family", "--kind", "falling", "--dim", 1, "--max-degree", 4, "--out", seq_file])
        seq_doc = json.loads(seq_file.read_text(encoding="utf-8"))
        seq_doc["format_version"] = version
        seq_file.write_text(json.dumps(seq_doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert run(["expand", "--sequence", seq_file,
                    "--input", monomial_file(tmp_path, "z2.json", 1, (2,)), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"unsupported sequence format_version {version!r}" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--l", 200],
        ["--l-prime", 2000],
        ["--max-degree", 24, "--alpha", 0.01],
    ], ids=["level-200", "level-out-2000", "alpha-0.01"])
    def test_norm_weight_overflow_is_spec_error(self, tmp_path, capsys, extra):
        out = tmp_path / "b.json"
        assert run(["bounds", "--kind", "falling", "--dim", 1, "--max-degree", 6,
                    *extra, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "double range" in err and ("level" in err or "degree" in err)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc,named", [
        ([], "JSON object"),
        ({"N": None}, "'N'"),
        ({"cov": 5}, "'cov'"),
        ({"cov": [[1.0, 0.0]]}, "covariance"),
        ({"dim": 1.7}, "'dim'"),
        ({"dim": True}, "'dim'"),
        ({"N": "4"}, "'N'"),
        ({"k": float("nan")}, "k must be a finite number"),
        ({"kind": 3}, "'kind'"),
        ({"weights": [True]}, "weights must be a finite number"),
    ], ids=["list", "N-null", "cov-number", "cov-not-square", "dim-float", "dim-bool",
            "N-str", "k-nan", "kind-int", "weights-bool"])
    def test_bad_spec_files(self, tmp_path, capsys, doc, named):
        if isinstance(doc, dict):
            doc = {"kind": "laguerre", "dim": 1, "N": 4, **doc}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "seq.json"
        assert run(["family", "--spec", spec, "--out", out]) == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cov", ["5", "[1, 2]", '[["1"]]', "[[NaN]]"])
    def test_bad_cov_flag(self, tmp_path, capsys, cov):
        out = tmp_path / "seq.json"
        assert run(["family", "--kind", "hermite", "--dim", 1, "--max-degree", 4,
                    "--cov", cov, "--out", out]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "spec"])
    def test_ragged_cov(self, tmp_path, capsys, source):
        cov = [[1], [1, 2]]
        if source == "flag":
            args = ["--kind", "hermite", "--dim", 2, "--max-degree", 4, "--cov", json.dumps(cov)]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"kind": "hermite", "dim": 2, "N": 4, "cov": cov}),
                            encoding="utf-8")
            args = ["--spec", spec]
        out = tmp_path / "seq.json"
        assert run(["family", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "cov must be a square 2 x 2 matrix" in err and err.count("\n") == 1
        assert not out.exists()

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["family", "--format", "xml", "--out", "x.json"])
        assert exc.value.code == 2

    def test_abbreviated_option_is_usage_error(self, tmp_path, capsys):
        # diverge has no --l; a prefix match would read it as --laguerre-k
        out = tmp_path / "sweep.json"
        with pytest.raises(SystemExit) as exc:
            run(["diverge", "--kind", "laguerre", "--max-degree", 6, "--l", 2, "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --l 2" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            run(["family", "--kind", "falling", "--max-deg", 4, "--out", out])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["--kind", "hermite"], ["--kind", "falling"], ["--kind", "charlier"],
        ["--kind", "laguerre"], ["--kind", "custom", "--a", "identity"],
        ["--kind", "custom", "--a", "FILE"]],
        ids=["hermite", "falling", "charlier", "laguerre", "custom-identity", "custom-file"])
    def test_max_degree_zero_rejected(self, tmp_path, capsys, args):
        # FILE stands for a valid series file: the identity map at degree 4
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps(VectorSeries.identity(1, 4).to_json_dict()), encoding="utf-8")
        args = [a_file if arg == "FILE" else arg for arg in args]
        out = tmp_path / "seq.json"
        assert run(["family", *args, "--max-degree", 0, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "max_degree must be at least 1, got 0" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_values_past_double_range(self, tmp_path, capsys, fmt):
        # each ends in one line on stderr: no warning, no file, no verdict
        big = PolynomialOnDual.from_coeffs(1, [SymCoeff.from_coeffs(1, n, {(n,): 1e308 - 1e308j})
                                               for n in range(7)])
        poly = tmp_path / "big.json"
        poly.write_text(json.dumps(big.to_json_dict()), encoding="utf-8")
        maps = {}
        for name, coeffs in (("a300", [0, 1.0, 1e300, 0]), ("a307", [0, 1.0, 2.5e307, 2.5e307])):
            maps[name] = tmp_path / f"{name}.json"
            a = VectorSeries.from_scalar_1d(ScalarSeries.from_coeffs_1d(coeffs))
            maps[name].write_text(json.dumps(a.to_json_dict()), encoding="utf-8")
        transform = ["--kind", "falling", "--max-degree", 6, "--input", poly]
        cases = [(["expand", *transform], "coefficients of degree 1 leave the double range"),
                 (["apply", *transform], "coefficients of degree 1 leave the double range"),
                 (["roundtrip", *transform], "coefficients of degree 1 leave the double range"),
                 (["probe", "--kind", "custom", "--a", maps["a300"], "--max-degree", 3],
                  "graded block of degree 3 leaves the double range"),
                 (["diverge", "--kind", "custom", "--a", maps["a307"], "--max-degree", 3,
                   "--alpha", 2, "--degrees", "1:3"], "Out of range float values")]
        out = tmp_path / f"report.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args, named in cases:
                assert run([*args, "--format", fmt, "--out", out]) == 2, args
                captured = capsys.readouterr()
                assert named in captured.err and captured.err.count("\n") == 1, args
                assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, capsys, trials):
        assert run(["check", "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert f"trials must be at least 1, got {trials}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_negative_seed_rejected(self, tmp_path, capsys, via_config):
        out = tmp_path / "check.json"
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            args = ["check", "--config", cfg, "--out", out]
        else:
            args = ["check", "--seed", -1, "--out", out]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative, got -1" in err and err.count("\n") == 1
        assert not out.exists()
