"""CLI contract: subcommands, config execution, determinism, exit codes."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from finslerproj import cli
from finslerproj.cli import METRIC_KINDS, build_metric, dump_json, run_args
from finslerproj.errors import ConfigError
from finslerproj.verify import CriterionResult

PINS = Path(__file__).parent / "pins"


class TestBasicCommands:
    def test_funk_interval_prints_value(self):
        code, text = run_args(["funk", "--interval", "--a", "0", "--b", "0.5",
                               "--k", "1"], capture=True)
        assert code == 0
        assert text.strip() == f"{math.log(2.0):.6f}"

    def test_funk_interval_eval(self):
        code, text = run_args(["funk", "--eval-u", "0.5", "--eval-y", "-1"],
                              capture=True)
        assert code == 0
        assert float(text) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_funk_ball_norm(self):
        code, text = run_args(["funk", "--metric", "funk-ball", "--x", "0.5", "0",
                               "--y", "1", "0"], capture=True)
        assert code == 0
        assert float(text) == pytest.approx(2.0)

    def test_validate_klein(self):
        code, text = run_args(["validate", "--metric", "klein", "--n", "2",
                               "--samples", "40", "--seed", "5"], capture=True)
        assert code == 0
        payload = json.loads(text)
        assert payload["homogeneity"]["passed"]
        assert payload["strong_convexity"]["passed"]

    def test_curvature_bound_pass(self):
        code, text = run_args(["curvature", "--metric", "klein", "--n", "2",
                               "--check-bound", "--c", "1", "--samples", "5"],
                              capture=True)
        assert code == 0
        payload = json.loads(text)
        assert payload["ricci_bound"]["passed"]
        assert abs(payload["ricci_bound"]["worst_normalized_eigenvalue"]) < 1e-4

    def test_curvature_bound_flagged(self):
        code, text = run_args(["curvature", "--metric", "euclidean", "--n", "2",
                               "--check-bound", "--c", "1", "--samples", "3"],
                              capture=True)
        assert code == 2

    def test_geodesic_connect(self):
        code, text = run_args(["geodesic", "--metric", "klein",
                               "--x0", "0", "0", "--x1", "0.5", "0",
                               "--connect"], capture=True)
        assert code == 0
        payload = json.loads(text)
        assert payload["length"] == pytest.approx(math.atanh(0.5), abs=1e-6)

    def test_geodesic_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        code, _ = run_args(["geodesic", "--metric", "funk-ball",
                            "--x0", "0", "0", "--y0", "1", "0",
                            "--length", "0.5", "--csv", str(path)], capture=True)
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,x1,x2,v1,v2,F"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[-1] == pytest.approx(1.0, abs=1e-9)

    def test_projparam_csv(self, tmp_path):
        path = tmp_path / "par.csv"
        code, text = run_args(["projparam", "--metric", "klein",
                               "--x0", "0", "0", "--y0", "1", "0",
                               "--csv", str(path), "--grid", "41"], capture=True)
        assert code == 0
        payload = json.loads(text.split("s,")[0])
        assert payload["wronskian_drift"] <= 1e-8
        header = path.read_text().splitlines()[0]
        assert header == "s,q,w1,w2,pi"

    def test_pseudodist_corollary_flagged(self):
        code, text = run_args(["pseudodist", "--metric", "klein",
                               "--x0", "0", "0", "--x1", "0.5", "0",
                               "--check-corollary", "--c", "1.0"], capture=True)
        assert code == 2
        payload = json.loads(text)
        assert not payload["corollary"]["passed"]
        assert payload["corollary"]["passed_alternate"]

    def test_pseudodist_plain(self):
        code, text = run_args(["pseudodist", "--metric", "euclidean",
                               "--x0", "0", "0", "--x1", "0.5", "0"],
                              capture=True)
        assert code == 0
        payload = json.loads(text)
        assert payload["report"]["estimate"] <= 1e-9


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code, _ = run_args(["frobnicate"], capture=True)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_domain_error_exit(self, capsys):
        code, _ = run_args(["funk", "--metric", "funk-ball",
                            "--x", "2", "0", "--y", "1", "0"], capture=True)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_non_finite_vector(self, capsys):
        code, _ = run_args(["geodesic", "--metric", "klein", "--x0", "0", "0",
                            "--y0", "nan", "1"], capture=True)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["curvature", "--metric", "klein", "--samples", "2", "--check-bound", "--c", "-1"],
        ["pseudodist", "--metric", "klein", "--x0", "0", "0", "--x1", "0.3", "0",
         "--check-schwarz", "--c", "-1"],
    ])
    def test_non_positive_c(self, argv, capsys):
        code, text = run_args(argv, capture=True)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConstructionError:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["validate", "--metric", "klein", "--samples", "0"],
        ["curvature", "--metric", "klein", "--check-bound", "--c", "1", "--samples", "0"],
    ])
    def test_empty_sample_set(self, argv, capsys):
        code, text = run_args(argv, capture=True)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--length", "nan"],
        ["geodesic", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--length", "-1"],
        ["geodesic", "--metric", "euclidean", "--x0", "0", "0", "--y0", "1", "0",
         "--length", "inf"],
        ["projparam", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--cap", "-1"],
        ["projparam", "--metric", "euclidean", "--x0", "0", "0", "--y0", "1", "0",
         "--cap", "inf"],
        ["pseudodist", "--metric", "klein", "--x0", "0.1", "0", "--x1", "0.1", "0",
         "--check-schwarz", "--c", "1"],
    ])
    def test_bad_length_cap_or_link(self, argv, capsys):
        code, text = run_args(argv, capture=True)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["projparam", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--grid", "-3"],
        ["projparam", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--grid", "0"],
        ["projparam", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
         "--grid", "1"],
        ["pseudodist", "--metric", "klein", "--x0", "0", "0", "--x1", "0.3", "0",
         "--check-schwarz", "--c", "1", "--grid", "-3"],
    ])
    def test_grid_below_two(self, argv, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, text = run_args(argv + ["--csv", str(path)], capture=True)
        assert code == 1 and text == "" and not path.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [
        ["pseudodist", "--metric", "klein", "--x0", "0", "0", "--x1", "0.3", "0",
         "--budget", "4", "--check-schwarz", "--c", "1", "--grid-extent", "nan"],
        ["geodesic", "--metric", "klein", "--x0", "0", "0", "--x1", "0.3", "0",
         "--connect", "--tol", "-1"],
        ["geodesic", "--metric", "klein", "--x0", "0", "0", "--x1", "0.3", "0",
         "--connect", "--tol", "nan"],
    ])
    def test_nan_schwarz_grid_or_bad_connect_tol(self, argv, capsys):
        code, text = run_args(argv, capture=True)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv, kind", [
        (["validate", "--metric", "klein", "--samples", "3", "--tolerance", "inf"],
         "ConstructionError"),
        (["validate", "--metric", "klein", "--samples", "3", "--tolerance", "nan"],
         "ConstructionError"),
        (["curvature", "--metric", "klein", "--samples", "2", "--check-bound", "--c", "inf"],
         "ConstructionError"),
        (["validate", "--metric", "funk-ball", "--n", "2", "--k", "inf"], "ConstructionError"),
        (["validate", "--metric", "funk-ball", "--n", "2", "--k", "1e300"], "ConstructionError"),
        (["funk", "--metric", "funk-ball", "--x", "0.5", "0", "--y", "1", "0", "--k", "inf"],
         "ConstructionError"),
        (["funk", "--interval", "--a", "0", "--b", "0.5", "--k", "1e-200"], "ConstructionError"),
        (["projparam", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
          "--cap", "1e-300"], "DomainError"),
        (["projparam", "--metric", "euclidean", "--x0", "0", "0", "--y0", "1", "0",
          "--cap", "1e300"], "DomainError"),
        (["projparam", "--metric", "euclidean", "--x0", "0", "0", "--y0", "1e-300", "0"],
         "DomainError"),
        (["curvature", "--metric", "klein", "--x", "0", "0", "--y", "1e-300", "0",
          "--samples", "1"], "DomainError"),
    ])
    def test_vacuous_or_overflowing_parameter(self, argv, kind, capsys):
        # each of these once passed vacuously, printed a traceback, or (the
        # nan tolerance) exited 2 with "tolerance": "nan" in its report
        code, text = run_args(argv, capture=True)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}:") and "\n" not in err.strip()

    def test_missing_flags(self):
        code, _ = run_args(["funk"], capture=True)
        assert code == 1

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_args(["run", "--config", str(path)], capture=True)
        assert code == 1
        assert "config" in capsys.readouterr().err


class TestUnusableInput:
    """Metrics, files and config values the CLI cannot use end in one error line."""

    QUAD = {"alpha": [[-1.0, 0.0], [0.0, -1.0]], "beta": [0.0, 0.0], "gamma": 1.0}
    RANDERS = {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.1, 0.0]}
    FUNK2 = ["--x", "0", "0", "--y", "1", "0"]

    @pytest.mark.parametrize("argv, files", [
        (["curvature", "--metric", "interval-funk"], {}),
        (["geodesic", "--metric", "interval-funk", "--x0", "0", "--y0", "1"], {}),
        (["projparam", "--metric", "interval-funk", "--x0", "0", "--y0", "1"], {}),
        (["pseudodist", "--metric", "interval-funk", "--x0", "0", "--x1", "0.5"], {}),
        (["funk", "--metric", "interval-funk", "--x", "0.1", "0.2", "--y", "1", "0"], {}),
        (["funk", "--metric", "funk-quadratic", "--spec", "missing.json", *FUNK2], {}),
        (["funk", "--metric", "funk-quadratic", "--spec", "spec.json", *FUNK2],
         {"spec.json": "{not json"}),
        (["funk", "--metric", "funk-quadratic", "--spec", "spec.json", *FUNK2],
         {"spec.json": [1, 2]}),
        (["run", "--config", "cfg.json"], {"cfg.json": {"command": 5}}),
        (["run", "--config", "cfg.json"], {"cfg.json": {"command": {"name": ["funk"]}}}),
        (["run", "--config", "cfg.json"],
         {"cfg.json": {"command": {"name": "validate"}, "seed": "abc"}}),
        (["run", "--config", "cfg.json"],
         {"cfg.json": {"command": {"name": "validate"}, "seed": 1.5}}),
        (["run", "--config", "cfg.json"],
         {"cfg.json": {"command": {"name": "validate"}, "metric": [1, 2]}}),
        (["funk", "--metric", "funk-quadratic", "--spec", "spec.json", *FUNK2],
         {"spec.json": dict(QUAD, gamma="one")}),
        (["funk", "--metric", "funk-quadratic", "--spec", "spec.json", *FUNK2],
         {"spec.json": dict(QUAD, alpha=[[-1.0, 0.0], [0.0]])}),
        (["funk", "--metric", "funk-quadratic", "--spec", "spec.json", *FUNK2],
         {"spec.json": dict(QUAD, gamma=10 ** 400)}),
        (["funk", "--metric", "randers", "--spec", "spec.json", *FUNK2],
         {"spec.json": dict(RANDERS, b=[0.1])}),
        (["funk", "--metric", "randers", "--n", "3", "--spec", "spec.json",
          "--x", "0", "0", "0", "--y", "1", "0", "0"], {"spec.json": RANDERS}),
        (["validate", "--metric", "klein", "--samples", "2", "--json", "missing/out.json"], {}),
        (["geodesic", "--metric", "klein", "--x0", "0", "0", "--y0", "1", "0",
          "--csv", "missing/trace.csv"], {}),
    ])
    def test_one_error_line(self, argv, files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text)
        code, _ = run_args(argv, capture=True)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_validate_message_kept(self, capsys):
        assert run_args(["validate", "--metric", "interval-funk"], capture=True)[0] == 1
        assert capsys.readouterr().err == "error: config: validate needs an n >= 2 metric\n"

    def test_interval_funk_norm_takes_one_component(self):
        code, text = run_args(["funk", "--metric", "interval-funk", "--x", "0.1", "--y", "1"],
                              capture=True)
        assert (code, text) == (0, "1.111111\n")


class TestArgvProperty:
    """Any numeric flag value ends in a report or in one error line."""

    SPECIAL = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]

    @staticmethod
    def argv_strategy():
        st = pytest.importorskip("hypothesis.strategies")
        num = st.sampled_from(TestArgvProperty.SPECIAL) | st.floats(-1.5, 1.5).map(repr)
        vec = st.lists(num, min_size=2, max_size=2)
        # funk-quadratic and randers come without a spec here
        metric = st.sampled_from(METRIC_KINDS).map(lambda m: ["--metric", m])
        k = st.just([]) | num.map(lambda v: ["--k", v])
        flag = lambda name: num.map(lambda v: [name, v])
        vflag = lambda name: vec.map(lambda v: [name, *v])
        cat = lambda *parts: st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])
        fixed = lambda *args: st.just(list(args))
        return st.one_of(
            cat(fixed("validate", "--samples", "2"), metric, flag("--tolerance"), k),
            cat(fixed("curvature", "--samples", "2"), metric, vflag("--x"), vflag("--y"), k,
                st.just([]) | num.map(lambda c: ["--check-bound", "--c", c])),
            cat(fixed("funk", "--interval"), flag("--a"), flag("--b"), k),
            cat(fixed("funk"), flag("--eval-u"), flag("--eval-y"), k),
            cat(fixed("funk"), metric, vflag("--x"), vflag("--y"), k),
            cat(fixed("projparam", "--grid", "3"), metric, vflag("--x0"), vflag("--y0"),
                flag("--cap"), k),
            cat(fixed("geodesic"), metric, vflag("--x0"), vflag("--y0"), flag("--length"),
                flag("--tol"), k),
            cat(fixed("geodesic", "--connect"), metric, vflag("--x0"), vflag("--x1"),
                flag("--tol"), k),
            cat(fixed("pseudodist", "--budget", "1"), metric, vflag("--x0"), vflag("--x1"), k),
        )

    def test_no_escape_and_one_error_line(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, derandomize=True, deadline=None,
                             database=None)
        @hypothesis.given(self.argv_strategy())
        def check(argv):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code, _ = run_args(argv, capture=True)
            assert code in (0, 1, 2)
            if code == 1:
                # a warning would print its own lines next to the error
                assert len(err.getvalue().strip().splitlines()) == 1 and not caught

        check()


class TestRunConfig:
    def test_config_matches_flags(self, tmp_path):
        config = {
            "metric": {"kind": "klein", "n": 2},
            "command": {"name": "curvature", "check_bound": True, "c": 1.0,
                        "samples": 5},
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code_cfg, text_cfg = run_args(["run", "--config", str(path)], capture=True)
        code_flag, text_flag = run_args(
            ["curvature", "--metric", "klein", "--n", "2", "--check-bound",
             "--c", "1.0", "--samples", "5", "--seed", "3"], capture=True)
        assert code_cfg == code_flag == 0
        assert text_cfg == text_flag

    def test_quadratic_spec_through_config(self, tmp_path):
        config = {
            "metric": {"kind": "funk-quadratic",
                       "alpha": [[-1.0, 0.0], [0.0, -1.0]],
                       "beta": [0.0, 0.0], "gamma": 1.0, "k": 1.0},
            "command": {"name": "funk", "x": [0.5, 0.0], "y": [1.0, 0.0]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, text = run_args(["run", "--config", str(path)], capture=True)
        assert code == 0
        assert float(text) == pytest.approx(2.0)

    def test_spec_file_removed(self, tmp_path, monkeypatch):
        # the spec travels through a temporary file that must not outlive the
        # run, whether the command succeeds or fails
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        metric = {"kind": "funk-quadratic", "alpha": [[-1.0, 0.0], [0.0, -1.0]],
                  "beta": [0.0, 0.0], "gamma": 1.0}
        for x, expected in (([0.5, 0.0], 0), ([2.0, 0.0], 1)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"metric": metric, "command": {
                "name": "funk", "x": x, "y": [1.0, 0.0]}}))
            code, _ = run_args(["run", "--config", str(path)], capture=True)
            assert code == expected
            assert list(scratch.iterdir()) == []

    def test_missing_command_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": {}}))
        code, _ = run_args(["run", "--config", str(path)], capture=True)
        assert code == 1


class TestPinnedOutputs:
    """Byte pins of outputs that no other test, criterion or workload reaches."""

    RANDERS = {"kind": "randers", "n": 2, "a": [[1.0, 0.1], [0.1, 0.9]], "b": [0.2, -0.1]}
    RANDERS_CONNECT = ('{\n  "iterations": 1,\n  "length": 0.41148351242013415,\n'
                       '  "miss": 9.238896857051836e-16,\n  "unit_speed_drift": 0.0\n}\n')

    def test_pseudodist_checkers_json_and_csv(self, tmp_path):
        path = tmp_path / "h.csv"
        code, text = run_args(["pseudodist", "--metric", "klein", "--x0", "0", "0",
                               "--x1", "0.5", "0", "--check-schwarz", "--check-corollary",
                               "--c", "1", "--csv", str(path)], capture=True)
        assert code == 2
        assert text == (PINS / "pseudodist_klein.json").read_text()
        assert path.read_text() == (PINS / "pseudodist_klein_h.csv").read_text()

    def test_verify_all_to_stdout_and_file(self, tmp_path, monkeypatch):
        results = [CriterionResult("criterion_a", "first check", True, 0.12345,
                                   {"worst": 1.5e-12, "rows": [1, 2]}),
                   CriterionResult("criterion_b", "second check", False, 2.0,
                                   {"gap": math.inf})]

        def run_all(progress):
            for r in results:
                progress(f"{r.key}: {'PASS' if r.passed else 'FAIL'}")
            return results

        monkeypatch.setattr(cli, "run_all", run_all)
        report = ('{\n  "criteria": [\n    {\n      "details": {\n        "rows": [\n'
                  '          1,\n          2\n        ],\n        "worst": 1.5e-12\n'
                  '      },\n      "duration_seconds": 0.123,\n      "key": "criterion_a",\n'
                  '      "name": "first check",\n      "passed": true\n    },\n    {\n'
                  '      "details": {\n        "gap": "inf"\n      },\n'
                  '      "duration_seconds": 2.0,\n      "key": "criterion_b",\n'
                  '      "name": "second check",\n      "passed": false\n    }\n  ],\n'
                  '  "passed": false\n}\n')
        progress = "criterion_a: PASS\ncriterion_b: FAIL\n"
        assert run_args(["verify-all"], capture=True) == (2, progress + report)
        path = tmp_path / "summary.json"
        assert run_args(["verify-all", "--json", str(path)], capture=True) == (2, progress)
        assert path.read_text() == report

    def test_randers_through_config_and_spec_file(self, tmp_path):
        command = {"name": "geodesic", "x0": [0.1, 0.0], "x1": [0.4, 0.2], "connect": True}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"metric": self.RANDERS, "command": command, "seed": 1}))
        assert run_args(["run", "--config", str(config)], capture=True) == (
            0, self.RANDERS_CONNECT)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"a": self.RANDERS["a"], "b": self.RANDERS["b"]}))
        assert run_args(["geodesic", "--metric", "randers", "--spec", str(spec),
                         "--x0", "0.1", "0", "--x1", "0.4", "0.2", "--connect"],
                        capture=True) == (0, self.RANDERS_CONNECT)


class TestDeterminism:
    def test_byte_identical_reports(self):
        argv = ["validate", "--metric", "funk-ball", "--n", "2",
                "--samples", "50", "--seed", "11"]
        _, first = run_args(argv, capture=True)
        _, second = run_args(argv, capture=True)
        assert first == second

    def test_byte_identical_csv(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_args(["geodesic", "--metric", "klein", "--x0", "0.1", "0",
                      "--y0", "1", "0.4", "--length", "1.0", "--csv", str(path)],
                     capture=True)
            texts.append(path.read_text())
        assert texts[0] == texts[1]


class TestBuildMetric:
    def test_kinds(self):
        assert build_metric("euclidean", 3).dimension == 3
        assert build_metric("klein", 2).name == "klein"
        assert build_metric("interval-funk", k=2.0).k == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_metric("hyperbolic-cheese")

    def test_json_defaults(self):
        text = dump_json({"a": np.float64(1.5), "b": np.arange(3)})
        assert json.loads(text) == {"a": 1.5, "b": [0, 1, 2]}

    def test_json_non_finite_values_become_strings(self):
        payload = {"nan": math.nan, "inf": np.float64(np.inf),
                   "rows": [np.array([-np.inf, 2.0]), (np.nan, 0.5)], "zero_d": np.array(-1.0)}
        text = dump_json(payload)
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"nan": "nan", "inf": "inf",
                                    "rows": [["-inf", 2.0], ["nan", 0.5]], "zero_d": -1.0}
