"""Batch command-line front end.

Subcommands dispatch library computations and emit deterministic JSON and
CSV. Exit codes: 0 when every requested check passes, 2 when the
computation succeeded but a report-only checker flagged a violation, 1 for
errors (single-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import distance as dist
from .core import validate_homogeneity, validate_strong_convexity
from .curvature import check_ricci_bound, ricci_scalar_batch, ricci_tensor
from .errors import ConfigError, FinslerError
from .geodesics import connect, extend_geodesic, integrate_geodesic
from .metrics import (EuclideanMetric, QuadraticDomainSpec, RandersSpec, funk_ball,
                      funk_from_quadratic, interval_funk_eval, klein_metric,
                      randers_metric)
from .projective import projective_parameter
from .verify import run_all

METRIC_KINDS = ("euclidean", "klein", "funk-ball", "funk-quadratic", "randers")


def _json_ready(value):
    """Strict JSON data: numpy as Python, a non-finite float as "nan"/"inf"/"-inf"."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _json_ready(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def dump_json(payload) -> str:
    return json.dumps(_json_ready(payload), sort_keys=True, indent=2, allow_nan=False)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _read_json(path, what):
    """The JSON object in the file at path; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return value


def _write_text(path, text, out):
    """text to the file at path, or to out when path is None."""
    if path is None:
        out.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header, rows, out):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n", out)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_metric(kind, n=2, k=1.0, spec=None):
    spec = spec or {}
    if kind == "euclidean":
        return EuclideanMetric(n)
    if kind == "klein":
        return klein_metric(n)
    if kind == "funk-ball":
        return funk_ball(n, k=k)
    if kind in ("funk-quadratic", "randers"):
        keys = ("alpha", "beta", "gamma") if kind == "funk-quadratic" else ("a", "b")
        for key in keys:
            if key not in spec:
                raise ConfigError(f"{kind} needs spec field '{key}'")
        try:
            arrays = [np.asarray(spec[key], dtype=float) for key in keys[:2]]
            scalars = [float(spec["gamma"]), float(spec.get("k", k))] if len(keys) == 3 else []
        except (TypeError, ValueError, OverflowError) as exc:  # 10**400 overflows a float
            raise ConfigError(f"{kind} spec: {exc}") from None
        if kind == "randers":
            return randers_metric(RandersSpec(n, *arrays))
        return funk_from_quadratic(QuadraticDomainSpec(*arrays, *scalars))
    raise ConfigError(f"unknown metric kind '{kind}'; choose from {METRIC_KINDS}")


def _metric_from_args(args):
    spec = getattr(args, "spec_blob", None)
    if spec is None and getattr(args, "spec", None):
        spec = _read_json(args.spec, "spec")
    return build_metric(args.metric, n=args.n, k=args.k, spec=spec)


def _add_metric_options(p, default="klein"):
    p.add_argument("--metric", default=default, choices=METRIC_KINDS)
    p.add_argument("--n", type=int, default=2, help="chart dimension")
    p.add_argument("--k", type=float, default=1.0, help="Funk constant")
    p.add_argument("--spec", help="JSON file with quadratic/randers parameters")


def _emit(args, payload, out):
    _write_text(getattr(args, "json", None) or None, dump_json(payload) + "\n", out)


# ----------------------------------------------------------------------
# subcommand handlers; each returns the exit code
# ----------------------------------------------------------------------

def cmd_validate(args, out):
    metric = _metric_from_args(args)
    rng = np.random.default_rng(args.seed)
    elements = metric.random_line_elements(args.samples, rng)
    homog = validate_homogeneity(
        metric, [(x, y, float(rng.uniform(0.1, 10.0))) for x, y in elements],
        tolerance=args.tolerance)
    convex = validate_strong_convexity(metric, elements)
    payload = {"metric": metric.name, "samples": args.samples, "seed": args.seed,
               "homogeneity": homog.to_dict(), "strong_convexity": convex.to_dict()}
    _emit(args, payload, out)
    return 0 if homog.passed and convex.passed else 2


def cmd_geodesic(args, out):
    metric = _metric_from_args(args)
    if args.connect:
        if args.x1 is None:
            raise ConfigError("--connect needs --x1")
        result = connect(metric, np.asarray(args.x0), np.asarray(args.x1),
                         tol=args.tol)
        payload = {"length": result.segment.length, "miss": result.miss,
                   "iterations": result.iterations,
                   "unit_speed_drift": result.segment.unit_speed_drift()}
        seg = result.segment
    else:
        if args.y0 is None:
            raise ConfigError("geodesic integration needs --y0")
        seg = integrate_geodesic(metric, np.asarray(args.x0), np.asarray(args.y0),
                                 args.length)
        payload = {"length": seg.length, "truncated": seg.truncated,
                   "endpoint": seg.position(seg.s_max).tolist(),
                   "unit_speed_drift": seg.unit_speed_drift()}
    if args.csv is not None:  # before the report, so a failed write prints none
        n = metric.dimension
        header = (["s"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["F"])
        rows = [[s, *xx, *vv, metric.norm(xx, vv)] for s, xx, vv in seg.samples]
        write_csv(args.csv, header, rows, out)
    _emit(args, payload, out)
    return 0


def cmd_curvature(args, out):
    metric = _metric_from_args(args)
    rng = np.random.default_rng(args.seed)
    payload = {"metric": metric.name, "seed": args.seed}
    code = 0
    if args.x is not None and args.y is not None:
        data = ricci_tensor(metric, np.asarray(args.x), np.asarray(args.y))
        payload["line_element"] = {
            "x": list(args.x), "y": list(args.y), "ricci_scalar": data.ric,
            "ricci_tensor": data.ric_tensor.tolist(),
            "contraction_residual": data.contraction_residual}
    samples = metric.random_line_elements(args.samples, rng)
    shown = samples[: min(len(samples), 8)]
    rics = ricci_scalar_batch(metric, [x for x, _ in shown], [y for _, y in shown])
    payload["ricci_scalar_samples"] = [
        {"x": x.tolist(), "y": y.tolist(), "ric": ric}
        for (x, y), ric in zip(shown, rics.tolist())]
    if args.check_bound:
        if args.c is None:
            raise ConfigError("--check-bound needs --c")
        report = check_ricci_bound(metric, samples, args.c)
        payload["ricci_bound"] = report.to_dict()
        if not report.passed:
            code = 2
    _emit(args, payload, out)
    return code


def cmd_projparam(args, out):
    metric = _metric_from_args(args)
    seg = extend_geodesic(metric, np.asarray(args.x0), np.asarray(args.y0),
                          cap=args.cap)
    par = projective_parameter(metric, seg)
    payload = {"metric": metric.name, "s_min": seg.s_min, "s_max": seg.s_max,
               "poles": par.poles, "wronskian_drift": par.wronskian_drift(),
               "chart_range": list(par.chart_range(0.0))}
    if args.csv is not None:  # before the report, so a failed write prints none
        ss = np.linspace(seg.s_min, seg.s_max, args.grid)
        rows = []
        for s in ss:
            w1, dw1, w2, dw2 = par.basis(s)
            q = float(np.interp(s, par.s_grid, par.q_values))
            try:
                pi = par.value(s)
            except FinslerError:
                pi = math.nan
            rows.append([s, q, w1, w2, pi])
        write_csv(args.csv, ["s", "q", "w1", "w2", "pi"], rows, out)
    _emit(args, payload, out)
    return 0


def cmd_funk(args, out):
    if args.interval:
        if args.a is None or args.b is None:
            raise ConfigError("--interval needs --a and --b")
        out.write(f"{dist.funk_distance_interval(args.a, args.b, args.k):.6f}\n")
        return 0
    if args.eval_u is not None:
        out.write(f"{interval_funk_eval(args.eval_u, args.eval_y, args.k):.6f}\n")
        return 0
    if args.x is not None and args.y is not None:
        metric = _metric_from_args(args)
        out.write(f"{metric.norm(np.asarray(args.x), np.asarray(args.y)):.6f}\n")
        return 0
    raise ConfigError("funk needs --interval, --eval-u/--eval-y, or --x/--y")


def cmd_pseudodist(args, out):
    metric = _metric_from_args(args)
    options = dist.PseudoDistanceOptions(segments=args.segments, budget=args.budget,
                                         k=args.k, c=args.c)
    report = dist.pseudo_distance_upper(metric, np.asarray(args.x0),
                                        np.asarray(args.x1), options)
    payload = {"metric": metric.name, "report": report.to_dict()}
    code = 0
    flagged = False
    if args.check_schwarz or args.check_corollary:
        if args.c is None:
            raise ConfigError("the checkers need --c")
        clink = report.canonical_chain.links[0]
        if args.check_schwarz:
            grid = np.linspace(-args.grid_extent, args.grid_extent, args.grid)
            schwarz = dist.schwarz_ratio(metric, clink, grid, args.c)
            payload["schwarz"] = schwarz.to_dict()
            flagged |= not schwarz.passed
            if args.csv is not None:
                write_csv(args.csv, ["u", "h"],
                          list(zip(schwarz.grid, schwarz.h_values)), out)
        if args.check_corollary:
            cor = dist.corollary_check(metric, clink, args.c)
            payload["corollary"] = cor.to_dict()
            flagged |= not cor.passed
    if report.hypothesis_passed is not None and report.estimate_above_lower_bound is False:
        flagged = True
    if flagged:
        code = 2
    _emit(args, payload, out)
    return code


def cmd_verify_all(args, out):
    results = run_all(progress=lambda line: out.write(line + "\n"))
    payload = {"passed": all(r.passed for r in results),
               "criteria": [r.to_dict() for r in results]}
    _emit(args, payload, out)
    return 0 if payload["passed"] else 2


@dataclass(frozen=True)
class RunConfig:
    """Deserialized batch configuration: a metric, a command, a seed."""

    metric: dict
    command: dict
    seed: int = 0

    @classmethod
    def from_file(cls, path):
        raw = _read_json(path, "config")
        command, metric, seed = raw.get("command"), raw.get("metric", {}), raw.get("seed", 0)
        if not isinstance(command, dict):
            raise ConfigError("config needs a top-level 'command' object")
        if not isinstance(command.get("name"), str):
            raise ConfigError("config field 'command.name' is required, as a string")
        if not isinstance(metric, dict):
            raise ConfigError("config field 'metric' must be an object")
        if type(seed) is not int:
            raise ConfigError(f"config field 'seed' must be an integer, got {seed!r}")
        return cls(metric=metric, command=command, seed=seed)

    def to_argv(self):
        """(argv, leftover-spec-fields) equivalent to this configuration."""
        name = self.command["name"]
        if name not in _COMMANDS:
            raise ConfigError(f"unknown command '{name}' in config")
        argv = [name]
        spec_blob = None
        metric = dict(self.metric)
        if metric:
            kind = metric.pop("kind", None)
            if kind is None:
                raise ConfigError("config field 'metric.kind' is required")
            argv += ["--metric", str(kind)]
            if "n" in metric:
                argv += ["--n", str(metric.pop("n"))]
            if "k" in metric:
                argv += ["--k", str(metric.pop("k"))]
            spec_blob = metric or None
        for key, value in self.command.items():
            if key == "name":
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            elif isinstance(value, (list, tuple)):
                argv.append(flag)
                argv += [str(v) for v in value]
            else:
                argv += [flag, str(value)]
        if name in ("validate", "curvature"):  # the commands that sample
            argv += ["--seed", str(self.seed)]
        return argv, spec_blob


def cmd_run(args, out):
    config = RunConfig.from_file(args.config)
    argv, spec_blob = config.to_argv()
    inner = build_parser().parse_args(argv)
    inner.spec_blob = spec_blob  # in memory; it takes precedence over --spec
    return inner.handler(inner, out)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _point_arg(p, name, required=True, help=""):
    p.add_argument(name, type=float, nargs="+", required=required, help=help)


def _sample_count(text):
    count = int(text)
    if count < 1:  # an empty sample set would pass or fail vacuously
        raise argparse.ArgumentTypeError(f"needs at least 1 sample, got {count}")
    return count


def _grid_size(text):
    count = int(text)
    if count < 2:  # a table needs both ends of its range
        raise argparse.ArgumentTypeError(f"needs a grid of at least 2 points, got {count}")
    return count


def build_parser():
    parser = _Parser(prog="finslerproj",
                     description="projective invariants of Finsler metrics")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="metric axiom validators")
    _add_metric_options(p)
    p.add_argument("--samples", type=_sample_count, default=200)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the report to this path")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("geodesic", help="initial- or boundary-value geodesics")
    _add_metric_options(p)
    _point_arg(p, "--x0")
    p.add_argument("--y0", type=float, nargs="+", help="initial direction (IVP)")
    p.add_argument("--x1", type=float, nargs="+", help="target point (BVP)")
    p.add_argument("--connect", action="store_true")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--csv", help="write the sampled trace to this path")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser("curvature", help="Ricci data and the bound checker")
    _add_metric_options(p)
    p.add_argument("--x", type=float, nargs="+")
    p.add_argument("--y", type=float, nargs="+")
    p.add_argument("--samples", type=_sample_count, default=20)
    p.add_argument("--check-bound", action="store_true")
    p.add_argument("--c", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(handler=cmd_curvature)

    p = sub.add_parser("projparam", help="projective normal parameter tables")
    _add_metric_options(p)
    _point_arg(p, "--x0")
    p.add_argument("--y0", type=float, nargs="+", required=True)
    p.add_argument("--cap", type=float, default=20.0)
    p.add_argument("--grid", type=_grid_size, default=201)
    p.add_argument("--csv")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_projparam)

    p = sub.add_parser("funk", help="Funk evaluations and interval distances")
    _add_metric_options(p, default="funk-ball")
    p.add_argument("--interval", action="store_true")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--eval-u", dest="eval_u", type=float)
    p.add_argument("--eval-y", dest="eval_y", type=float, default=1.0)
    p.add_argument("--x", type=float, nargs="+")
    p.add_argument("--y", type=float, nargs="+")
    p.set_defaults(handler=cmd_funk)

    p = sub.add_parser("pseudodist", help="pseudo-distance upper estimator")
    _add_metric_options(p)
    _point_arg(p, "--x0")
    _point_arg(p, "--x1")
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--budget", type=int, default=48)
    p.add_argument("--c", type=float)
    p.add_argument("--check-schwarz", action="store_true")
    p.add_argument("--check-corollary", action="store_true")
    p.add_argument("--grid-extent", type=float, default=0.9)
    p.add_argument("--grid", type=_grid_size, default=13)
    p.add_argument("--csv", help="write the h(u) table next to --check-schwarz")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_pseudodist)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--json", help="write the summary to this path")
    p.set_defaults(handler=cmd_verify_all)

    p = sub.add_parser("run", help="execute a JSON batch configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_run)

    return parser


_COMMANDS = {"validate", "geodesic", "curvature", "projparam", "funk",
             "pseudodist", "verify-all"}


def run_args(argv, capture=False):
    """Parse and execute; returns (exit_code, captured_text)."""
    import io

    out = io.StringIO() if capture else sys.stdout
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        # an input such as 1e300 overflows before its one-line rejection
        with np.errstate(all="ignore"):
            code = args.handler(args, out)
    except ConfigError as exc:
        message = f"error: config: {exc}"
        print(message, file=sys.stderr)
        return 1, (out.getvalue() if capture else "")
    except FinslerError as exc:
        message = f"error: {type(exc).__name__}: {exc}"
        print(message, file=sys.stderr)
        return 1, (out.getvalue() if capture else "")
    return code, (out.getvalue() if capture else "")


def main():
    sys.exit(run_args(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
