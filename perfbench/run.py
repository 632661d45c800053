"""finslerproj benchmark runner.

    python3 perfbench/run.py --workload {bvp,curvature,chain} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One single-threaded process sends each operation after the previous one
returns (closed loop). The run repeats whole rounds of the workload's fixed
operation set until --seconds have passed; every operation's output is
checked against closed-form oracles outside the timed region.

An operation's time is its CPU seconds divided by the mean CPU seconds of a
fixed reference snippet timed right before and right after it (unit "ref";
see reference.py for why).

--trace 0 reports the end-to-end metrics: the set-up time (the median of
four fresh processes after the rounds, each scaled by the mean of the fresh
imports of numpy and scipy.integrate timed right before and right after
it), the mean over rounds of the round's time (the sum over its
operations), the median time of each kind of operation (ops with the same
label) averaged over the kinds, and the peak resident memory. --trace 1
runs every round traced and reports the per-layer metrics per round, in
CPU seconds and counts, plus the tracing's own cost per round.

The last line of stdout is one JSON object. --workload all runs every
workload both ways in child processes and prints each metric by name with
its unit.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bvp", "curvature", "chain")
# CPU seconds of importing numpy and scipy.integrate on the machine in
# README.md when it is not contended: set-up times are scaled to this speed
BASE_IMPORT_S = 0.45

SPAN_METRICS = [
    "geodesics.connect", "geodesics.integrate", "geodesics.extend",
    "curvature.ricci_scalar", "curvature.ricci_tensor", "curvature.check_ricci_bound",
    "diffengine.fundamental_tensor", "projective.projective_parameter",
    "distance.pseudo_distance_upper",
]
COUNT_METRICS = [
    "geodesics.connect.shots", "geodesics.ode_nfev", "geodesics.spray_evals",
    "curvature.spray_jet_evals", "projective.q_samples", "projective.ode_nfev",
    "distance.chart_search_evals", "core.norm_evals",
]


def measure_setup(workload, seed, count):
    """`count` fresh-process imports plus workload construction, each in
    seconds at the base-import speed: its CPU seconds times BASE_IMPORT_S
    over the mean of those of the fresh base imports timed right before
    and right after it."""
    def probe(*args):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                             capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)

    bases = [probe("base")]
    setups = []
    for _ in range(count):
        setups.append(probe(workload, str(seed)))
        bases.append(probe("base"))
    return [2.0 * s * BASE_IMPORT_S / (b0 + b1) for s, b0, b1 in zip(setups, bases, bases[1:])]


class Tally:
    """Attempted and failed operations, failures by exception type, wrong
    values with their residuals, and inputs redrawn after the boundary
    fault."""

    MAX_REDRAWS = 5

    def __init__(self):
        self.attempted = 0
        self.errors = Counter()
        self.wrong = []
        self.redrawn = Counter()

    @property
    def failed(self):
        return sum(self.errors.values()) + len(self.wrong)

    def run(self, op, context):
        """Time one operation inside `context`, then check it outside;
        returns its CPU seconds. An operation that hits the boundary fault
        runs again on its next input; only the last attempt is timed."""
        import workloads

        self.attempted += 1
        with context:
            for attempt in range(self.MAX_REDRAWS + 1):
                start = time.process_time()
                try:
                    result = op.run()
                    break
                except Exception as exc:  # a failed operation, recorded by type
                    elapsed = time.process_time() - start
                    if (op.redraw is not None and attempt < self.MAX_REDRAWS
                            and workloads.boundary_fault(exc)):
                        self.redrawn[op.label] += 1
                        op = op.redraw()
                        continue
                    self.errors[f"{type(exc).__name__} ({op.label})"] += 1
                    return elapsed
            elapsed = time.process_time() - start
        wrong = op.check(result)
        if wrong:
            self.wrong.append((op.label, wrong))
        return elapsed


def run_rounds(workload, seconds, tally, tracer=None):
    """Whole rounds until `seconds` pass, traced when a tracer is given.

    Returns each round's (label, time in reference units) per operation.
    """
    import reference

    rounds = []
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        ratios = []
        before = reference.seconds()
        for op in workload.round_ops(r):
            context = tracer.active(workload.metrics) if tracer else nullcontext()
            t = tally.run(op, context)
            after = reference.seconds()
            ratios.append((op.label, 2.0 * t / (before + after)))
            before = after
        rounds.append(ratios)
        r += 1
        if time.perf_counter() >= deadline:
            return rounds


def op_p50(rounds):
    """The median time of each kind of operation, averaged over the kinds.

    A workload's kinds differ in cost up to tenfold, so a median over all
    its operations falls between their clusters and moves with each draw.
    """
    by_label = {}
    for r in rounds:
        for label, t in r:
            by_label.setdefault(label, []).append(t)
    return statistics.fmean(statistics.median(ts) for ts in by_label.values())


def layer_metrics(tracer, count):
    """The per-layer metrics per round of `count` traced rounds."""
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.self_s"] = (tracer.self_s[name] / count, "s")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts[name] / count, "count")
    out["curvature.ricci_scalar.calls"] = (tracer.calls["curvature.ricci_scalar"] / count, "count")
    solves = tracer.calls["geodesics.connect"]
    shots = tracer.counts["geodesics.connect.shots"]
    out["geodesics.connect.shots_per_solve"] = (shots / solves if solves else 0.0, "shots/solve")
    out["trace.overhead_s"] = (tracer.overhead_s() / count, "s")
    return out


def run_workload(args):
    import finslerproj
    env.check_import(finslerproj)
    import workloads
    workload = workloads.build(args.workload, args.seed)

    tally = Tally()
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        rounds = run_rounds(workload, args.seconds, tally, tracer)
        metrics = layer_metrics(tracer, len(rounds))
    else:
        rounds = run_rounds(workload, args.seconds, tally)
        metrics = {
            "setup_s": (statistics.median(measure_setup(args.workload, args.seed, 4)), "s"),
            "round_ref": (statistics.fmean(sum(t for _, t in r) for r in rounds), "ref"),
            "op_p50_ref": (op_p50(rounds), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {tally.attempted} operations, {tally.failed} failed", file=log)
    for kind, count in sorted(tally.errors.items()):
        print(f"  raised {kind}: {count}", file=log)
    for label, count in sorted(tally.redrawn.items()):
        print(f"  redrawn after the boundary fault, {label}: {count}", file=log)
    for label, wrong in tally.wrong[:20]:
        for quantity, residual, tol in wrong:
            print(f"  wrong {label}: {quantity} residual {residual:.3e} > {tol:.1e}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=log)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Every workload untraced and traced, each in its own child process."""
    ok = True
    print(f"{'workload':<10} {'run':<9} {'metric':<42} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            run = "traced" if trace else "untraced"
            ok &= result["correct"]
            print(f"{workload:<10} {run:<9} {'attempted / failed':<42} "
                  f"{result['attempted']:>7} / {result['failed']:<4}  ops")
            for name, m in result["metrics"].items():
                print(f"{workload:<10} {run:<9} {name:<42} {m['value']:>14.6g}  {m['unit']}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env.prepare()
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
