"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py

Runs `run.py --trace 0` once per workload and seed 1 to 10, one after
another, for BENCHMARK.json's `run_seconds` each, and prints for each metric
the median, the first and third quartiles (`statistics.quantiles(values,
n=4)`) and the spread (Q3 - Q1) / median against a third of the metric's
bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS

SEEDS = range(1, 11)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<14} median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / med:.4f}  (bound/3 {bounds[name] / 3:.4f})", flush=True)


if __name__ == "__main__":
    main()
