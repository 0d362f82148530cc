"""Run the benchmark over several seeds and print each metric's median and
spread (distance between the first and third quartiles over the median).

    python3 perfbench/summary.py --seeds 1-10 [--workloads level_fp,suites] [--trace 1]

Run from the repository root. Runs are sequential; each is one
`perfbench/run.py` invocation with BENCHMARK.json's run_seconds. Spreads
above a third of a metric's bound are marked "!".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
        print(f"{workload}: {attempted} jobs, {failed} wrong, seeds {args.seeds}")
        for name, (vals, unit) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "!" if bound and spread > bound / 3 else " "
            print(f"  {name:40s} median {med:12.6g} {unit:6s} spread {100 * spread:6.2f}% {flag}"
                  + (f" (bound {100 * bound:.0f}%)" if bound else ""))
        sys.stdout.flush()
        status |= 1 if failed else 0
    return status


if __name__ == "__main__":
    sys.exit(main())
