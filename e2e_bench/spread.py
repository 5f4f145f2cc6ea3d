#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's median and
spread (interquartile distance as a share of the median), next to the
bound BENCHMARK.json sets for it.

    python3 e2e_bench/spread.py <workload> [runs=10] [seconds=BENCHMARK.json] [trace=0] [first_seed=1]

Run from the repository root.
"""
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    seconds = sys.argv[3] if len(sys.argv) > 3 else str(bench["run_seconds"])
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    first = int(sys.argv[5]) if len(sys.argv) > 5 else 1
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    steals = []
    for seed in range(first, first + runs):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        detail = json.load(open(f"e2e_bench/out/{workload}-trace{trace}.json"))
        steals.append(detail.get("steal_frac"))
    print(f"{workload}: {runs} runs of {seconds} s; hypervisor steal share per run:",
          " ".join("-" if x is None else f"{x:.3f}" for x in steals))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"  {name:32} median {med:14.6g}  spread {spread:8.4f}  bound {bound}{flag}")
        print("      " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
