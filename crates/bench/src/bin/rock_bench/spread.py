#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json declares them.

Makes two sets of runs of the benchmark command from BENCHMARK.json, one
after the other, each run untraced with its own seed (set 1 takes seeds
1 .. runs, set 2 the next runs seeds) and run_seconds long. Prints, per
set, workload and metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median;
then how far set 2's median is from set 1's, in the metric's worse
direction.

    python3 crates/bench/src/bin/rock_bench/spread.py --runs 10

Run it from the repository root. Exit code 1 when a run fails, when a
spread exceeds its metric's bound, or when set 2's median is worse than
set 1's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, seeds):
    """Runs every workload once per seed. Returns {workload: {metric: [values]}}
    and whether every run succeeded."""
    ok = True
    values = {}
    for w in (w["name"] for w in bench["workloads"]):
        values[w] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
                ok = False
            for name, v in values[w].items():
                v.append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values[w].items()), flush=True)
    return values, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set, one seed each")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    sets = []
    for s in range(2):
        first = 1 + s * args.runs
        values, ran = run_set(bench, range(first, first + args.runs))
        ok = ok and ran
        sets.append(values)

    for w in sets[0]:
        for m in bench["end_to_end"]:
            medians = []
            for s, values in enumerate(sets):
                v = values[w][m["name"]]
                if len(v) < 2:
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                ok = ok and spread <= m["bound"]
                medians.append(med)
                flag = "  OVER" if spread > m["bound"] else (
                    "  over a third" if spread > m["bound"] / 3 else "")
                print(f"  set {s + 1} {w:<13} {m['name']:<15} median {med:<14.6g} "
                      f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f} "
                      f"bound {m['bound']:.2f}{flag}")
            if len(medians) == 2:
                ratio = medians[1] / medians[0]
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                ok = ok and worse <= m["bound"]
                print(f"  set 2 / set 1 {w:<13} {m['name']:<15} {ratio:.4f}"
                      f"{'  WORSE THAN BOUND' if worse > m['bound'] else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
