#!/usr/bin/env python3
"""Compares two loopbench builds over alternating pairs of runs.

Run from the repository root, after loopbench/run.py has built both trees:

  python3 tools/bench_pairs.py --parent DIR --change DIR --workload read-hit \\
      [--pairs 10] [--seconds 30] [--first-seed 501]

DIR is a loopbench build root, the directory loopbench/run.py builds into
($CARGO_TARGET_DIR, default .bench_build); its binary is DIR/loopbench/loopbench.
Build each tree from its own checkout, for example

  (cd /path/to/parent && CARGO_TARGET_DIR=/tmp/parent_bb \\
     python3 loopbench/run.py --workload read-hit --seconds 1)

Pair i runs seed first_seed + i on both builds, untraced, with the arguments
run.py would pass; the parent goes first on odd seeds and the change first on
even ones. Each run's end-to-end metrics (the ones BENCHMARK.json names,
scaled as run.py reports them) are printed as it ends. Then, for every
metric: each side's median and interquartile range, the relative change of
the medians, the pairs the change won (ties count for neither side), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether the runs support claiming a gain (the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's IQR). The last line is one JSON object with every run.

Exit status: 0 when every run was correct with no failed operation; 1 when
a run fails, reports a failed operation or an output-check failure.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "loopbench"))
sys.dont_write_bytecode = True  # leave loopbench/ as it is
import run as loopbench  # noqa: E402  (loopbench/run.py, used read-only)


def run_once(build, workload, seed, seconds):
    binary = os.path.join(build, "loopbench", "loopbench")
    if not os.path.exists(binary):
        loopbench.fail(f"no binary at {binary}; build it with loopbench/run.py")
    _, result = loopbench.run_binary(
        binary, loopbench.bench_args(workload, seed, seconds, False, build),
        build, loopbench.RUN_BUDGET_S)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric, parent, change):
    better_low = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum((c < p) if better_low else (c > p)
               for p, c in zip(parent, change))
    rel = (c_med - p_med) / p_med if p_med else 0.0
    worse = rel if better_low else -rel
    gain = (wins >= 0.9 * len(parent) and -worse > 0
            and abs(c_med - p_med) > p_q3 - p_q1)
    return {
        "metric": metric["name"], "unit": metric["unit"],
        "parent_median": p_med, "parent_iqr": p_q3 - p_q1,
        "change_median": c_med, "change_iqr": c_q3 - c_q1,
        "change_pct": 100 * rel, "pairs_won": wins, "pairs": len(parent),
        "over_bound": worse > metric["bound"], "gain": gain,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    contract = loopbench.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        loopbench.fail(f"--workload must be one of {names}")
    if args.pairs < 1:
        loopbench.fail("--pairs must be at least 1")
    seconds = args.seconds or contract["run_seconds"]
    metrics = contract["end_to_end"]
    builds = {"parent": os.path.abspath(args.parent),
              "change": os.path.abspath(args.change)}

    runs = []
    healthy = True
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(builds[side], args.workload, seed, seconds)
            values = {m["name"]: result["metrics"][m["name"]]["value"]
                      for m in metrics}
            runs.append({"side": side, "seed": seed,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            healthy = healthy and result["correct"] and result["failed"] == 0
            shown = " ".join(f"{k}={v:.4g}" for k, v in values.items())
            print(f"seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}",
                  flush=True)

    def series(side, name):
        return [r["metrics"][name] for r in sorted(runs, key=lambda r: r["seed"])
                if r["side"] == side]

    rows = [summarize(m, series("parent", m["name"]),
                      series("change", m["name"])) for m in metrics]
    print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    print(f"{'metric':<15} {'parent [IQR]':>22} {'change [IQR]':>22} "
          f"{'change':>8} {'won':>6}  verdict")
    for row in rows:
        verdict = ("WORSE THAN BOUND" if row["over_bound"]
                   else "gain" if row["gain"] else "-")
        print(f"{row['metric']:<15} "
              f"{row['parent_median']:>11.4g} [{row['parent_iqr']:>8.3g}] "
              f"{row['change_median']:>11.4g} [{row['change_iqr']:>8.3g}] "
              f"{row['change_pct']:>+7.1f}% "
              f"{row['pairs_won']:>2}/{row['pairs']:<3}  {verdict}")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "summary": rows, "runs": runs}))
    sys.exit(0 if healthy else 1)


if __name__ == "__main__":
    main()
