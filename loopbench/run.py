#!/usr/bin/env python3
"""Builds and runs the loopback end-to-end benchmark.

Run from the repository root:

  python3 loopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 loopbench/run.py --smoke

The first form builds loopbench (its own CMake package, compiling the lease
runtime from src/) into $CARGO_TARGET_DIR or .bench_build, runs one workload,
checks that every metric BENCHMARK.json names for that mode is present with
its unit, and prints the benchmark's report with the result JSON as the last
line. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
the result holds exactly the metrics BENCHMARK.json names (the report above
it prints more, such as the p99 latencies with their sample counts). Times in
the result are scaled to a nominal host by a reference round trip timed
beside the workload (reference.h); the report prints them unscaled as well.

--smoke runs every workload for one second in both modes and checks that
each named metric is printed with its unit, that every end-to-end metric is
above 0, and that the output check ran.

Exit status: 0 with a result, 1 when the build, the run or the result check
fails (no result is printed then).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 175  # a run must end within 180 s once built


def fail(message):
    print(f"loopbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env(build):
    # Keep compiler and runtime scratch files inside the checkout.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(build):
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = os.path.join(build, "loopbench")
    env = child_env(build)
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "loopbench", "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(tree, "loopbench")
    if not os.path.exists(binary):
        fail("build produced no binary")
    return binary


def run_binary(binary, args, build, timeout):
    env = child_env(build)
    try:
        done = subprocess.run([binary] + args, capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        fail(f"benchmark did not finish within {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail(f"benchmark printed no result (exit {done.returncode})")
    return lines, result


def check_result(result, expected, positive):
    """Returns the problems with `result` against [(name, unit), ...].

    With `positive`, every metric must also be above 0 (end-to-end metrics
    never read 0, so a 0 is a metric the run failed to measure).
    """
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        problems.append("failed is not a whole number")
    metrics = result.get("metrics", {})
    for name, unit in expected:
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"metric {name} missing")
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
        elif positive and value <= 0:
            problems.append(f"metric {name} is {value}, not above 0")
        if metric.get("unit") != unit:
            problems.append(f"metric {name} unit {metric.get('unit')!r}, "
                            f"expected {unit!r}")
    return problems


def expected_metrics(contract, trace):
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in contract[key]]


def bench_args(workload, seed, seconds, trace, build):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", os.path.join(build, "work")]
    if trace:
        args += ["--trace-out",
                 os.path.join(build, "traces", f"{workload}-seed{seed}.csv")]
    return args


def smoke(contract, binary, build):
    failures = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (False, True):
            lines, result = run_binary(
                binary,
                bench_args(workload, 1, 1, trace, build),
                build, RUN_BUDGET_S)
            problems = check_result(result, expected_metrics(contract, trace),
                                    positive=not trace)
            checked = [l for l in lines if l.startswith("untraced: error_rate")]
            if not result.get("correct"):
                problems.append("output check failed")
            if not checked or "checked 0 reads" in checked[0]:
                problems.append("output check did not run")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={int(trace)}: {status}")
            failures += bool(problems)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    contract = load_contract()
    build_root = build_dir()
    binary = build(build_root)
    if args.smoke:
        failures = smoke(contract, binary, build_root)
        print(f"smoke: {'passed' if failures == 0 else f'{failures} failed'}")
        sys.exit(1 if failures else 0)

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds or contract["run_seconds"]
    started = time.monotonic()
    lines, result = run_binary(
        binary, bench_args(args.workload, args.seed, seconds, args.trace,
                           build_root),
        build_root, RUN_BUDGET_S)
    expected = expected_metrics(contract, args.trace)
    problems = check_result(result, expected, positive=not args.trace)
    if problems:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("bad result: " + "; ".join(problems))
    result["metrics"] = {name: result["metrics"][name] for name, _ in expected}
    print("\n".join(lines[:-1]))
    print(f"run: {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
