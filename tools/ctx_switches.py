#!/usr/bin/env python3
"""Counts context switches and CPU time per operation of one loopbench workload.

Run from the repository root, after loopbench/run.py has built the binary:

  python3 tools/ctx_switches.py --workload write-share [--seed 1] [--seconds 10]

It runs the loopbench binary from loopbench/run.py's build tree
($CARGO_TARGET_DIR or .bench_build) untraced, with the arguments run.py would
pass, and reads the child's voluntary and involuntary context switches with
getrusage(RUSAGE_CHILDREN), along with the user and system CPU time the same
call reports. The figures cover the whole process (set-ups and the reference
round trips included), are raw (not scaled by the reference round trip) and
are divided by the ops the run attempted. Prints one line per figure and,
last, one JSON object.

Exit status: 0 with a result; 1 when the binary is missing or the run fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "loopbench"))
sys.dont_write_bytecode = True  # leave loopbench/ as it is
import run as loopbench  # noqa: E402  (loopbench/run.py, used read-only)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    build = loopbench.build_dir()
    binary = os.path.join(build, "loopbench", "loopbench")
    if not os.path.exists(binary):
        loopbench.fail(f"no binary at {binary}; run loopbench/run.py first")
    command = [binary] + loopbench.bench_args(args.workload, args.seed,
                                              args.seconds, False, build)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command, capture_output=True, text=True,
                          env=loopbench.child_env(build))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        loopbench.fail(f"benchmark printed no result (exit {done.returncode})")
    ops = result["attempted"]
    voluntary = after.ru_nvcsw - before.ru_nvcsw
    involuntary = after.ru_nivcsw - before.ru_nivcsw
    user_us = (after.ru_utime - before.ru_utime) * 1e6
    sys_us = (after.ru_stime - before.ru_stime) * 1e6
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" ops={ops} failed={result['failed']}")
    print(f"voluntary:   {voluntary} ({voluntary / ops:.3f} per op)")
    print(f"involuntary: {involuntary} ({involuntary / ops:.3f} per op)")
    print(f"user cpu:    {user_us / 1e6:.3f} s ({user_us / ops:.3f} us per op)")
    print(f"system cpu:  {sys_us / 1e6:.3f} s ({sys_us / ops:.3f} us per op)")
    print(json.dumps({"workload": args.workload, "ops": ops,
                      "failed": result["failed"],
                      "voluntary_per_op": voluntary / ops,
                      "involuntary_per_op": involuntary / ops,
                      "user_us_per_op": user_us / ops,
                      "sys_us_per_op": sys_us / ops}))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
