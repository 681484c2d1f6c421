#!/usr/bin/env python3
"""Counts context switches and CPU time per operation of one loopbench workload.

Run from the repository root, after loopbench/run.py has built the binary:

  python3 tools/ctx_switches.py --workload write-share [--seed 1] [--seconds 10] \\
      [--epoll]

It runs the loopbench binary from loopbench/run.py's build tree
($CARGO_TARGET_DIR or .bench_build) untraced, with the arguments run.py would
pass, and reads the child's voluntary and involuntary context switches with
getrusage(RUSAGE_CHILDREN), along with the user and system CPU time the same
call reports. The figures cover the whole process (set-ups and the reference
round trips included), are raw (not scaled by the reference round trip) and
are divided by the ops the run attempted. Prints one line per figure and,
last, one JSON object.

With --epoll the run also loads tools/epoll_count/interposer.c (compiled
into <build tree>/epoll_count, the way tools/cpu_profile builds its sampler)
with LD_PRELOAD, and runs in <build tree>/epoll_count/run, where the
interposer writes epoll_count.<pid> at exit. It then prints the epoll_wait
calls per op by epoll fd, by zero or nonzero timeout, by empty or non-empty
result, and by call site (function and source line from addr2line), plus
the zero-timeout totals. The switch and CPU figures of such a run include
the interposer's small cost.

Exit status: 0 with a result; 1 when the binary is missing or the run fails.
"""

import argparse
import json
import os
import collections
import importlib.util
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "loopbench"))
sys.dont_write_bytecode = True  # leave loopbench/ as it is
import run as loopbench  # noqa: E402  (loopbench/run.py, used read-only)

# tools/cpu_profile/profile.py, loaded by path: the standard library has a
# module named profile too.
_spec = importlib.util.spec_from_file_location(
    "cpu_profile", os.path.join(HERE, "cpu_profile", "profile.py"))
cpu_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cpu_profile)


def build_interposer(out_dir):
    source = os.path.join(HERE, "epoll_count", "interposer.c")
    library = os.path.join(out_dir, "libepoll_count.so")
    if (not os.path.exists(library)
            or os.path.getmtime(library) < os.path.getmtime(source)):
        done = subprocess.run(["cc", "-O2", "-fPIC", "-shared", "-o", library,
                               source, "-ldl"])
        if done.returncode != 0:
            loopbench.fail("building the epoll_wait interposer failed")
    return library


def read_epoll_dump(path):
    """Returns ([(fd, zero, non_empty, site, count)], mappings)."""
    counts = []
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["epoll_count", "overflow"]:
            loopbench.fail(f"{path} is not an epoll_count dump")
        if int(header[2]) > 0:
            print(f"epoll_count: {header[2]} calls not counted (table full)",
                  file=sys.stderr)
        for line in f:
            if line == "maps\n":
                break
            fd, zero, non_empty, site, count = line.split()
            counts.append((int(fd), zero == "1", non_empty == "1",
                           int(site, 16), int(count)))
        mappings = cpu_profile.read_mappings(f)
    return counts, mappings


def call_sites(sites, mappings):
    """Maps each return address to 'function file:line' of its call, or to
    'function +offset' (the call's offset in its file) without line
    information, so two calls in one function stay apart."""
    names = {}
    by_object = collections.defaultdict(list)
    for site in sites:
        path = next((m[3] for m in mappings if m[0] <= site < m[1]), None)
        if path is None or not path.startswith("/"):
            names[site] = f"{site:#x}"
        else:
            by_object[path].append(site)
    for path, addrs in by_object.items():
        bias = cpu_profile.load_bias(path, mappings) or 0
        # One byte back: the call instruction, not the one after it.
        done = subprocess.run(
            ["addr2line", "-f", "-C", "-s", "-e", path],
            input="".join(f"{a - 1 - bias:x}\n" for a in addrs),
            capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for i, addr in enumerate(addrs):
            function, where = (lines[2 * i:2 * i + 2] + ["??", "??"])[:2]
            function = function.split("(")[0]
            where = where.split(" ")[0]
            if where.startswith("??"):
                where = f"+{addr - 1 - bias:#x}"
            names[addr] = f"{function} {where}"
    return names


def report_epoll(dump, ops):
    counts, mappings = read_epoll_dump(dump)
    names = call_sites({c[3] for c in counts}, mappings)
    total = sum(c[4] for c in counts)
    print(f"epoll_wait: {total} calls ({total / ops:.3f} per op)")
    print("  fd timeout result     calls   per op  call site")
    rows = collections.Counter()
    for fd, zero, non_empty, site, count in counts:
        rows[(fd, zero, non_empty, names[site])] += count
    for (fd, zero, non_empty, site), count in sorted(rows.items()):
        print(f"  {fd:2d} {'zero' if zero else 'wait':7s} "
              f"{'events' if non_empty else 'empty':6s} {count:9d} "
              f"{count / ops:8.3f}  {site}")
    zero_calls = sum(c[4] for c in counts if c[1])
    zero_empty = sum(c[4] for c in counts if c[1] and not c[2])
    print(f"zero-timeout: {zero_calls / ops:.3f} per op, of which "
          f"{zero_empty / ops:.3f} found nothing")
    return {"epoll_wait_per_op": total / ops,
            "zero_timeout_per_op": zero_calls / ops,
            "zero_timeout_empty_per_op": zero_empty / ops,
            "epoll_wait": [{"fd": fd, "zero_timeout": zero,
                            "non_empty": non_empty, "site": site,
                            "per_op": count / ops}
                           for (fd, zero, non_empty, site), count
                           in sorted(rows.items())]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--epoll", action="store_true",
                        help="also count epoll_wait calls per op")
    args = parser.parse_args()

    build = loopbench.build_dir()
    binary = os.path.join(build, "loopbench", "loopbench")
    if not os.path.exists(binary):
        loopbench.fail(f"no binary at {binary}; run loopbench/run.py first")
    command = [binary] + loopbench.bench_args(args.workload, args.seed,
                                              args.seconds, False, build)
    env = loopbench.child_env(build)
    run_dir = None
    if args.epoll:
        out_dir = os.path.join(build, "epoll_count")
        os.makedirs(out_dir, exist_ok=True)
        env["LD_PRELOAD"] = build_interposer(out_dir)
        run_dir = os.path.join(out_dir, "run")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env,
                             cwd=run_dir)
    stdout, stderr = child.communicate()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(stderr)
        loopbench.fail(f"benchmark printed no result (exit {child.returncode})")
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
    summary = {"workload": args.workload, "ops": ops,
               "failed": result["failed"],
               "voluntary_per_op": voluntary / ops,
               "involuntary_per_op": involuntary / ops,
               "user_us_per_op": user_us / ops,
               "sys_us_per_op": sys_us / ops}
    if args.epoll:
        dump = os.path.join(run_dir, f"epoll_count.{child.pid}")
        if not os.path.exists(dump):
            loopbench.fail(f"no epoll_count dump (exit {child.returncode})")
        summary.update(report_epoll(dump, ops))
    print(json.dumps(summary))
    sys.exit(0 if child.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
