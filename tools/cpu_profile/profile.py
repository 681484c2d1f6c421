#!/usr/bin/env python3
"""Samples where a program spends its CPU time and prints each function's share.

Run from the repository root:

  python3 tools/cpu_profile/profile.py --workload write-share [--seed 1] \\
      [--seconds 5] [--top 25] [--focus FUNC]
  python3 tools/cpu_profile/profile.py --dump FILE [--top 25] [--focus FUNC]

The first form profiles one untraced loopbench run from loopbench/run.py's
build tree ($CARGO_TARGET_DIR or .bench_build; run run.py once first), with
the arguments run.py would pass. The second symbolizes a dump an earlier
run left.

The sampler is sampler.c, compiled here into <build tree>/cpu_profile and
loaded with LD_PRELOAD. It samples the call stack after every 1 ms of CPU
time the process uses, from whichever thread is running: loopbench pins
itself to one CPU, so each sample lands on the thread that was using it.
The benchmark runs in <build tree>/cpu_profile/run, where the sampler
writes cpu_profile.<pid> at exit.

Symbols come from addr2line, falling back to the nearest preceding symbol
nm lists. Libraries without debug information, such as libc, have only
their exported symbols, so libc internals are attributed to the nearest
exported symbol. The thread start frames (clone, start_thread and
libstdc++'s thread routine) therefore head the inclusive list under
unrelated names at ~90%, and a hot libc routine may wear a misleading
name: in the glibc this was written against, the memcpy behind a 4 KiB
vector copy showed as __nss_database_lookup. Code in the vDSO
(clock_gettime) shows as [vdso].

Prints the busiest threads' shares of the samples, then the top functions
by self share (the sampled instruction was in the function) and by
inclusive share (the function was anywhere on the stack), each as a
percentage of all samples.

--focus FUNC then looks at one function: every sample with a function
whose name contains FUNC on its stack (the innermost such frame counts).
It prints the names that matched, then the focus function's callers and
callees -- the frame just outside and just inside it, "(self)" when the
sampled instruction was in it -- each with its share of the focus samples
and of all samples.

Exit status: 0 with a report; 1 when the build, the run or the dump fails.
"""

import argparse
import bisect
import collections
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "loopbench"))
sys.dont_write_bytecode = True  # leave loopbench/ as it is
import run as loopbench  # noqa: E402  (loopbench/run.py, used read-only)


def fail(message):
    print(f"cpu_profile: {message}", file=sys.stderr)
    sys.exit(1)


def build_sampler(out_dir):
    source = os.path.join(HERE, "sampler.c")
    library = os.path.join(out_dir, "libcpu_sampler.so")
    if (not os.path.exists(library)
            or os.path.getmtime(library) < os.path.getmtime(source)):
        done = subprocess.run(["cc", "-O2", "-fPIC", "-shared", "-o", library,
                               source])
        if done.returncode != 0:
            fail("building the sampler failed")
    return library


def run_sampled(command, library, run_dir, env):
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env["LD_PRELOAD"] = library
    child = subprocess.Popen(command, cwd=run_dir, env=env,
                             stdout=subprocess.DEVNULL)
    code = child.wait()
    dump = os.path.join(run_dir, f"cpu_profile.{child.pid}")
    if not os.path.exists(dump):
        fail(f"no dump from {command[0]} (exit {code})")
    if code != 0:
        print(f"cpu_profile: {command[0]} exited {code}", file=sys.stderr)
    return dump


def read_dump(path):
    """Returns (samples, mappings): [(tid, [addr...])], [(start, end, offset,
    path)] for the executable mappings."""
    samples = []
    with open(path) as f:
        header = f.readline().split()
        if header[:1] != ["interval_us"]:
            fail(f"{path} is not a sampler dump")
        if int(header[5]) > 0:
            print(f"cpu_profile: {header[5]} samples dropped (buffer full)",
                  file=sys.stderr)
        for line in f:
            if line == "maps\n":
                break
            fields = line.split()
            samples.append((int(fields[0]), [int(a, 16) for a in fields[1:]]))
        mappings = read_mappings(f)
    return samples, mappings


def read_mappings(lines):
    """The executable mappings among /proc/self/maps `lines`, sorted:
    [(start, end, offset, path)]."""
    mappings = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6 or "x" not in fields[1]:
            continue
        start, end = (int(v, 16) for v in fields[0].split("-"))
        mappings.append((start, end, int(fields[2], 16), fields[5].strip()))
    return sorted(mappings)


def load_bias(path, mappings):
    """What to subtract from a runtime address to get the file's address."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return None
    if header[:4] != b"\x7fELF":
        return None
    if int.from_bytes(header[16:18], "little") == 2:  # ET_EXEC: fixed address
        return 0
    return min(start - offset for start, _, offset, p in mappings if p == path)


def nearest_symbols(path):
    """Sorted (address, name) of the defined symbols nm lists for `path`."""
    symbols = {}
    for extra in ([], ["-D"]):
        done = subprocess.run(["nm", "-C", "--defined-only"] + extra + [path],
                              capture_output=True, text=True)
        for line in done.stdout.splitlines():
            fields = line.split(maxsplit=2)
            if len(fields) == 3 and fields[1] in "tTwWiI":
                symbols.setdefault(int(fields[0], 16), fields[2])
    return sorted(symbols.items())


def symbolize(addresses, mappings):
    """Maps each runtime address to 'function (object)'."""
    starts = [m[0] for m in mappings]
    by_object = collections.defaultdict(list)
    names = {}
    for addr in addresses:
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= mappings[i][1]:
            names[addr] = "?? (unmapped)"
            continue
        by_object[mappings[i][3]].append(addr)
    for path, addrs in by_object.items():
        label = os.path.basename(path)
        bias = load_bias(path, mappings) if path.startswith("/") else None
        if bias is None:  # [vdso] and other file-less code
            for addr in addrs:
                names[addr] = path
            continue
        done = subprocess.run(
            ["addr2line", "-f", "-C", "-e", path],
            input="".join(f"{addr - bias:x}\n" for addr in addrs),
            capture_output=True, text=True)
        functions = done.stdout.splitlines()[0::2]
        symbols = None
        for addr, function in zip(addrs, functions):
            if function == "??":
                if symbols is None:
                    symbols = nearest_symbols(path)
                    symbol_addrs = [a for a, _ in symbols]
                j = bisect.bisect_right(symbol_addrs, addr - bias) - 1
                function = symbols[j][1] if j >= 0 else "??"
            names[addr] = f"{function} ({label})"
        for addr in addrs[len(functions):]:
            names[addr] = f"?? ({label})"
    return names


def report(dump, top, focus=None):
    samples, mappings = read_dump(dump)
    if not samples:
        fail("the dump holds no samples")
    # The innermost frame is the interrupted instruction; the rest are
    # return addresses, looked up one byte back so a call that ends its
    # function still names the caller.
    def lookup(frames):
        return [frames[0]] + [a - 1 for a in frames[1:]] if frames else []

    stacks = [(tid, lookup(frames)) for tid, frames in samples]
    names = symbolize({a for _, s in stacks for a in s}, mappings)
    total = len(stacks)
    threads = collections.Counter(tid for tid, _ in stacks)
    self_share = collections.Counter()
    inclusive = collections.Counter()
    for _, stack in stacks:
        functions = [names[a] for a in stack] or ["?? (no frames)"]
        self_share[functions[0]] += 1
        inclusive.update(set(functions))

    print(f"{total} samples, {len(threads)} threads; the busiest:")
    for tid, count in threads.most_common(8):
        print(f"  thread {tid}: {100 * count / total:5.1f}%")
    for title, counter in (("self", self_share), ("inclusive", inclusive)):
        print(f"\ntop {top} by {title} share:")
        for name, count in counter.most_common(top):
            print(f"  {100 * count / total:5.1f}%  {name}")
    if focus:
        report_focus([[names[a] for a in s] for _, s in stacks], focus, top)


def report_focus(stacks, focus, top):
    """Callers and callees of the innermost frame whose name holds `focus`."""
    matched = collections.Counter()
    callers = collections.Counter()
    callees = collections.Counter()
    for functions in stacks:
        i = next((i for i, f in enumerate(functions) if focus in f), None)
        if i is None:
            continue
        matched[functions[i]] += 1
        callers[functions[i + 1] if i + 1 < len(functions) else "(none)"] += 1
        callees[functions[i - 1] if i > 0 else "(self)"] += 1
    count = sum(matched.values())
    total = len(stacks)
    print(f"\nfocus {focus!r}: {count} samples, "
          f"{100 * count / total:.1f}% of all")
    if not count:
        return
    for title, counter in (("matched", matched), ("callers", callers),
                           ("callees", callees)):
        print(f"\n{title} (% of focus, % of all):")
        for name, n in counter.most_common(top):
            print(f"  {100 * n / count:5.1f}%  {100 * n / total:5.1f}%  {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload")
    source.add_argument("--dump")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--focus", metavar="FUNC")
    args = parser.parse_args()

    if args.dump:
        report(args.dump, args.top, args.focus)
        return
    build = loopbench.build_dir()
    binary = os.path.join(build, "loopbench", "loopbench")
    if not os.path.exists(binary):
        fail(f"no binary at {binary}; run loopbench/run.py first")
    out_dir = os.path.join(build, "cpu_profile")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary] + loopbench.bench_args(
        args.workload, args.seed, args.seconds, False, build)
    dump = run_sampled(command, build_sampler(out_dir),
                       os.path.join(out_dir, "run"), loopbench.child_env(build))
    report(dump, args.top, args.focus)


if __name__ == "__main__":
    main()
