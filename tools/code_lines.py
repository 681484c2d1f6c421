#!/usr/bin/env python3
"""Counts code lines per directory at a git revision and in the worktree.

  python3 tools/code_lines.py REV [DIR...]

For each DIR (default: the repository's src) prints the code lines at REV, in the worktree
and the difference. A code line is a line of a source file that is neither
blank nor only comment: `//` and `/* ... */` in C and C++ files, `#` in
Python, shell and CMake files. Other files are not counted. The worktree
side counts tracked and untracked files that .gitignore does not exclude.
Run it from anywhere inside the repository.

Comment detection is line-based and does not parse string literals, so a
`//` or `/*` inside a string can hide the rest of its line; that costs both
sides alike.
"""

import os
import subprocess
import sys

C_LIKE = {".c", ".cc", ".cpp", ".h", ".hpp", ".inc"}
HASH = {".py", ".sh", ".cmake"}


def style(path):
    name = os.path.basename(path)
    ext = os.path.splitext(name)[1]
    if ext in C_LIKE:
        return "c"
    if ext in HASH or name == "CMakeLists.txt":
        return "hash"
    return None


def count_c(text):
    lines = 0
    in_block = False
    for line in text.splitlines():
        code = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                code.append(line[i])
                i += 1
        if "".join(code).strip():
            lines += 1
    return lines


def count_hash(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("#"))


def count(path, text):
    return count_c(text) if style(path) == "c" else count_hash(text)


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def at_revision(rev, directory):
    total = 0
    for path in git("ls-tree", "-r", "--name-only", rev, "--",
                    directory).splitlines():
        if style(path):
            total += count(path, git("show", f"{rev}:{path}"))
    return total


def in_worktree(directory):
    total = 0
    for path in git("ls-files", "--cached", "--others", "--exclude-standard",
                    "--", directory).splitlines():
        if style(path) and os.path.isfile(path):
            with open(path, encoding="utf-8", errors="replace") as f:
                total += count(path, f.read())
    return total


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) >= 2 else 2
    rev = argv[1]
    # DIRs are relative to the current directory; the default is the
    # repository's src.
    prefix = git("rev-parse", "--show-prefix").strip()
    directories = [os.path.normpath(os.path.join(prefix, d))
                   for d in argv[2:]] or ["src"]
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    width = max(len(d) for d in directories + ["total"])
    print(f"{'dir':<{width}}  {rev[:12]:>12}  {'worktree':>8}  {'change':>7}")
    before_sum = after_sum = 0
    for directory in directories:
        before = at_revision(rev, directory)
        after = in_worktree(directory)
        before_sum += before
        after_sum += after
        print(f"{directory:<{width}}  {before:>12}  {after:>8}  "
              f"{after - before:>+7}")
    if len(directories) > 1:
        print(f"{'total':<{width}}  {before_sum:>12}  {after_sum:>8}  "
              f"{after_sum - before_sum:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
