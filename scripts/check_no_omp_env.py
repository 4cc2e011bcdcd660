#!/usr/bin/env python3
"""Fail if the build, test or CI configuration sets OpenMP runtime variables.

The DP solvers decide for themselves which levels are worth an OpenMP team
(src/dp/level_loop.hpp). A variable such as OMP_NUM_THREADS or
GOMP_SPINCOUNT exported from CMake, a ctest property or a CI workflow would
hide a regression of that policy from the test suite, so none may appear in:

  * any CMakeLists.txt or *.cmake file (ctest properties are set there),
  * CMakePresets.json,
  * .github/workflows/*.

Build trees (directories holding a CMakeCache.txt) and .git are skipped.

    python3 scripts/check_no_omp_env.py [--root DIR]

Exit status: 0 clean, 1 with one "path:line: text" per offending line.
"""

import argparse
import os
import sys

PATTERNS = ("OMP_", "GOMP_")
SKIPPED_DIRS = {".git", ".bench_build"}


def checked_files(root):
    """Every file under `root` the guard reads, as paths relative to it."""
    for dirpath, dirnames, filenames in os.walk(root):
        if "CMakeCache.txt" in filenames:
            dirnames[:] = []
            continue
        dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
        rel_dir = os.path.relpath(dirpath, root)
        in_workflows = rel_dir == os.path.join(".github", "workflows")
        for name in sorted(filenames):
            if (name == "CMakeLists.txt" or name.endswith(".cmake")
                    or (rel_dir == "." and name == "CMakePresets.json")
                    or in_workflows):
                yield os.path.normpath(os.path.join(rel_dir, name))


def violations(root):
    """(path, line number, line) for every line naming an OpenMP variable."""
    found = []
    for rel in checked_files(root):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            for number, line in enumerate(f, start=1):
                if any(p in line for p in PATTERNS):
                    found.append((rel, number, line.rstrip("\n")))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="checkout to scan (default: the one holding this script)")
    args = parser.parse_args(argv)
    found = violations(args.root)
    for rel, number, line in found:
        print(f"{rel}:{number}: {line.strip()}")
    if found:
        print(f"error: {len(found)} line(s) set OpenMP runtime variables; "
              "the solvers' threading policy must not depend on them",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
