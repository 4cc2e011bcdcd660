#!/usr/bin/env python3
"""Run the repository benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload cpu-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds the pcmax
libraries from this checkout) under .bench_build/, or under the directory
named by CARGO_TARGET_DIR. Workload parameters come from
perfbench/workloads.json. The last line of standard output is the run's
result object; a full record with the environment, parameters, and every
metric's unit and clock goes to .bench_build/records/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cpu-small", "cpu-large", "serve-open")
# A run may take its --seconds, the drain limit of each serve rate step, and
# this margin for set-up, answer checks and exit.
RUN_MARGIN_S = 90
SELF_TEST_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no pcmax sources at {ROOT}: run from the root of a checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            try:
                subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                               check=True,
                               timeout=max(1, deadline - time.monotonic()))
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as e:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} ({e})")
    return build_dir


def git_revision():
    """HEAD of the checkout when it is a git repository, read directly from
    .git so nothing outside the checkout is consulted."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)["workloads"]


def param_flags(params):
    flags = []
    for key, value in sorted(params.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += ["--param", f"{key}={value}"]
    return flags


def run_timeout(params, seconds):
    """Seconds a run may take before it counts as hung."""
    steps = len(params.get("ladder", []))
    return seconds + steps * params.get("drain_s", 0) + RUN_MARGIN_S


def run_workload(build_dir, workload, seed, seconds, trace, record):
    params = load_workloads()[workload]["params"]
    timeout = run_timeout(params, seconds)
    command = [os.path.join(build_dir, "perfbench_run"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--git-revision", git_revision(), "--record", record]
    command += param_flags(params)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:.0f} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, done.stdout


def record_path(workload, seed, trace):
    directory = os.path.join(build_root(), "records")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-seed{seed}-trace{trace}.json")


def self_test():
    build_dir = build("perfbench_selftest")
    code = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                          timeout=SELF_TEST_TIMEOUT_S).returncode
    code |= subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"],
        timeout=SELF_TEST_TIMEOUT_S).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="run record path (one workload)")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    build_dir = build("perfbench_run")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for name in names:
        record = args.record if args.record and len(names) == 1 else \
            record_path(name, args.seed, args.trace)
        code, stdout = run_workload(build_dir, name, args.seed, args.seconds,
                                    args.trace, record)
        worst = max(worst, code)
        lines = stdout.strip().splitlines()
        if code == 0 and lines:
            results[name] = json.loads(lines[-1])
    if len(names) > 1:
        print(json.dumps({"workloads": results}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
