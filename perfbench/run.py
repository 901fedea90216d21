#!/usr/bin/env python3
"""Benchmark entry point: builds the service binaries and the harness from
source, then runs one workload.

    python3 perfbench/run.py --workload solve-large|serve-hit|route-churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The build goes to .bench_build/
(or $CARGO_TARGET_DIR when set), run records and traces to .bench_out/.
Build output goes to stderr; the last line of stdout is the harness's
result object. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
WORKLOADS = ("solve-large", "serve-hit", "route-churn")
HARNESS_TIMEOUT_S = 170
TARGETS = ("mecsc_serve", "mecsc_route", "perfbench_harness")


def build(build_dir: pathlib.Path) -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no repository sources next to perfbench/")
    build_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(build_dir))  # compiler scratch stays inside
    steps = []
    if not (build_dir / "Makefile").is_file():  # no finished configure yet
        steps.append(["cmake", "-S", str(ROOT), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                      "-DCMAKE_PROJECT_INCLUDE=" + str(HERE / "cmake" / "hook.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--recompute-reference", action="store_true",
                        help="solve-large: check against core::run_lcf instead of "
                             "the stored costs (make_reference.py uses this)")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    cmd = [str(build_dir / "perfbench" / "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--bin-dir", os.path.relpath(build_dir / "tools", ROOT),
           "--out-dir", ".bench_out",
           "--reference", os.path.relpath(HERE / "reference" / "solve_large.json", ROOT),
           "--recompute-reference", "1" if args.recompute_reference else "0",
           "--build-type", BUILD_TYPE]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # Its children die with it (PR_SET_PDEATHSIG).
            proc.kill()
            proc.wait()
            print("perfbench: harness timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
