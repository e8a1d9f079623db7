#!/usr/bin/env python3
"""End-to-end benchmark entry point for DGS (see README.md here).

    python3 perfbench/run.py --workload paper-day --seed 1 --seconds 48 --trace 0

Run from the repository root.  Configures and builds perfbench/ (which
compiles ../src) into the build directory named by CARGO_TARGET_DIR, or
.bench_build, then runs the span-fold self-test and the benchmark program.
The program's last stdout line is the result JSON; build output goes to
stderr.  Exits nonzero without a result when the sources are missing, the
build or self-test fails, or the program fails a check.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-day", "hourly-plan-ckpt")
PROGRAM_TIMEOUT_S = 170


def run(cmd, timeout=None, capture=False):
    """Runs cmd with stdout sent to stderr (or captured); waits for it."""
    with subprocess.Popen(cmd, cwd=ROOT,
                          stdout=subprocess.PIPE if capture else sys.stderr,
                          stderr=sys.stderr, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: timed out after {timeout} s: {cmd[0]}",
                  file=sys.stderr)
            return 124, ""
        return proc.returncode, out or ""


def build():
    """Returns the build directory, or None when the build failed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return None
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir if code == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = build()
    if build_dir is None:
        return 1
    code, _ = run([os.path.join(build_dir, "test_span_fold")], timeout=60)
    if code != 0:
        print("run.py: span-fold self-test failed", file=sys.stderr)
        return 1
    code, out = run([os.path.join(build_dir, "dgs_perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    timeout=PROGRAM_TIMEOUT_S, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
