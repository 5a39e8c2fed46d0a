#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload cold_zoo --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
helper self-test, then the benchmark binary.  The binary's last line of
standard output is the result JSON; it is passed through unchanged.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_logged(command, timeout, env=None):
    """Run a build step with its output on stderr; True on success."""
    completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=timeout, check=False, env=env)
    return completed.returncode == 0


def git_sha(root):
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10,
                                   check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "none"


def build(root, build_dir):
    source = root / "perfbench"
    env = build_env(build_dir)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(source), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                          BUILD_TIMEOUT_S, env):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", str(build_dir), "-j", jobs],
                      BUILD_TIMEOUT_S, env)


def build_env(build_dir):
    """The compiler's temporary files stay inside the build tree."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_zoo", "hit_storm", "mixed_fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no src/ under {root}: nothing to benchmark")
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        if not build(root, build_dir):
            log("build failed")
            return 3
        if not run_logged([str(build_dir / "perfbench_selftest")], 60):
            log("helper self-test failed")
            return 4
    except subprocess.TimeoutExpired:
        log("build or self-test timed out")
        return 5

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha(root),
               "--out-dir", str(root / ".bench_out")]
    try:
        completed = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S,
                                   check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 6
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
