#!/usr/bin/env python3
"""Build mmxdsp's benchmark in Release and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cold --seed 42 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the mmxdsp libraries
plus the mmxbench program) into .bench_build/ ($CARGO_TARGET_DIR when
set); later calls only check that the build is current. The workload's
report goes to standard output and ends with one JSON line holding
`correct`, `attempted`, `failed` and `metrics`. Build output goes to
standard error. With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_cold", "design_sweep", "vprofd_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "mmxbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="seeds the workload inputs and the query mix")
    ap.add_argument("--suite-seed", type=int,
                    help="SuiteConfig::seed (default: --seed)")
    ap.add_argument("--mix-seed", type=int,
                    help="vprofd_mix query-stream seed (default: --seed)")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "harness", "suite.hh")):
        fail(f"mmxdsp sources not found under {root}/src")

    out_root = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_dir = os.path.join(out_root, "perfbench-release")
    try:
        build(bench_dir, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")

    cmd = [os.path.join(build_dir, "mmxbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scratch={os.path.join(out_root, 'scratch')}"]
    if args.suite_seed is not None:
        cmd.append(f"--suite-seed={args.suite_seed}")
    if args.mix_seed is not None:
        cmd.append(f"--mix-seed={args.mix_seed}")
    if args.trace:
        cmd.append("--spans=" + os.path.join(
            out_root, "spans", f"{args.workload}-seed{args.seed}.json"))

    # Each run makes its own scratch directory and removes it; clear
    # what an interrupted earlier run may have left behind.
    shutil.rmtree(os.path.join(out_root, "scratch"), ignore_errors=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("MMXDSP_TRACE_DIR", "MMXDSP_TRACE_CACHE")}
    env["MMXDSP_COMMIT"] = commit_of(root)
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if rc != 0:
        fail(f"mmxbench exited with {rc}")


if __name__ == "__main__":
    main()
