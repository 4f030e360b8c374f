#!/usr/bin/env python3
"""Builds and runs the lapsched end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload svc-overload --seed 1 --seconds 30 --trace 0

The first call configures and builds `perfbench_e2e` (Release) from the
repository's `src/` into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`); later calls only check that it is up to date.
Build output goes to standard error. The binary's standard output is
passed through, so the last line is the benchmark's JSON result. Any
build or run failure exits non-zero without printing a result.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_e2e"],
    ]
    for step in steps:
        subprocess.run(step, check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_e2e"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["svc-overload", "closed-mix", "noc-mesh"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the smoke test")
    parser.add_argument("--inject", choices=["conservation", "order", "accounting"],
                        help="corrupt one result to prove the output checks fire")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        cmd += ["--spans-out", str(out / f"spans-{args.workload}-seed{args.seed}.csv")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if result.returncode != 0:
        print(f"run.py: benchmark exited with {result.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
