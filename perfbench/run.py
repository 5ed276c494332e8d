#!/usr/bin/env python3
"""Live-runtime benchmark entry point.

Builds the load generator and the `mocha_live` server from the sources of
the checkout it runs in (Release, into $CARGO_TARGET_DIR or .bench_build),
then runs one workload:

    python3 perfbench/run.py --workload lock_lan --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of stdout is the JSON result
printed by the generator; build output goes to stderr. The exit code is the
generator's (non-zero on any correctness miss) or 2 when the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("lock_lan", "replica_wan", "bulk_lossy")


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(targets) -> Path:
    out = build_dir()
    if not (BENCH_DIR.parent / "src" / "live" / "lock_client.h").is_file():
        sys.exit("perfbench: no mocha sources next to the benchmark; run from a checkout")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", *targets])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit(2)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("lost-update", "corrupt-replica"),
                        help="self-test only: plant a defect the checks must catch")
    args = parser.parse_args()

    out = build(["mocha_perf", "mocha_live"])
    cmd = [str(out / "mocha_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server-bin", str(out / "mocha_live")]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.jsonl")]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    # The generator runs in its own process group, so a server it spawned
    # cannot outlive it, even if the generator itself dies or hangs.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + 140)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: generator timed out\n")
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
