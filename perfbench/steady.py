#!/usr/bin/env python3
"""Steadiness check: runs a workload once per seed and reports, for every
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median) against its bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload bulk_lossy --seeds 1-10 [--seconds S]

Run it from the repository root; --seconds defaults to run_seconds. Exits
non-zero when a run fails or a spread exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        steal = next((line.split()[2] for line in lines if line.startswith("host steal ")), "?")
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items())
              + f" host_steal={steal}", flush=True)

    steady = True
    for name, vals in values.items():
        s = spread(vals)
        limit = bounds[name] / 3
        ok = s <= limit
        steady &= ok
        print(f"{args.workload:12s} {name:22s} median {statistics.median(vals):14.6g} "
              f"spread {s:7.4f} bound/3 {limit:.4f} {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
