#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Run it from the repository root. It checks, in order:
  1. the C++ math the generator uses (percentiles, the choice of windows by
     stolen time, counter and histogram deltas across snapshots, span self
     time with nested children);
  2. the quartile spread steady.py reports;
  3. the output schema of an untraced and a traced run against
     BENCHMARK.json;
  4. the negatives: a forced lost update (lock_lan) and a corrupted replica
     byte (replica_wan) must each make the command fail;
  5. that the command fails, printing no result, in a directory holding only
     BENCHMARK.json and the benchmark's files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import steady  # noqa: E402

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*extra, cwd=None):
    # Relative to `cwd`, so a run in another directory uses that directory's copy.
    return subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_schema(result, metrics, label):
    check(result is not None, f"{label}: last line is JSON")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: exactly the keys correct/attempted/failed/metrics")
    check(result.get("correct") is True, f"{label}: correct")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{label}: attempted is a whole number >= 1")
    check(result.get("failed") == 0, f"{label}: failed == 0")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in metrics}
    check(set(got) == set(want), f"{label}: metric names match BENCHMARK.json")
    check(all(got[n].get("unit") == u and isinstance(got[n].get("value"), (int, float))
              for n, u in want.items() if n in got),
          f"{label}: every metric has a numeric value and its unit")


def main():
    out = run.build(["perfbench_selftest", "mocha_perf", "mocha_live"])
    proc = subprocess.run([str(out / "perfbench_selftest")])
    check(proc.returncode == 0, "C++ math self-test (percentiles, window choice, deltas, self time)")

    check(abs(steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 1.0) < 1e-12,
          "quartile spread of 1..10 is (8.25 - 2.75) / 5.5")
    check(steady.spread([5.0] * 10) == 0.0, "quartile spread of a constant is 0")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    res = bench("--workload", "lock_lan", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(res.returncode == 0, "untraced lock_lan run exits 0")
    check_schema(last_json(res.stdout), spec["end_to_end"], "trace 0")
    res = bench("--workload", "replica_wan", "--seed", "1", "--seconds", "2", "--trace", "1")
    check(res.returncode == 0, "traced replica_wan run exits 0")
    check_schema(last_json(res.stdout), spec["per_layer"], "trace 1")

    for workload, inject in (("lock_lan", "lost-update"), ("replica_wan", "corrupt-replica")):
        res = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                    "--inject", inject)
        result = last_json(res.stdout)
        check(res.returncode != 0 and result is not None and result["correct"] is False
              and result["failed"] > 0,
              f"{workload} with --inject {inject} fails and counts the miss")

    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "lock_lan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    check(res.returncode != 0 and last_json(res.stdout) is None,
          "a directory without the sources fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
