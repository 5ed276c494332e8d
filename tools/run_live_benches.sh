#!/usr/bin/env bash
# Runs the gated live-runtime benches with the deterministic userspace
# WAN emulation (seeded per site, so loss patterns reproduce) and leaves
#
#   BENCH_live_wan.json       — adaptive transport, 100 x 4 KiB transfers
#                               (2% loss, 20 ms one-way delay, 6 Mbit/s)
#   BENCH_live_transfer.json  — two-client replica ping-pong, acquire-with-
#                               transfer latency at 1 KiB / 4 KiB / 256 KiB
#                               (20 ms one-way delay, no loss: the p99 gate
#                               needs a tight tail; loss resilience is the
#                               WAN bench's and the loss-injection lane's job)
#   BENCH_live_shards.json    — sharded lock-directory sweep: acquire
#                               p50/p99 and aggregate locks/sec at 1/2/4
#                               shards, 128 simulated clients on distinct
#                               locks over raw loopback (no netem: this
#                               measures grant-dispatch scaling, not the WAN)
#
# in OUTDIR. The bench-gate CI job compares these against the committed
# bench/baselines/ via tools/check_bench.py; regenerate baselines by running
# this script and copying the files there.
#
# Usage: run_live_benches.sh <mocha_live-binary> <outdir>
set -euo pipefail

BIN=$1
OUT=$2
mkdir -p "$OUT"

# Process-control scaffolding: every backgrounded mocha_live is tracked so
# that (a) one crashed process fails the whole script with its real exit
# status instead of being papered over, and (b) a mid-bench failure cannot
# leave orphaned servers/clients holding the CI step's pipes open.
TRACKED=()

cleanup() {
  local pid
  for pid in "${TRACKED[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

track() { TRACKED+=("$1"); }

untrack() {
  local pid keep=()
  for pid in "${TRACKED[@]}"; do
    [ "$pid" != "$1" ] && keep+=("$pid")
  done
  TRACKED=("${keep[@]+"${keep[@]}"}")
}

# wait_all <label> <pid>... — reap in completion order (wait -n, bash 5.1+)
# and fail with the first non-zero status seen. On the first failure the
# rest of the group is killed: the replica benches barrier on each other,
# so a surviving peer would otherwise block forever on its dead sibling
# and hang the CI job until the step timeout.
wait_all() {
  local label=$1 done_pid status rc=0 pid remaining=()
  shift
  remaining=("$@")
  while [ "${#remaining[@]}" -gt 0 ]; do
    status=0
    wait -n -p done_pid "${remaining[@]}" || status=$?
    if [ -z "${done_pid:-}" ]; then
      echo "run_live_benches: $label: wait -n failed (status $status)" >&2
      return 1
    fi
    untrack "$done_pid"
    local keep=()
    for pid in "${remaining[@]}"; do
      [ "$pid" != "$done_pid" ] && keep+=("$pid")
    done
    remaining=("${keep[@]+"${keep[@]}"}")
    if [ "$status" -ne 0 ]; then
      echo "run_live_benches: $label: pid $done_pid exited $status" >&2
      [ "$rc" -eq 0 ] && rc=$status
      for pid in "${remaining[@]+"${remaining[@]}"}"; do
        kill -KILL "$pid" 2>/dev/null || true
      done
    fi
  done
  return "$rc"
}

# stop_server <pid> — TERM the server and require a clean exit: a server
# that already crashed mid-bench surfaces its real status here.
stop_server() {
  local pid=$1 status=0
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" || status=$?
  untrack "$pid"
  if [ "$status" -ne 0 ]; then
    echo "run_live_benches: server pid $pid exited $status" >&2
    return "$status"
  fi
}

# Every mocha_live process leaves its final registry snapshot and flight-
# recorder dump (docs/OBSERVABILITY.md) next to the BENCH_*.json it
# produced, so a bench regression comes with the telemetry to explain it.
MOCHA_STATS_DIR="$(cd "$OUT" && pwd)"
export MOCHA_STATS_DIR

WAN_FLAGS=(--loss-pct 2 --delay-us 20000)

wait_ready() { # <ready-file> -> echoes the server's first (bootstrap) port
  # Sharded servers write one space-separated port per shard; clients dial
  # the first (shard 0) and learn the rest from the kShardMapReply.
  local ready=$1 port=""
  for _ in $(seq 100); do
    sleep 0.1
    port=$(awk '{print $1; exit}' "$ready" 2>/dev/null || true)
    [ -n "$port" ] && break
  done
  [ -n "$port" ] || { echo "server never became ready" >&2; exit 1; }
  echo "$port"
}

# --- 1. WAN transfer bench (BENCH_live_wan.json) ---
"$BIN" --server --port 0 --ready-file "$OUT/ready_wan" --quiet \
  "${WAN_FLAGS[@]}" --bw-kbps 6000 &
SERVER=$!
track "$SERVER"
PORT=$(wait_ready "$OUT/ready_wan")
"$BIN" --client --transfer --site 2 --server-addr "127.0.0.1:$PORT" \
  --rounds 100 --bytes 4096 --concurrency 4 \
  --bench-json-dir "$OUT" --bench-name live_wan --quiet \
  "${WAN_FLAGS[@]}" --bw-kbps 6000
stop_server "$SERVER"

# --- 2. Replica-transfer bench (BENCH_live_transfer.json) ---
DELAY_FLAGS=(--delay-us 20000)
"$BIN" --server --port 0 --ready-file "$OUT/ready_transfer" \
  --stats-json "$OUT/transfer_server_stats.json" --quiet "${DELAY_FLAGS[@]}" &
SERVER=$!
track "$SERVER"
PORT=$(wait_ready "$OUT/ready_transfer")
"$BIN" --client --site 2 --server-addr "127.0.0.1:$PORT" --rounds 40 \
  --replica-bytes 1024,4096,262144 --replica-barrier 2 \
  --bench-json-dir "$OUT" --quiet "${DELAY_FLAGS[@]}" &
C2=$!
track "$C2"
"$BIN" --client --site 3 --server-addr "127.0.0.1:$PORT" --rounds 40 \
  --replica-bytes 1024,4096,262144 --replica-barrier 2 \
  --quiet "${DELAY_FLAGS[@]}" &
C3=$!
track "$C3"
wait_all "transfer bench clients" "$C2" "$C3"
stop_server "$SERVER"

# --- 3. Shard-sweep bench (BENCH_live_shards.json) ---
# Aggregate lock-directory throughput at 1, 2 and 4 shards: one server
# process hosting all shards (one reactor thread each), 4 client processes
# x 32 simulated clients = 128 clients on distinct lock ids (disjoint
# per-process bases, so every acquire is uncontended and the measurement is
# pure grant-dispatch work). Raw loopback, no netem.
SWEEP_ROUNDS=40
for S in 1 2 4; do
  "$BIN" --server --port 0 --shards "$S" \
    --ready-file "$OUT/ready_shards_$S" \
    --stats-json "$OUT/shard_server_stats_s$S.json" --quiet &
  SERVER=$!
  track "$SERVER"
  PORT=$(wait_ready "$OUT/ready_shards_$S")
  PIDS=()
  for P in 1 2 3 4; do
    "$BIN" --client --site $((1 + P)) --server-addr "127.0.0.1:$PORT" \
      --clients 32 --distinct-locks --lock $((P * 1000)) \
      --rounds "$SWEEP_ROUNDS" \
      --latency-dump-file "$OUT/shard_lat_s${S}_p${P}" \
      --bench-json-dir "$OUT" --bench-name "live_shards_s${S}_p${P}" \
      --quiet &
    PIDS+=($!)
    track "${PIDS[-1]}"
  done
  wait_all "shard sweep s=$S clients" "${PIDS[@]}"
  stop_server "$SERVER"
done

# Merge the four per-process results per shard count into the single gated
# JSON: percentiles over the union of all 5120 acquire latencies, aggregate
# locks/sec as the sum of the concurrent processes' throughputs, and the
# scaling ratios. scaling_x4_inverse (s1 rate / s4 rate) is the gated form:
# check_bench.py is lower-is-better, so losing the multi-shard speedup makes
# the inverse grow past its envelope.
python3 - "$OUT" <<'PY'
import json, sys
out = sys.argv[1]

metrics = []
rate = {}
for s in (1, 2, 4):
    lat = []
    for p in (1, 2, 3, 4):
        with open(f"{out}/shard_lat_s{s}_p{p}") as f:
            lat.extend(int(line) for line in f if line.strip())
    lat.sort()
    if not lat:
        sys.exit(f"shard sweep s={s}: no latency samples")
    q = lambda p: float(lat[min(len(lat) - 1, int(p * (len(lat) - 1) + 0.5))])
    rate[s] = 0.0
    for p in (1, 2, 3, 4):
        with open(f"{out}/BENCH_live_shards_s{s}_p{p}.json") as f:
            doc = json.load(f)
        rate[s] += next(m["value"] for m in doc["metrics"]
                        if m["name"] == "throughput")
    metrics.append({"name": f"p50_acquire_s{s}", "value": q(0.50), "unit": "us"})
    metrics.append({"name": f"p99_acquire_s{s}", "value": q(0.99), "unit": "us"})
    metrics.append({"name": f"locks_per_sec_s{s}", "value": rate[s],
                    "unit": "rounds/s"})

metrics.append({"name": "scaling_x2", "value": rate[2] / rate[1], "unit": "x"})
metrics.append({"name": "scaling_x4", "value": rate[4] / rate[1], "unit": "x"})
metrics.append({"name": "scaling_x4_inverse", "value": rate[1] / rate[4],
                "unit": "x"})
with open(f"{out}/BENCH_live_shards.json", "w") as f:
    json.dump({"name": "live_shards", "metrics": metrics}, f, indent=2)
    f.write("\n")
print(f"shard sweep: x2 {rate[2]/rate[1]:.2f}  x4 {rate[4]/rate[1]:.2f}  "
      f"({rate[1]:.0f} -> {rate[4]:.0f} locks/s)")
PY

# --- 4. Hybrid bulk-transport sweep (BENCH_live_hybrid.json) ---
# Basic-vs-hybrid crossover (paper §4.3, reproduced live): the same
# two-client replica ping-pong run twice over raw loopback — once with the
# default MochaNet-UDP bulk path, once with the TCP bulk backend — across
# bundle sizes 1 KiB … 1 MiB. The merged JSON pins udp/tcp p50+p99 per
# size, the crossover size and the 1 MiB tcp/udp ratios. The crossover is
# defined on the per-size medians (p50). A p99 over 30 samples is the
# slowest sample, so a crossover built on it moved with single scheduling
# hiccups; it was chosen when the UDP lane's tail held whole-bundle RTO
# storms, which fragment-granular loss recovery removed. p99s for all sizes
# still land in the JSON for inspection.
HYBRID_SIZES=1024,8192,65536,262144,1048576
# 30 rounds: the gated numbers are per-size p50s over one client's samples,
# and 16-round medians proved noisy enough to wobble the crossover bucket.
HYBRID_ROUNDS=30
for BE in udp tcp; do
  "$BIN" --server --port 0 --ready-file "$OUT/ready_hybrid_$BE" \
    --bulk-backend "$BE" --quiet &
  SERVER=$!
  track "$SERVER"
  PORT=$(wait_ready "$OUT/ready_hybrid_$BE")
  "$BIN" --client --site 2 --server-addr "127.0.0.1:$PORT" \
    --rounds "$HYBRID_ROUNDS" --replica-bytes "$HYBRID_SIZES" \
    --replica-barrier 2 --bulk-backend "$BE" \
    --bench-json-dir "$OUT" --bench-name "live_hybrid_$BE" --quiet &
  C2=$!
  track "$C2"
  "$BIN" --client --site 3 --server-addr "127.0.0.1:$PORT" \
    --rounds "$HYBRID_ROUNDS" --replica-bytes "$HYBRID_SIZES" \
    --replica-barrier 2 --bulk-backend "$BE" --quiet &
  C3=$!
  track "$C3"
  wait_all "hybrid sweep $BE clients" "$C2" "$C3"
  stop_server "$SERVER"
done

python3 - "$OUT" <<'PY'
import json, sys
out = sys.argv[1]

SIZES = [1024, 8192, 65536, 262144, 1048576]
runs = {}
for be in ("udp", "tcp"):
    with open(f"{out}/BENCH_live_hybrid_{be}.json") as f:
        doc = json.load(f)
    runs[be] = {m["name"]: m["value"] for m in doc["metrics"]}

# The tcp run must actually have used the fast path: a silent negotiation
# failure would fall back to UDP and "measure" a crossover of pure noise.
if runs["tcp"].get("bulk_fast_served", 0) <= 0:
    sys.exit("hybrid sweep: tcp run never hit the fast bulk path")
if runs["udp"].get("bulk_fast_served", 0) != 0:
    sys.exit("hybrid sweep: udp run unexpectedly used a fast bulk backend")

metrics = []
for size in SIZES:
    for be in ("udp", "tcp"):
        for q in ("p50", "p99"):
            metrics.append({"name": f"{be}_{q}_{size}",
                            "value": runs[be][f"{q}_acquire_{size}"],
                            "unit": "us"})

# Crossover: smallest size where TCP wins the median by >10% AND keeps
# winning at every larger size (hysteresis so a single noisy bucket cannot
# fake it). No such size -> sentinel 2x the largest, which trips the
# lower-is-better gate against any real baseline.
crossover = 2 * SIZES[-1]
for i, size in enumerate(SIZES):
    if all(runs["tcp"][f"p50_acquire_{s}"]
           < 0.9 * runs["udp"][f"p50_acquire_{s}"] for s in SIZES[i:]):
        crossover = size
        break
metrics.append({"name": "crossover_bytes", "value": float(crossover),
                "unit": "bytes"})
for q in ("p50", "p99"):
    ratio = (runs["tcp"][f"{q}_acquire_1048576"]
             / runs["udp"][f"{q}_acquire_1048576"])
    metrics.append({"name": f"tcp_over_udp_{q}_1048576", "value": ratio,
                    "unit": "x"})
with open(f"{out}/BENCH_live_hybrid.json", "w") as f:
    json.dump({"name": "live_hybrid", "metrics": metrics}, f, indent=2)
    f.write("\n")
p99r = runs["tcp"]["p99_acquire_1048576"] / runs["udp"]["p99_acquire_1048576"]
print(f"hybrid sweep: crossover {crossover} B, "
      f"1 MiB tcp/udp p99 ratio {p99r:.2f}")
PY

# A bench that died after its process tree was reaped can still leave a
# truncated/empty JSON behind; refuse to hand such a file to the gate,
# which would misread it as "missing metric" and exit 2 instead of naming
# the broken bench.
python3 - "$OUT" <<'PY'
import json, sys
out = sys.argv[1]
for name in ("BENCH_live_wan.json", "BENCH_live_transfer.json",
             "BENCH_live_shards.json", "BENCH_live_hybrid.json"):
    path = f"{out}/{name}"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"run_live_benches: {name}: unreadable bench JSON: {err}")
    if not doc.get("metrics"):
        sys.exit(f"run_live_benches: {name}: no metrics in bench JSON")
print("run_live_benches: all bench JSONs present and well-formed")
PY

echo "bench JSON written to $OUT:"
ls -l "$OUT"/BENCH_*.json
