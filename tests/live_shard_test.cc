// Sharded lock-directory integration test: forks the mocha_live CLI (path
// injected via MOCHA_LIVE_BIN) as one two-shard server process plus six
// client workload drivers on the loopback interface.
//
// Two lock ids are chosen — locally, with the same live::ShardMap the
// deployment builds from the registration handshake — so that one lives on
// shard 0 and the other on shard 1. Three clients contend on each lock and
// bump a non-atomic read-increment-write counter under it. Asserts:
//
//   - every client fetched the shard map and finished all rounds (exit 0),
//   - mutual exclusion held per lock (no lost counter updates),
//   - the traffic really split: each shard granted exactly its own lock's
//     rounds (the per-shard "shard.<id>.*" counters of the server's final
//     --stats-json registry dump), none were broken,
//   - the sums over both shards match the whole workload.
//
// Runs in the ASan/TSan lanes; the sanitizer jobs export
// MOCHA_NETEM_LOSS_PCT / MOCHA_NETEM_DELAY_US (2% / 20 ms), which the
// forked processes inherit, so under TSan this is the §4 lossy-WAN variant.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/shard_map.h"

#ifndef MOCHA_LIVE_BIN
#error "MOCHA_LIVE_BIN must point at the mocha_live executable"
#endif

namespace {

using mocha::live::ShardMap;
using mocha::live::shard_node;

// Wall-clock margins scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes set
// it), as in the other forked live tests.
int time_scale() {
  const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
  const int scale = env != nullptr ? std::atoi(env) : 1;
  return scale > 0 ? scale : 1;
}

pid_t spawn(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  perror("execv mocha_live");
  _exit(127);
}

int join(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Minimal extraction of  "key": <integer>  from a --stats-json dump.
long long json_int(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  const auto colon = json.find(':', pos);
  if (colon == std::string::npos) return -1;
  return std::stoll(json.substr(colon + 1));
}

// "shard.<id>.<leaf>" from a --stats-json dump.
long long shard_metric(const std::string& json, std::uint32_t shard,
                       const std::string& leaf) {
  return json_int(json, "shard." + std::to_string(shard) + "." + leaf);
}

// Sum of "shard.<id>.<leaf>" over shards 0 and 1; -1 if either is missing.
long long both_shards(const std::string& json, const std::string& leaf) {
  const long long s0 = shard_metric(json, 0, leaf);
  const long long s1 = shard_metric(json, 1, leaf);
  return s0 < 0 || s1 < 0 ? -1 : s0 + s1;
}

// The two-shard map clients and servers agree on (docs/PROTOCOL.md §9):
// ring points depend only on the shard ids, so addresses can be zero here.
ShardMap two_shard_map() {
  std::vector<ShardMap::Entry> entries;
  for (std::uint32_t s = 0; s < 2; ++s) {
    entries.push_back({s, shard_node(s), /*ipv4=*/0, /*udp_port=*/0});
  }
  return ShardMap(std::move(entries));
}

// Smallest lock id >= `start` owned by `shard` under the two-shard map.
long long lock_on_shard(const ShardMap& map, std::uint32_t shard,
                        long long start) {
  for (long long id = start; id < start + 10'000; ++id) {
    if (map.shard_of(static_cast<std::uint64_t>(id)) == shard) return id;
  }
  return -1;
}

TEST(LiveShard, TwoShardsSixClientsMutualExclusion) {
  constexpr int kClientsPerLock = 3;
  constexpr long long kRounds = 40;

  const ShardMap map = two_shard_map();
  const long long lock_a = lock_on_shard(map, 0, 1);
  const long long lock_b = lock_on_shard(map, 1, 1);
  ASSERT_GT(lock_a, 0);
  ASSERT_GT(lock_b, 0);

  char tmpl[] = "/tmp/mocha_live_shard_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ready = dir + "/ready";
  const std::string stats = dir + "/stats.json";
  const std::string counter_a = dir + "/counter_a";
  const std::string counter_b = dir + "/counter_b";

  const pid_t server = spawn({MOCHA_LIVE_BIN, "--server", "--port", "0",
                              "--shards", "2", "--ready-file", ready,
                              "--stats-json", stats, "--quiet"});

  // The ready file carries one space-separated bound UDP port per shard;
  // the first is the bootstrap (shard 0) address clients dial.
  std::string port_0, port_1;
  for (int i = 0; i < 100 && port_1.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::istringstream(slurp(ready)) >> port_0 >> port_1;
  }
  if (port_1.empty()) {
    kill(server, SIGKILL);
    join(server);
    FAIL() << "sharded lock server never became ready";
  }
  EXPECT_NE(port_0, port_1);  // distinct endpoint per shard

  std::vector<pid_t> clients;
  for (int i = 0; i < 2 * kClientsPerLock; ++i) {
    const bool on_a = i < kClientsPerLock;
    clients.push_back(spawn({MOCHA_LIVE_BIN, "--client",
                             "--site", std::to_string(2 + i),
                             "--server-addr", "127.0.0.1:" + port_0,
                             "--lock", std::to_string(on_a ? lock_a : lock_b),
                             "--rounds", std::to_string(kRounds),
                             "--counter-file", on_a ? counter_a : counter_b,
                             "--quiet"}));
  }
  for (int i = 0; i < 2 * kClientsPerLock; ++i) {
    EXPECT_EQ(join(clients[i]), 0) << "client site " << 2 + i << " failed";
  }

  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  // Mutual exclusion per lock: the counters' read-increment-write cycles
  // are atomic only if the lock is.
  long long counted_a = -1, counted_b = -1;
  std::istringstream(slurp(counter_a)) >> counted_a;
  std::istringstream(slurp(counter_b)) >> counted_b;
  EXPECT_EQ(counted_a, kClientsPerLock * kRounds);
  EXPECT_EQ(counted_b, kClientsPerLock * kRounds);

  const std::string stats_json = slurp(stats);
  const long long per_lock = kClientsPerLock * kRounds;

  // Sums over both shards.
  EXPECT_EQ(both_shards(stats_json, "grants"), 2 * per_lock);
  EXPECT_EQ(both_shards(stats_json, "releases"), 2 * per_lock);
  EXPECT_EQ(both_shards(stats_json, "lease_breaks"), 0);
  EXPECT_EQ(both_shards(stats_json, "registrations"), 2 * kClientsPerLock);
  // Every client performed the registration handshake against shard 0.
  EXPECT_EQ(both_shards(stats_json, "shard_map_requests"),
            2 * kClientsPerLock);

  // Per-shard counters: the split must match the lock placement exactly —
  // shard 0 granted only lock A's rounds, shard 1 only lock B's.
  EXPECT_EQ(shard_metric(stats_json, 0, "grants"), per_lock);
  EXPECT_EQ(shard_metric(stats_json, 1, "grants"), per_lock);
  EXPECT_EQ(shard_metric(stats_json, 0, "releases"), per_lock);
  EXPECT_EQ(shard_metric(stats_json, 1, "releases"), per_lock);
  EXPECT_EQ(shard_metric(stats_json, 0, "lease_breaks"), 0);
  EXPECT_EQ(shard_metric(stats_json, 1, "lease_breaks"), 0);
  // Gauges drained back to idle, and each shard's reactor really looped.
  EXPECT_EQ(shard_metric(stats_json, 0, "queue_depth"), 0);
  EXPECT_EQ(shard_metric(stats_json, 1, "queue_depth"), 0);
  EXPECT_EQ(shard_metric(stats_json, 0, "active_leases"), 0);
  EXPECT_EQ(shard_metric(stats_json, 1, "active_leases"), 0);
  EXPECT_GT(shard_metric(stats_json, 0, "reactor.iterations"), 0);
  EXPECT_GT(shard_metric(stats_json, 1, "reactor.iterations"), 0);
  EXPECT_GE(shard_metric(stats_json, 0, "reactor.max_epoll_batch"), 1);
  EXPECT_GE(shard_metric(stats_json, 1, "reactor.max_epoll_batch"), 1);
}

// Many simulated clients in one process over a wide Zipf lock space: each
// client touches far more lock ids than the old fixed 64-port reply range
// held, so overlapping ranges would cross-deliver grants between clients
// (lost updates, broken leases). Every round must land exactly once.
TEST(LiveShard, WideLockSpaceKeepsClientReplyPortsDisjoint) {
  constexpr int kClients = 4;
  constexpr long long kRounds = 300;
  constexpr long long kLockSpace = 1024;
  constexpr long long kFirstLock = 1;

  char tmpl[] = "/tmp/mocha_live_wide_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ready = dir + "/ready";
  const std::string stats = dir + "/stats.json";

  // mocha_live's default 300 ms lease, scaled: under sanitizer slowdown and
  // injected loss an unscaled lease breaks while its holder is still alive.
  const std::string lease_grace_us = std::to_string(300'000LL * time_scale());
  const pid_t server = spawn({MOCHA_LIVE_BIN, "--server", "--port", "0",
                              "--shards", "2", "--ready-file", ready,
                              "--stats-json", stats, "--lease-grace-us",
                              lease_grace_us, "--quiet"});
  std::string port_0;
  for (int i = 0; i < 100 && port_0.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::istringstream(slurp(ready)) >> port_0;
  }
  if (port_0.empty()) {
    kill(server, SIGKILL);
    join(server);
    FAIL() << "sharded lock server never became ready";
  }

  const pid_t client = spawn({MOCHA_LIVE_BIN, "--client", "--site", "2",
                              "--server-addr", "127.0.0.1:" + port_0,
                              "--clients", std::to_string(kClients), "--lock",
                              std::to_string(kFirstLock), "--lock-space",
                              std::to_string(kLockSpace), "--zipf-s", "0.99",
                              "--rounds", std::to_string(kRounds),
                              "--counter-dir", dir, "--quiet"});
  EXPECT_EQ(join(client), 0) << "client process failed";
  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  long long counted = 0;
  int locks_touched = 0;
  for (long long id = kFirstLock; id < kFirstLock + kLockSpace; ++id) {
    const std::string text = slurp(dir + "/counter_" + std::to_string(id));
    if (text.empty()) continue;
    counted += std::stoll(text);
    ++locks_touched;
  }
  EXPECT_EQ(counted, kClients * kRounds);
  // Far more lock ids than the 32 that fit two ports each in 64.
  EXPECT_GT(locks_touched, 64);

  const std::string stats_json = slurp(stats);
  EXPECT_EQ(both_shards(stats_json, "grants"), kClients * kRounds);
  EXPECT_EQ(both_shards(stats_json, "releases"), kClients * kRounds);
  EXPECT_EQ(both_shards(stats_json, "lease_breaks"), 0);
}

// A client process whose reply-port ranges would run past the 16-bit port
// space refuses to start instead of wrapping ranges onto each other.
TEST(LiveShard, ReplyPortOverflowIsRejected) {
  const pid_t client = spawn({MOCHA_LIVE_BIN, "--client", "--site", "2",
                              "--server-addr", "127.0.0.1:9", "--clients", "64",
                              "--lock-space", "1024", "--rounds", "1",
                              "--quiet"});
  EXPECT_EQ(join(client), 64);
}

// A lock id must route identically no matter which party computes the map:
// this is the §9 routing invariant the wire protocol cannot check at
// runtime. Guards shard_hash64 / kRingSalt / kVirtualNodes against drift.
TEST(LiveShard, RingPlacementIsStableAcrossEntryOrderAndAddresses) {
  std::vector<ShardMap::Entry> fwd, rev;
  for (std::uint32_t s = 0; s < 4; ++s) {
    fwd.push_back({s, shard_node(s), 0, 0});
    // Reversed order, nonzero addresses: must not move any lock.
    rev.insert(rev.begin(), {s, shard_node(s), 0x0100007f,
                             static_cast<std::uint16_t>(9000 + s)});
  }
  const ShardMap a{std::move(fwd)}, b{std::move(rev)};
  for (std::uint64_t lock = 1; lock <= 5'000; ++lock) {
    ASSERT_EQ(a.shard_of(lock), b.shard_of(lock)) << "lock " << lock;
  }
  // And the distribution is real: every shard owns a meaningful share.
  std::vector<int> owned(4, 0);
  for (std::uint64_t lock = 1; lock <= 5'000; ++lock) ++owned[a.shard_of(lock)];
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(owned[s], 5'000 / 16) << "shard " << s << " nearly empty";
  }
}

}  // namespace
