// Multi-process integration test for the live lock runtime: forks the
// mocha_live CLI (path injected via MOCHA_LIVE_BIN) as one lock server plus
// three client workload drivers on the loopback interface, then asserts
//
//   - every client completes all its acquire/release rounds (exit 0),
//   - mutual exclusion held: the non-atomic read-increment-write counter the
//     clients bump under the lock shows zero lost updates,
//   - the server granted exactly rounds x clients locks and broke none
//     (its final --stats-json registry dump).
//
// 3 clients x 400 rounds = 1200 acquire/release cycles end to end.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef MOCHA_LIVE_BIN
#error "MOCHA_LIVE_BIN must point at the mocha_live executable"
#endif

namespace {

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

// Returns the child's exit code, or -1 on abnormal termination.
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

// Minimal extraction of  "key": <integer>  from the stats/bench JSON.
// Registry keys are full metric names ("shard.0.grants"), so a quoted match
// is exact.
long long json_int(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  const auto colon = json.find(':', pos);
  if (colon == std::string::npos) return -1;
  return std::stoll(json.substr(colon + 1));
}

TEST(LiveLock, ThreeClientsMutualExclusionOverLoopback) {
  constexpr int kClients = 3;
  constexpr long long kRounds = 400;

  char tmpl[] = "/tmp/mocha_live_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ready = dir + "/ready";
  const std::string stats = dir + "/stats.json";
  const std::string counter = dir + "/counter";

  const pid_t server = spawn({MOCHA_LIVE_BIN, "--server", "--port", "0",
                              "--ready-file", ready, "--stats-json", stats,
                              "--quiet"});

  // The server writes its (kernel-chosen) UDP port to the ready file.
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::istringstream(slurp(ready)) >> port;
  }
  if (port.empty()) {
    kill(server, SIGKILL);
    join(server);
    FAIL() << "lock server never became ready";
  }

  std::vector<pid_t> clients;
  for (int i = 0; i < kClients; ++i) {
    std::vector<std::string> args = {
        MOCHA_LIVE_BIN,   "--client",
        "--site",         std::to_string(2 + i),
        "--server-addr",  "127.0.0.1:" + port,
        "--rounds",       std::to_string(kRounds),
        "--counter-file", counter,
        "--quiet"};
    if (i == 0) {  // one client also emits the acceptance benchmark JSON
      args.push_back("--bench-json-dir");
      args.push_back(dir);
    }
    clients.push_back(spawn(args));
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(join(clients[i]), 0) << "client site " << 2 + i << " failed";
  }

  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  // Mutual exclusion: the counter's read-increment-write cycles are atomic
  // only if the lock is; any overlap would have lost updates.
  long long counted = -1;
  std::istringstream(slurp(counter)) >> counted;
  EXPECT_EQ(counted, kClients * kRounds);

  const std::string stats_json = slurp(stats);
  EXPECT_EQ(json_int(stats_json, "shard.0.grants"), kClients * kRounds);
  EXPECT_EQ(json_int(stats_json, "shard.0.releases"), kClients * kRounds);
  EXPECT_EQ(json_int(stats_json, "shard.0.lease_breaks"), 0);
  EXPECT_EQ(json_int(stats_json, "shard.0.registrations"), kClients);

  // The benchmark JSON must exist and carry real (positive) latencies.
  const std::string bench = slurp(dir + "/BENCH_live_lock_acquire.json");
  ASSERT_FALSE(bench.empty()) << "BENCH_live_lock_acquire.json not written";
  EXPECT_NE(bench.find("\"p50_latency\""), std::string::npos);
  EXPECT_NE(bench.find("\"p99_latency\""), std::string::npos);
  EXPECT_GT(json_int(bench, "value"), 0);  // first metric value (p50, us)
}

// Shared-mode sanity over real sockets: readers may overlap, so the server
// must report the same grant/release totals without breaking any lock.
TEST(LiveLock, SharedReadersComplete) {
  constexpr int kClients = 2;
  constexpr long long kRounds = 100;

  char tmpl[] = "/tmp/mocha_live_shared_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ready = dir + "/ready";
  const std::string stats = dir + "/stats.json";

  const pid_t server = spawn({MOCHA_LIVE_BIN, "--server", "--port", "0",
                              "--ready-file", ready, "--stats-json", stats,
                              "--quiet"});
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::istringstream(slurp(ready)) >> port;
  }
  ASSERT_FALSE(port.empty()) << "lock server never became ready";

  std::vector<pid_t> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(spawn({MOCHA_LIVE_BIN, "--client", "--site",
                             std::to_string(2 + i), "--server-addr",
                             "127.0.0.1:" + port, "--rounds",
                             std::to_string(kRounds), "--shared", "--quiet"}));
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(join(clients[i]), 0) << "client site " << 2 + i << " failed";
  }
  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  const std::string stats_json = slurp(stats);
  EXPECT_EQ(json_int(stats_json, "shard.0.grants"), kClients * kRounds);
  EXPECT_EQ(json_int(stats_json, "shard.0.releases"), kClients * kRounds);
  EXPECT_EQ(json_int(stats_json, "shard.0.lease_breaks"), 0);
}

}  // namespace
