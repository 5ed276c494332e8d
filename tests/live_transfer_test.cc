// Live replica-transfer tests: the sync-directed §6 transfer path over real
// UDP sockets (live::DaemonService + live::LockClient + live::LockServer).
//
// In-process tests wire endpoints on the loopback interface — lock server
// (node 1, optionally with a "home" daemon) plus two or three clients — and
// exercise the push the server directs with every NEED_NEW_VERSION grant,
// the lastLockOwner short-circuit, daemon-less requesters, shared-reader
// batches, the home-daemon retry, the typed timeout when no daemon ever
// answers, and a directive naming a site the daemon cannot reach.
//
// The multi-process test forks the mocha_live CLI (MOCHA_LIVE_BIN) as one
// server and two --replica-bytes clients ping-ponging an exclusive lock at
// 1 KiB and 256 KiB, then asserts both replica dumps are byte-identical —
// the paper's §3 entry-consistency claim, end to end over real sockets.
//
// All waits scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes set it).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"
#include "live/telemetry.h"

#ifndef MOCHA_LIVE_BIN
#error "MOCHA_LIVE_BIN must point at the mocha_live executable"
#endif

namespace mocha::live {
namespace {

int time_scale() {
  const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
  const int scale = env != nullptr ? std::atoi(env) : 1;
  return scale > 0 ? scale : 1;
}

util::Buffer make_payload(std::size_t n, std::uint8_t seed) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v += 3;
  return buf;
}

constexpr net::NodeId kServer = 1;
constexpr replica::LockId kLock = 7;

// One client process-in-miniature: endpoint + replica daemon + lock client,
// pre-wired to the server's UDP port.
struct Site {
  Site(net::NodeId node, std::uint16_t server_port, LockClientOptions opts)
      : endpoint(node, /*udp_port=*/0),
        daemon(endpoint),
        client(endpoint, kServer, opts, &daemon) {
    endpoint.add_peer(kServer, "127.0.0.1", server_port);
    daemon.start();
  }

  Endpoint endpoint;
  DaemonService daemon;
  LockClient client;
};

LockClientOptions scaled_options() {
  LockClientOptions opts;
  opts.grant_timeout_us = 5'000'000LL * time_scale();
  opts.transfer_timeout_us = 500'000LL * time_scale();
  return opts;
}

// Server-registry count of transfer directives sent by shard 0 (the
// registry is process-global, so tests compare before/after deltas).
std::uint64_t transfers_directed() {
  Counter* directed =
      MetricsRegistry::global().counter("shard.0.transfers_directed");
  return directed->value();
}

// Shard 0's queued-waiter gauge.
std::int64_t queue_depth() {
  return MetricsRegistry::global().gauge("shard.0.queue_depth")->value();
}

// The two clients never exchange a datagram before the transfer: the server
// introduces B to A's daemon (kNodeAddr) and directs A's daemon to push the
// bundle together with B's NEED_NEW_VERSION grant.
TEST(LiveTransfer, DirectedPushReachesSiteTheOwnerNeverHeardFrom) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  const util::Buffer written = make_payload(4096, 11);
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});
  const std::uint64_t directed_before = transfers_directed();

  // A: first acquire (version 0 -> VERSIONOK, nothing to move), write,
  // release at version 1.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  EXPECT_EQ(a.client.transfers_pulled(), 0u);
  EXPECT_FALSE(a.endpoint.knows_peer(3));
  EXPECT_FALSE(b.endpoint.knows_peer(2));

  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.client.version(kLock), 1u);
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.client.transfer_retries(), 0u);
  EXPECT_EQ(b.daemon.stats().transfers_applied, 1u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 1u);
  EXPECT_EQ(transfers_directed() - directed_before, 1u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  server.stop();
}

// A requester without a daemon sends data_port 0: the server directs no
// transfer (nothing could receive it), and the client adopts the version.
TEST(LiveTransfer, DaemonlessRequesterGetsNoDirective) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  Endpoint plain_ep(3, 0);
  plain_ep.add_peer(kServer, "127.0.0.1", server_ep.udp_port());
  LockClient plain(plain_ep, kServer, scaled_options());
  const std::uint64_t directed_before = transfers_directed();

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", make_payload(1024, 7));
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  ASSERT_TRUE(plain.acquire(kLock).is_ok());
  EXPECT_EQ(plain.version(kLock), 1u);
  EXPECT_EQ(plain.transfers_pulled(), 0u);
  EXPECT_EQ(transfers_directed() - directed_before, 0u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 0u);
  ASSERT_TRUE(plain.release(kLock).is_ok());

  server.stop();
}

// Two shared readers queued behind a writer are granted in one batch; the
// server directs one push per reader, and each reader's daemon applies it.
TEST(LiveTransfer, SharedReadersGrantedInOneBatchEachGetTheBundle) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  Site c(4, server_ep.udp_port(), scaled_options());
  const util::Buffer written = make_payload(8192, 17);
  for (Site* site : {&a, &b, &c}) {
    site->daemon.register_replica(kLock, "replica", util::Buffer{});
  }
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // A holds the lock again while both readers queue behind it.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  util::Status read_b;
  util::Status read_c;
  std::thread reader_b([&] {
    read_b = b.client.acquire(kLock, replica::LockWireMode::kShared);
  });
  std::thread reader_c([&] {
    read_c = c.client.acquire(kLock, replica::LockWireMode::kShared);
  });
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5 * time_scale());
  while (queue_depth() < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queue_depth(), 2);
  const std::uint64_t directed_before = transfers_directed();
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  reader_b.join();
  reader_c.join();

  ASSERT_TRUE(read_b.is_ok()) << read_b.to_string();
  ASSERT_TRUE(read_c.is_ok()) << read_c.to_string();
  EXPECT_EQ(b.client.version(kLock), 2u);
  EXPECT_EQ(c.client.version(kLock), 2u);
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(c.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(b.client.transfer_retries(), 0u);
  EXPECT_EQ(c.client.transfer_retries(), 0u);
  EXPECT_EQ(transfers_directed() - directed_before, 2u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 2u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  ASSERT_TRUE(c.client.release(kLock).is_ok());

  server.stop();
}

// lastLockOwner (paper §3): re-acquiring a lock whose newest version is
// already local moves zero data frames — by the owner right after its own
// release, and by the previous puller whose copy is still newest.
TEST(LiveTransfer, LastLockOwnerReacquiresWithoutDataFrames) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", make_payload(1024, 5));
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // Owner re-acquire: up-to-date set short-circuits to VERSIONOK.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  EXPECT_EQ(a.client.transfers_pulled(), 0u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 0u);
  EXPECT_EQ(a.daemon.stats().transfers_applied, 0u);

  // B pulls once, releases without writing (shared re-read pattern), then
  // re-acquires: its copy is still the newest, so no second transfer.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.daemon.stats().transfers_applied, 1u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 1u);

  server.stop();
}

// §4 weakened consistency: when the named owner's daemon never answers, the
// client retries the pull against the home daemon (the lock server's site)
// and accepts what it holds.
TEST(LiveTransfer, RetriesPullFromHomeDaemonWhenOwnerIsSilent) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();
  DaemonService home(server_ep);
  home.start();
  const util::Buffer home_copy = make_payload(2048, 21);
  home.register_replica(kLock, "replica", home_copy);
  home.publish(kLock, 1);

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", make_payload(2048, 33));
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // A's daemon goes silent: the direct pull directive lands on a port
  // nobody reads, forcing the home retry.
  a.daemon.stop();

  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.client.transfer_retries(), 1u);
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.client.transfer_timeouts(), 0u);
  EXPECT_EQ(b.daemon.read(kLock, "replica"), home_copy);
  EXPECT_EQ(home.stats().transfers_served, 1u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  home.stop();
  server.stop();
}

// When neither the named owner nor the home daemon delivers, acquire()
// surfaces a typed kTimeout instead of silently adopting the version number
// (the lock is left to the server's lease breaker, mirroring the sim).
TEST(LiveTransfer, SurfacesTypedTimeoutWhenTransferNeverArrives) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();  // no home daemon: nothing reads the server's daemon port

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", make_payload(512, 9));
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  a.daemon.stop();

  const util::Status status = b.client.acquire(kLock);
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
  EXPECT_NE(status.to_string().find("never arrived"), std::string::npos)
      << status.to_string();
  EXPECT_FALSE(b.client.held(kLock));
  EXPECT_EQ(b.client.transfer_retries(), 1u);
  EXPECT_EQ(b.client.transfer_timeouts(), 1u);

  server.stop();
}

// A directive naming a site this daemon's endpoint has never heard of (no
// introduction, no envelope) cannot be served. The bundle is never handed
// to a transport, so neither the daemon's view nor its registry counters
// count it.
TEST(LiveTransfer, DirectiveToUnknownSiteCountsNothing) {
  constexpr net::NodeId kOwner = 2;
  constexpr net::NodeId kDirector = 3;
  constexpr net::NodeId kNowhere = 99;
  constexpr net::Port kReplyPort = 77;
  Endpoint owner_ep(kOwner, 0);
  DaemonService owner(owner_ep);
  owner.register_replica(kLock, "replica", make_payload(1024, 3));
  owner.publish(kLock, 1);
  owner.start();
  Endpoint director(kDirector, 0);
  director.add_peer(kOwner, "127.0.0.1", owner_ep.udp_port());

  MetricsRegistry& registry = MetricsRegistry::global();
  Counter* served = registry.counter("daemon.2.transfers_served");
  Counter* bytes_out = registry.counter("daemon.2.bytes_out");
  const std::uint64_t served_before = served->value();
  const std::uint64_t bytes_before = bytes_out->value();

  replica::TransferReplicaMsg directive;
  directive.lock_id = kLock;
  directive.version = 1;
  directive.dst_site = kNowhere;
  directive.dst_port = replica::kDaemonDataPort;
  util::Buffer msg;
  directive.encode(msg);
  director.send(kOwner, replica::kDaemonPort, std::move(msg));
  // The control loop serves its port in order: once the poll that follows
  // the directive is answered, the directive has been handled.
  util::Buffer poll;
  replica::PollVersionMsg{kLock, kReplyPort}.encode(poll);
  director.send(kOwner, replica::kDaemonPort, std::move(poll));
  ASSERT_TRUE(director.recv_for(kReplyPort, 5'000'000LL * time_scale())
                  .has_value());

  EXPECT_FALSE(owner_ep.knows_peer(kNowhere));
  EXPECT_EQ(owner.stats().transfers_served, 0u);
  EXPECT_EQ(served->value() - served_before, 0u);
  EXPECT_EQ(bytes_out->value() - bytes_before, 0u);
  owner.stop();
}

// --- Multi-process: forked mocha_live ping-pong with real replica bytes ---

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

long long json_int(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  const auto colon = json.find(':', pos);
  if (colon == std::string::npos) return -1;
  return std::stoll(json.substr(colon + 1));
}

TEST(LiveTransfer, ForkedPingPongLeavesByteIdenticalReplicas) {
  constexpr long long kRounds = 20;

  char tmpl[] = "/tmp/mocha_live_transfer_XXXXXX";
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
  if (port.empty()) {
    kill(server, SIGKILL);
    join(server);
    FAIL() << "lock server never became ready";
  }

  // Two clients ping-pong the exclusive lock; every handoff moves the
  // replica bundle (1 KiB and 256 KiB sizes) between their daemons.
  std::vector<pid_t> clients;
  std::vector<std::string> dumps;
  for (int i = 0; i < 2; ++i) {
    dumps.push_back(dir + "/replica_dump_" + std::to_string(2 + i));
    std::vector<std::string> args = {
        MOCHA_LIVE_BIN,        "--client",
        "--site",              std::to_string(2 + i),
        "--server-addr",       "127.0.0.1:" + port,
        "--rounds",            std::to_string(kRounds),
        "--replica-bytes",     "1024,262144",
        "--replica-barrier",   "2",
        "--replica-dump-file", dumps.back(),
        "--quiet"};
    if (i == 0) {
      args.push_back("--bench-json-dir");
      args.push_back(dir);
    }
    clients.push_back(spawn(args));
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(join(clients[i]), 0) << "client site " << 2 + i << " failed";
  }
  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  // Entry consistency end to end: after the final shared sync both sites
  // must hold byte-identical replicas for every size.
  const std::string dump_a = slurp(dumps[0]);
  const std::string dump_b = slurp(dumps[1]);
  ASSERT_FALSE(dump_a.empty()) << "client 2 wrote no replica dump";
  EXPECT_EQ(dump_a, dump_b) << "replica contents diverged between sites";
  EXPECT_NE(dump_a.find("1024 "), std::string::npos);
  EXPECT_NE(dump_a.find("262144 "), std::string::npos);

  const std::string stats_json = slurp(stats);
  EXPECT_EQ(json_int(stats_json, "shard.0.lease_breaks"), 0);

  const std::string bench = slurp(dir + "/BENCH_live_transfer.json");
  ASSERT_FALSE(bench.empty()) << "BENCH_live_transfer.json not written";
  EXPECT_NE(bench.find("\"p50_acquire_1024\""), std::string::npos);
  EXPECT_NE(bench.find("\"p99_acquire_262144\""), std::string::npos);
  EXPECT_NE(bench.find("\"transfers_pulled\""), std::string::npos);
  EXPECT_GT(json_int(bench, "value"), 0);  // first metric (p50, us)
}

// A RELEASE whose up-to-date count claims 2^32-1 entries is dropped as
// malformed; it must not take the shard's reactor thread down. The forged
// datagram is sent first, so per-source in-order delivery has the server
// decode it before the acquire that follows.
TEST(LiveTransfer, ForgedReleaseCountLeavesServerServing) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Endpoint client_ep(2, 0);
  client_ep.add_peer(kServer, "127.0.0.1", server_ep.udp_port());
  LockClient client(client_ep, kServer, scaled_options());

  replica::ReleaseLockMsg forged;
  forged.lock_id = kLock;
  forged.site = 2;
  util::Buffer wire;
  forged.encode(wire);
  const std::size_t count_at = 1 + 4 + 4 + 8;  // type, lock, site, version
  for (std::size_t i = 0; i < 4; ++i) wire[count_at + i] = 0xff;
  ASSERT_TRUE(client_ep
                  .send_sync(kServer, replica::kSyncPort, std::move(wire),
                             2'000'000LL * time_scale())
                  .is_ok());

  ASSERT_TRUE(client.acquire(kLock).is_ok());
  ASSERT_TRUE(client.release(kLock).is_ok());

  server.stop();
}

}  // namespace
}  // namespace mocha::live
