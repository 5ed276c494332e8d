// Hybrid bulk-transport tests (§10): the pluggable TransportBackend bulk
// path — TCP bulk with its LRU connection cache, and the BULK-HELLO
// negotiation that lets mixed deployments fall back to the MochaNet-UDP
// data port.
//
// In-process tests drive the TCP backend directly (typed kUnavailable /
// kTimeout on refused and stalled peers, byte-equality round trips) and
// through the full daemon stack (fast path vs negotiation fallback). Bundle
// counts are read from the process-global metrics registry
// ("bulk.<backend>.<node>.*") as before/after deltas. The multi-process
// test forks the mocha_live CLI once per backend (--bulk-backend udp / tcp)
// and asserts both runs leave byte-identical replicas, with the tcp run
// demonstrably riding the fast path (bulk_fast_served in the bench JSON).
//
// All waits scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes set it).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"
#include "live/tcp_bulk.h"
#include "live/telemetry.h"
#include "live/transport_backend.h"

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
  for (auto& b : buf) b = v += 7;
  return buf;
}

constexpr net::Port kBundlePort = 61;

std::uint64_t metric(const std::string& name) {
  return MetricsRegistry::global().counter(name)->value();
}

// Two loopback endpoints that know each other's UDP addresses — the
// address table every backend resolves peers through.
struct Pair {
  Pair() : a(2, 0), b(3, 0) {
    a.add_peer(3, "127.0.0.1", b.udp_port());
    b.add_peer(2, "127.0.0.1", a.udp_port());
  }
  Endpoint a;
  Endpoint b;
};

TEST(BulkBackendName, ParsesAndNamesAllKinds) {
  EXPECT_EQ(parse_bulk_backend("udp"), BulkBackend::kUdp);
  EXPECT_EQ(parse_bulk_backend("tcp"), BulkBackend::kTcp);
  EXPECT_FALSE(parse_bulk_backend("carrier-pigeon").has_value());
  EXPECT_STREQ(bulk_backend_name(BulkBackend::kUdp), "udp");
  EXPECT_STREQ(bulk_backend_name(BulkBackend::kTcp), "tcp");
}

TEST(TcpBulk, RoundTripReusesCachedConnection) {
  Pair net;
  const std::uint64_t sent_before = metric("bulk.tcp.2.sent");
  const std::uint64_t received_before = metric("bulk.tcp.3.received");
  TcpBulkBackend tx(net.a);
  TcpBulkBackend rx(net.b);
  tx.set_peer_contact(3, rx.contact_port());

  const util::Buffer small = make_payload(512, 1);
  const util::Buffer large = make_payload(1 << 20, 2);
  const std::int64_t timeout = 5'000'000LL * time_scale();
  ASSERT_TRUE(tx.send_bundle(3, kBundlePort, small, timeout).is_ok());
  ASSERT_TRUE(tx.send_bundle(3, kBundlePort, large, timeout).is_ok());

  auto first = rx.recv_bundle(kBundlePort, timeout);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 2u);
  EXPECT_EQ(first->port, kBundlePort);
  EXPECT_EQ(first->payload, small);
  auto second = rx.recv_bundle(kBundlePort, timeout);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, large);

  // Both frames rode ONE cached connection (the LRU hit, not a redial).
  EXPECT_EQ(tx.cached_connections(), 1u);
  EXPECT_EQ(metric("bulk.tcp.2.sent") - sent_before, 2u);
  EXPECT_EQ(metric("bulk.tcp.3.received") - received_before, 2u);
}

TEST(TcpBulk, NoContactIsUnavailable) {
  Pair net;
  const std::uint64_t failures_before = metric("bulk.tcp.2.failures");
  TcpBulkBackend tx(net.a);
  // Peer 3 never sent a BULK-HELLO: no contact port recorded.
  const util::Status status =
      tx.send_bundle(3, kBundlePort, make_payload(64, 3),
                     200'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(metric("bulk.tcp.2.failures") - failures_before, 1u);
}

TEST(TcpBulk, ConnectRefusedIsUnavailable) {
  Pair net;
  TcpBulkBackend tx(net.a);
  // A port that was just bound and released: nothing listens there.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  tx.set_peer_contact(3, dead_port);
  const util::Status status =
      tx.send_bundle(3, kBundlePort, make_payload(64, 4),
                     2'000'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
}

TEST(TcpBulk, StalledPeerYieldsTypedTimeout) {
  Pair net;
  TcpBulkOptions opts;
  opts.send_buffer_bytes = 4096;  // tiny SO_SNDBUF: a stalled reader bites
  TcpBulkBackend tx(net.a, opts);
  const std::uint64_t failures_before = metric("bulk.tcp.2.failures");

  // A listener whose accept queue completes the handshake but which never
  // accepts or reads: the frame wedges in flight and the send deadline — a
  // typed kTimeout, not a hang — is the §10 error contract under test.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  tx.set_peer_contact(3, ntohs(addr.sin_port));

  const util::Status status =
      tx.send_bundle(3, kBundlePort, make_payload(8 << 20, 5),
                     500'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout) << status.to_string();
  EXPECT_EQ(metric("bulk.tcp.2.failures") - failures_before, 1u);
  ::close(listener);
}

TEST(TcpBulk, DrainClosesCachedConnections) {
  Pair net;
  TcpBulkBackend tx(net.a);
  TcpBulkBackend rx(net.b);
  tx.set_peer_contact(3, rx.contact_port());
  const std::int64_t timeout = 5'000'000LL * time_scale();
  ASSERT_TRUE(
      tx.send_bundle(3, kBundlePort, make_payload(1024, 6), timeout).is_ok());
  ASSERT_TRUE(rx.recv_bundle(kBundlePort, timeout).has_value());
  ASSERT_EQ(tx.cached_connections(), 1u);

  EXPECT_TRUE(tx.drain(timeout));
  EXPECT_EQ(tx.cached_connections(), 0u);
  // Post-drain sends are refused, not silently queued into a closing cache.
  EXPECT_EQ(
      tx.send_bundle(3, kBundlePort, make_payload(64, 7), timeout).code(),
      util::StatusCode::kUnavailable);
}

// --- Negotiation through the full daemon stack ---

constexpr net::NodeId kServer = 1;
constexpr replica::LockId kLock = 7;

struct Site {
  Site(net::NodeId node, std::uint16_t server_port, BulkBackend bulk)
      : endpoint(node, /*udp_port=*/0),
        daemon(endpoint, bulk),
        client(endpoint, kServer,
               [] {
                 LockClientOptions opts;
                 opts.grant_timeout_us = 5'000'000LL * time_scale();
                 opts.transfer_timeout_us = 2'000'000LL * time_scale();
                 return opts;
               }(),
               &daemon) {
    endpoint.add_peer(kServer, "127.0.0.1", server_port);
    daemon.start();
  }

  Endpoint endpoint;
  DaemonService daemon;
  LockClient client;
};

// Polls `done` until it holds or the (scaled) deadline passes. BULK-HELLO
// and its ack travel after the bundle that triggered them, so a test that
// inspects negotiated capabilities right after acquire() must wait.
template <typename Pred>
bool eventually(Pred done) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5 * time_scale());
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(BulkNegotiation, MatchingBackendsServeOverFastPath) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), BulkBackend::kTcp);
  Site b(3, server_ep.udp_port(), BulkBackend::kTcp);
  const std::uint64_t fast_sent_before = metric("bulk.tcp.2.sent");
  const std::uint64_t fast_received_before = metric("bulk.tcp.3.received");
  const util::Buffer written = make_payload(262144, 11);
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // The first bundle A pushes to B rides UDP: B has not advertised yet. On
  // applying it, B announces its TCP capability to A.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(metric("bulk.tcp.2.sent") - fast_sent_before, 0u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  // B -> A, then A -> B again. The hello left B before B's release, and A's
  // control port serves it ahead of the directive that follows from the
  // server, so A's second push to B rides the TCP bulk path.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  // A counts the TCP send once the frame is written, which can be after B
  // applied it.
  EXPECT_TRUE(eventually(
      [&] { return metric("bulk.tcp.2.sent") - fast_sent_before == 1; }));
  EXPECT_EQ(metric("bulk.tcp.2.sent") - fast_sent_before, 1u);
  EXPECT_EQ(a.daemon.stats().bulk_fallbacks, 0u);
  EXPECT_NE(a.daemon.peer_bulk_caps(3), 0u);
  EXPECT_EQ(a.daemon.peer_bulk_caps(3) & replica::kBulkCapTcp,
            replica::kBulkCapTcp);
  EXPECT_EQ(metric("bulk.tcp.3.received") - fast_received_before, 1u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  EXPECT_TRUE(a.daemon.drain_bulk(2'000'000LL * time_scale()));
  EXPECT_TRUE(b.daemon.drain_bulk(2'000'000LL * time_scale()));
  server.stop();
}

TEST(BulkNegotiation, MixedDeploymentFallsBackToUdp) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  // A is UDP-only (an "old binary"); B receives with the TCP backend enabled.
  Site a(2, server_ep.udp_port(), BulkBackend::kUdp);
  Site b(3, server_ep.udp_port(), BulkBackend::kTcp);
  const std::uint64_t fast_sent_before = metric("bulk.tcp.2.sent");
  const util::Buffer written = make_payload(65536, 12);
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // The transfer completes over the MochaNet data port, and B's later
  // advertisement changes nothing: A has no fast backend to use it with.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(metric("bulk.tcp.2.sent") - fast_sent_before, 0u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 1u);
  // A still recorded B's hello (capabilities survive for a later upgrade),
  // and B heard back that A is UDP-only.
  EXPECT_TRUE(eventually([&] {
    return (a.daemon.peer_bulk_caps(3) & replica::kBulkCapTcp) != 0;
  }));
  EXPECT_TRUE(eventually(
      [&] { return b.daemon.peer_bulk_caps(2) == replica::kBulkCapUdp; }));
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  server.stop();
}

// --- Multi-process A/B: forked mocha_live per backend ---

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

// In write_bench_json output the value follows `"name": "<key>", "value":`.
long long bench_metric(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  return json_int(json.substr(pos), "value");
}

TEST(BulkForked, ABBackendsLeaveByteIdenticalReplicas) {
  for (const std::string backend : {"udp", "tcp"}) {
    char tmpl[] = "/tmp/mocha_live_bulk_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string ready = dir + "/ready";

    const pid_t server =
        spawn({MOCHA_LIVE_BIN, "--server", "--port", "0", "--ready-file",
               ready, "--bulk-backend", backend, "--quiet"});
    std::string port;
    for (int i = 0; i < 100 && port.empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::istringstream(slurp(ready)) >> port;
    }
    if (port.empty()) {
      kill(server, SIGKILL);
      join(server);
      FAIL() << backend << ": lock server never became ready";
    }

    std::vector<pid_t> clients;
    std::vector<std::string> dumps;
    for (int i = 0; i < 2; ++i) {
      dumps.push_back(dir + "/replica_dump_" + std::to_string(2 + i));
      std::vector<std::string> args = {
          MOCHA_LIVE_BIN,        "--client",
          "--site",              std::to_string(2 + i),
          "--server-addr",       "127.0.0.1:" + port,
          "--rounds",            "8",
          "--replica-bytes",     "1024,262144",
          "--replica-barrier",   "2",
          "--bulk-backend",      backend,
          "--replica-dump-file", dumps.back(),
          "--quiet"};
      if (i == 0) {
        args.push_back("--bench-json-dir");
        args.push_back(dir);
        args.push_back("--bench-name");
        args.push_back("bulk_ab");
      }
      clients.push_back(spawn(args));
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(join(clients[i]), 0)
          << backend << ": client site " << 2 + i << " failed";
    }
    kill(server, SIGTERM);
    EXPECT_EQ(join(server), 0);

    const std::string dump_a = slurp(dumps[0]);
    const std::string dump_b = slurp(dumps[1]);
    ASSERT_FALSE(dump_a.empty())
        << backend << ": client 2 wrote no replica dump";
    EXPECT_EQ(dump_a, dump_b)
        << backend << ": replica contents diverged between sites";
    EXPECT_NE(dump_a.find("262144 "), std::string::npos);

    // The backends must not just both "work" — the tcp run must actually
    // ride the fast path (negotiated, served, zero fallbacks), while the
    // udp control run must never touch it.
    const std::string bench = slurp(dir + "/BENCH_bulk_ab.json");
    ASSERT_FALSE(bench.empty()) << backend << ": bench JSON not written";
    const long long fast = bench_metric(bench, "bulk_fast_served");
    if (backend == "tcp") {
      EXPECT_GT(fast, 0) << backend << ": fast path never served a pull";
    } else {
      EXPECT_EQ(fast, 0) << backend << ": udp run used a fast backend";
    }
  }
}

}  // namespace
}  // namespace mocha::live
