// mocha_perf — closed-loop load generator for the live Mocha runtime.
//
// Spawns `mocha_live --server` as its own process, builds the workload's
// sites in this process from the unmodified src/live libraries (one
// Endpoint per site, one LockClient per application thread, a
// DaemonService per site for replica workloads), and drives acquire /
// release rounds for a fixed time. Every round is checked for correctness;
// a miss fails the run. The generator, its threads and the server all run
// on one CPU.
//
//   mocha_perf --workload lock_lan|replica_wan|bulk_lossy --seed N
//              --seconds S --trace 0|1 --server-bin PATH
//              [--spans-out FILE] [--inject lost-update|corrupt-replica]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run alternates untraced and traced windows and the
// metrics are the per-layer ones (plus the tracing overhead between the two
// kinds of window). See perfbench/NOTES.md for what each metric means.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/proc.h"
#include "loadgen/stats.h"
#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/telemetry.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using mocha::live::DaemonService;
using mocha::live::Endpoint;
using mocha::live::LockClient;
using mocha::replica::LockId;
using mocha::replica::LockWireMode;
using mocha::replica::Version;

constexpr mocha::net::NodeId kServerNode = 1;
constexpr mocha::net::NodeId kFirstSite = 2;
constexpr mocha::net::NodeId kScraperNode = 900;
constexpr mocha::net::Port kScrapePort = 7;
constexpr const char* kReplicaName = "r";
constexpr int kSetupRepeats = 25;
constexpr int kUntracedWindows = 20;
constexpr double kWarmupSeconds = 1.0;

struct Workload {
  std::string name;
  int shards = 1;
  int sites = 1;
  int threads_per_site = 1;
  double loss_pct = 0.0;
  std::int64_t delay_us = 0;
  std::size_t replica_bytes = 0;  // 0: no daemon, lock-only rounds
  int lock_space = 0;             // lock_lan: Zipf over this many ids
  double shared_fraction = 0.0;
  int trace_every = 1;  // traced windows record spans for 1 round in N
};

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "lock_lan") {
    w.shards = 2;
    w.sites = 1;
    w.threads_per_site = 2;
    w.lock_space = 256;
    w.shared_fraction = 0.75;
    w.trace_every = 8;
  } else if (name == "replica_wan") {
    w.sites = 4;
    w.delay_us = 5000;
    w.replica_bytes = 4096;
  } else if (name == "bulk_lossy") {
    w.sites = 2;
    w.loss_pct = 2.0;
    w.delay_us = 1000;
    w.replica_bytes = 256 * 1024;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string spans_out;
  std::string inject;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return mocha::util::SplitMix64(a * 0x9e3779b97f4a7c15ull ^ b).next();
}

// Replica contents written at `version`: a header naming (lock, version)
// followed by bytes derived from (seed, lock, version), so any holder can
// recompute exactly what the previous holder wrote.
mocha::util::Buffer replica_contents(std::uint64_t seed, LockId lock,
                                     Version version, std::size_t size) {
  mocha::util::Buffer out(size);
  mocha::util::SplitMix64 rng(mix(mix(seed, lock), version));
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
  const std::uint64_t header[2] = {lock, version};
  std::memcpy(out.data(), header, std::min(size, sizeof(header)));
  return out;
}

// Zipf(s) over [1, n] by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<std::size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  LockId draw(mocha::util::SplitMix64& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<LockId>(
        1 + std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                     static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

enum SpanName : int {
  kRound,
  kAcquire,
  kGrant,
  kTransfer,
  kRead,
  kWrite,
  kRelease,
  kSpanNames
};
constexpr std::array<const char*, kSpanNames> kSpanLabel = {
    "round",        "lock_client.acquire",  "lock_client.grant",
    "lock_client.transfer", "daemon.read", "daemon.write",
    "lock_client.release"};

// What one application thread did during one window.
struct ThreadWindow {
  std::vector<std::int64_t> acquire_ns;
  std::vector<std::int64_t> grant_ns;
  std::vector<std::int64_t> transfer_ns;
  std::uint64_t attempted = 0;
  std::uint64_t rounds = 0;
  std::vector<Span> spans;
};

struct Site {
  std::unique_ptr<Endpoint> endpoint;
  std::unique_ptr<DaemonService> daemon;
  std::vector<std::unique_ptr<LockClient>> clients;
};

// Generator- and server-side counters at one phase boundary.
struct Counters {
  std::int64_t t_ns = 0;
  std::int64_t server_cpu_ns = 0;
  std::int64_t self_cpu_ns = 0;
  HostCpu host;
  std::optional<Snapshot> server;
  Snapshot local;
  std::uint64_t msgs_sent = 0, frags_sent = 0, retransmits = 0, nacks = 0,
                piggybacked = 0, delivered = 0, netem_drops = 0,
                rx_batches = 0, rx_datagrams = 0;
  std::uint64_t pulled = 0, retries = 0, timeouts = 0;
  std::uint64_t applied = 0, stale = 0, fallbacks = 0;
};

struct Window {
  bool traced = false;
  Counters before;
  Counters after;
  std::vector<ThreadWindow> threads;
};

class Bench {
 public:
  Bench(Args args, Workload w)
      : args_(std::move(args)), w_(std::move(w)), zipf_(std::max(1, w_.lock_space), 0.99) {}
  ~Bench() { teardown(); }

  int run();

 private:
  int threads() const { return w_.sites * w_.threads_per_site; }
  // Replica workloads pair sites up: sites 2k and 2k+1 share lock k+1.
  static LockId replica_lock(int site) { return static_cast<LockId>(1 + site / 2); }

  void deploy();
  void teardown();
  // `closing`: the snapshot ends a window, so the clock and CPU readings
  // come before the (slow) server scrape rather than after it.
  Counters read_counters(bool scrape, bool closing);
  bool round(int tid, ThreadWindow* out, bool traced);
  void worker(int tid);
  void run_window(Window& win, double seconds, bool scrape);
  void final_checks();
  // Records `count` missed operations and stops the run.
  void fail(const std::string& what, std::uint64_t count = 1);
  void report(const std::vector<Window>& windows, const Counters& end,
              double setup_s, std::int64_t rss_kib);

  Args args_;
  Workload w_;
  Zipf zipf_;
  int cpu_ = -1;  // the CPU the run is pinned to; -1 when not pinned

  std::unique_ptr<ServerProcess> server_;
  std::vector<Site> sites_;
  std::unique_ptr<Endpoint> scraper_;
  int deployments_ = 0;  // salts the netem seeds of each set-up repeat

  // Per-thread generator state (survives across windows).
  struct ThreadState {
    mocha::util::SplitMix64 rng{0};
    std::uint64_t seq = 0;
    std::uint64_t trace_seq = 0;
  };
  std::vector<ThreadState> tstate_;

  // lock_lan correctness: a per-lock counter bumped with a separate load and
  // store by exclusive holders, and the writer/reader occupancy of each lock.
  std::vector<std::atomic<std::int64_t>> counter_;
  std::vector<std::atomic<int>> writers_;
  std::vector<std::atomic<int>> readers_;
  std::vector<std::vector<std::int64_t>> tally_;  // [tid][lock]

  // Phase control.
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable parked_cv_;
  int phase_ = 0;
  int parked_ = 0;
  bool quit_ = false;
  bool traced_phase_ = false;
  std::vector<ThreadWindow>* phase_out_ = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_{false};
  std::atomic<bool> inject_pending_{false};
  std::vector<std::thread> workers_;

  std::mutex fail_mu_;
  std::vector<std::string> failures_;
  std::uint64_t failed_ops_ = 0;  // rounds and checks that missed
};

void Bench::fail(const std::string& what, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  failed_ops_ += count;
  if (failures_.size() < 20) failures_.push_back(what);
  abort_.store(true);
}

void Bench::deploy() {
  std::vector<std::string> argv = {args_.server_bin, "--server", "--port",
                                   "0", "--shards",
                                   std::to_string(w_.shards)};
  if (w_.delay_us > 0) {
    argv.insert(argv.end(), {"--delay-us", std::to_string(w_.delay_us)});
  }
  if (w_.loss_pct > 0) {
    char loss[32];
    std::snprintf(loss, sizeof(loss), "%g", w_.loss_pct);
    argv.insert(argv.end(), {"--loss-pct", loss});
  }
  server_ = std::make_unique<ServerProcess>(argv, w_.shards, 10'000'000);
  const std::uint16_t bootstrap = server_->ports().front();

  sites_.clear();
  sites_.resize(static_cast<std::size_t>(w_.sites));
  // Each set-up repeat draws its own loss pattern, so the median set-up
  // time is not that of one pattern of the seed.
  const std::uint64_t netem_seed = mix(args_.seed, static_cast<std::uint64_t>(deployments_++));
  for (int s = 0; s < w_.sites; ++s) {
    Site& site = sites_[static_cast<std::size_t>(s)];
    const mocha::net::NodeId node = kFirstSite + static_cast<mocha::net::NodeId>(s);
    mocha::live::EndpointOptions eo;
    eo.recv_loss_pct = w_.loss_pct;
    eo.recv_delay_us = w_.delay_us;
    eo.netem_seed = mix(netem_seed, node);
    site.endpoint = std::make_unique<Endpoint>(node, 0, eo);
    site.endpoint->add_peer(kServerNode, "127.0.0.1", bootstrap);
    if (w_.replica_bytes > 0) {
      site.daemon = std::make_unique<DaemonService>(*site.endpoint);
      site.daemon->start();
    }
    for (int c = 0; c < w_.threads_per_site; ++c) {
      // The LockClientOptions contract: a disjoint reply-port range of two
      // ports per distinct lock id the client can touch (plus two spare; the
      // shard-map handshake takes one), and a disjoint nonce space.
      const int locks = std::max(1, w_.lock_space);
      const int span = 2 * locks + 2;
      mocha::live::LockClientOptions lo;
      lo.reply_port_base = static_cast<mocha::net::Port>(1000 + c * span);
      lo.nonce_seed = static_cast<std::uint64_t>(c + 1) << 32;
      site.clients.push_back(std::make_unique<LockClient>(
          *site.endpoint, kServerNode, lo, site.daemon.get()));
    }
  }
  scraper_ = std::make_unique<Endpoint>(kScraperNode, 0);
  scraper_->add_peer(kServerNode, "127.0.0.1", bootstrap);

  for (Site& site : sites_) {
    for (auto& client : site.clients) {
      const auto st = client->fetch_shard_map(10'000'000);
      if (!st.is_ok()) throw std::runtime_error("fetch_shard_map: " + st.to_string());
    }
  }
  for (int s = 0; s < w_.sites && w_.replica_bytes > 0; ++s) {
    Site& site = sites_[static_cast<std::size_t>(s)];
    const LockId lock = replica_lock(s);
    site.daemon->register_replica(
        lock, kReplicaName,
        replica_contents(args_.seed, lock, 0, w_.replica_bytes));
    site.clients.front()->register_lock(lock);
  }

  const auto locks = static_cast<std::size_t>(std::max(1, w_.lock_space) + 1);
  counter_ = std::vector<std::atomic<std::int64_t>>(locks);
  writers_ = std::vector<std::atomic<int>>(locks);
  readers_ = std::vector<std::atomic<int>>(locks);
  tally_.assign(static_cast<std::size_t>(threads()),
                std::vector<std::int64_t>(locks, 0));
  tstate_.assign(static_cast<std::size_t>(threads()), ThreadState{});
  for (int t = 0; t < threads(); ++t) {
    tstate_[static_cast<std::size_t>(t)].rng =
        mocha::util::SplitMix64(mix(args_.seed, 0x1000 + static_cast<std::uint64_t>(t)));
  }
  // One round per application thread, in order, completes set-up.
  for (int t = 0; t < threads(); ++t) {
    if (!round(t, nullptr, false)) {
      throw std::runtime_error("set-up round failed");
    }
  }
}

void Bench::teardown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = false;
  }
  // The server goes first, while the sites can still ack its last
  // messages, so its exit linger has nothing left to wait for.
  if (server_) server_->stop();
  server_.reset();
  // Sites stop in parallel: each daemon's threads take up to one receive
  // timeout to notice the stop.
  std::vector<std::thread> stoppers;
  for (Site& site : sites_) {
    stoppers.emplace_back([&site] {
      site.clients.clear();
      if (site.daemon) site.daemon->stop();
      site.daemon.reset();
      site.endpoint.reset();
    });
  }
  for (auto& t : stoppers) t.join();
  sites_.clear();
  scraper_.reset();
}

Counters Bench::read_counters(bool scrape, bool closing) {
  Counters c;
  auto read_clocks = [&] {
    c.server_cpu_ns = process_cpu_ns(server_->pid());
    c.self_cpu_ns = self_cpu_ns();
    c.host = host_cpu(cpu_);
    c.t_ns = now_ns();
  };
  if (closing) read_clocks();
  if (scrape) {
    auto reply = mocha::live::scrape_stats(*scraper_, kServerNode, kScrapePort,
                                           5'000'000);
    if (!reply.has_value()) {
      fail("no stats reply from the server");
    } else {
      c.server = from_reply(*reply);
    }
  }
  c.local = from_registry(mocha::live::MetricsRegistry::global().snapshot());
  for (const Site& site : sites_) {
    const Endpoint& ep = *site.endpoint;
    c.msgs_sent += ep.messages_sent();
    c.frags_sent += ep.fragments_sent();
    c.retransmits += ep.retransmissions();
    c.nacks += ep.nacks_sent();
    c.piggybacked += ep.acks_piggybacked();
    c.delivered += ep.messages_delivered();
    c.netem_drops += ep.netem_dropped();
    c.rx_batches += ep.rx_batches();
    c.rx_datagrams += ep.rx_batched_datagrams();
    for (const auto& client : site.clients) {
      c.pulled += client->transfers_pulled();
      c.retries += client->transfer_retries();
      c.timeouts += client->transfer_timeouts();
    }
    if (site.daemon) {
      const auto ds = site.daemon->stats();
      c.applied += ds.transfers_applied;
      c.stale += ds.stale_drops;
      c.fallbacks += ds.bulk_fallbacks;
    }
  }
  if (!closing) read_clocks();
  return c;
}

// One acquire / hold / release cycle of thread `tid`. `out` is null during
// set-up and the final checks (nothing is recorded). Returns false on a
// failure, which has already been recorded.
bool Bench::round(int tid, ThreadWindow* out, bool traced) {
  ThreadState& ts = tstate_[static_cast<std::size_t>(tid)];
  const int site_idx = tid / w_.threads_per_site;
  Site& site = sites_[static_cast<std::size_t>(site_idx)];
  LockClient& client =
      *site.clients[static_cast<std::size_t>(tid % w_.threads_per_site)];

  LockId lock = 0;
  LockWireMode mode = LockWireMode::kExclusive;
  if (w_.replica_bytes > 0) {
    lock = replica_lock(site_idx);
  } else {
    lock = zipf_.draw(ts.rng);
    if (ts.rng.chance(w_.shared_fraction)) mode = LockWireMode::kShared;
  }
  const bool record_spans =
      traced && out != nullptr && (ts.trace_seq++ % static_cast<std::uint64_t>(w_.trace_every)) == 0;
  const std::uint64_t round_id =
      (static_cast<std::uint64_t>(tid + 1) << 40) | ++ts.seq;
  if (out != nullptr) ++out->attempted;

  auto failed = [&](const std::string& what) {
    fail("thread " + std::to_string(tid) + " lock " + std::to_string(lock) +
         ": " + what);
    return false;
  };

  const std::int64_t t0 = now_ns();
  const auto acquired = client.acquire(lock, mode);
  const std::int64_t t1 = now_ns();
  if (!acquired.is_ok()) return failed("acquire: " + acquired.to_string());
  const std::int64_t grant_ns =
      std::min(t1 - t0, client.last_grant_latency_us() * 1000);

  std::int64_t tr0 = 0, tr1 = 0, tw0 = 0, tw1 = 0;
  bool ok = true;
  std::string miss;
  const auto lk = static_cast<std::size_t>(lock);
  if (w_.replica_bytes > 0) {
    // The holder must read exactly what the previous holder wrote at the
    // granted version.
    const Version v = client.version(lock);
    tr0 = now_ns();
    const mocha::util::Buffer seen = site.daemon->read(lock, kReplicaName);
    tr1 = now_ns();
    const auto expect = replica_contents(args_.seed, lock, v, w_.replica_bytes);
    if (seen != expect || site.daemon->local_version(lock) != v) {
      ok = false;
      miss = "replica does not hold the bytes written at version " +
             std::to_string(v);
    }
    auto next = replica_contents(args_.seed, lock, v + 1, w_.replica_bytes);
    if (out != nullptr && tid == 0 && args_.inject == "corrupt-replica" &&
        inject_pending_.exchange(false)) {
      next[next.size() / 2] ^= 0x5a;
    }
    tw0 = now_ns();
    site.daemon->write(lock, kReplicaName, std::move(next));
    tw1 = now_ns();
  } else if (mode == LockWireMode::kExclusive) {
    if (writers_[lk].exchange(1) != 0 || readers_[lk].load() != 0) {
      ok = false;
      miss = "exclusive grant while another holder is active";
    }
    const std::int64_t v = counter_[lk].load(std::memory_order_relaxed);
    const bool skip = out != nullptr && tid == 0 &&
                      args_.inject == "lost-update" &&
                      inject_pending_.exchange(false);
    if (!skip) counter_[lk].store(v + 1, std::memory_order_relaxed);
    ++tally_[static_cast<std::size_t>(tid)][lk];
    writers_[lk].store(0);
  } else {
    readers_[lk].fetch_add(1);
    if (writers_[lk].load() != 0) {
      ok = false;
      miss = "shared grant while a writer is active";
    }
    readers_[lk].fetch_sub(1);
  }

  const std::int64_t t2 = now_ns();
  const auto released = client.release(lock);
  const std::int64_t t3 = now_ns();
  if (!released.is_ok()) return failed("release: " + released.to_string());
  if (!ok) return failed(miss);
  if (out == nullptr) return true;

  ++out->rounds;
  out->acquire_ns.push_back(t1 - t0);
  out->grant_ns.push_back(grant_ns);
  out->transfer_ns.push_back(t1 - t0 - grant_ns);
  if (record_spans) {
    const std::uint64_t root = round_id << 3;
    auto add = [&](SpanName name, std::uint64_t parent, std::int64_t a,
                   std::int64_t b) {
      out->spans.push_back(Span{root | static_cast<std::uint64_t>(name),
                                parent, round_id, name, a, b});
    };
    add(kRound, 0, t0, t3);
    add(kAcquire, root, t0, t1);
    add(kGrant, root | kAcquire, t0, t0 + grant_ns);
    add(kTransfer, root | kAcquire, t0 + grant_ns, t1);
    if (w_.replica_bytes > 0) {
      add(kRead, root, tr0, tr1);
      add(kWrite, root, tw0, tw1);
    }
    add(kRelease, root, t2, t3);
  }
  return true;
}

void Bench::worker(int tid) {
  int seen = 0;
  while (true) {
    std::vector<ThreadWindow>* out = nullptr;
    bool traced = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return quit_ || phase_ > seen; });
      if (quit_) return;
      seen = phase_;
      out = phase_out_;
      traced = traced_phase_;
    }
    ThreadWindow& mine = (*out)[static_cast<std::size_t>(tid)];
    try {
      while (!stop_.load(std::memory_order_acquire) && !abort_.load()) {
        if (!round(tid, &mine, traced)) break;
      }
    } catch (const std::exception& e) {
      fail("thread " + std::to_string(tid) + ": " + e.what());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++parked_;
    }
    parked_cv_.notify_all();
  }
}

// Runs every worker for `seconds`, then waits until all of them finished
// their current round; counters are read with the workers parked.
void Bench::run_window(Window& win, double seconds, bool scrape) {
  win.threads.assign(static_cast<std::size_t>(threads()), ThreadWindow{});
  win.before = read_counters(scrape, false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(false);
    parked_ = 0;
    traced_phase_ = win.traced;
    phase_out_ = &win.threads;
    ++phase_;
  }
  cv_.notify_all();
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < until && !abort_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(mu_);
    parked_cv_.wait(lock, [&] { return parked_ == threads(); });
  }
  win.after = read_counters(scrape, true);
}

// End state: lock_lan counters equal the exclusive rounds each thread made;
// replica workloads end with one shared round whose replicas must be
// byte-identical at every site and equal to the last version written.
void Bench::final_checks() {
  if (w_.replica_bytes == 0) {
    for (std::size_t lk = 1; lk < counter_.size(); ++lk) {
      std::int64_t expected = 0;
      for (const auto& t : tally_) expected += t[lk];
      if (counter_[lk].load() != expected) {
        fail("lost update on lock " + std::to_string(lk) + ": counter " +
             std::to_string(counter_[lk].load()) + ", exclusive rounds " +
             std::to_string(expected));
      }
    }
    return;
  }
  std::vector<mocha::util::Buffer> seen(sites_.size());
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    LockClient& client = *sites_[s].clients.front();
    const LockId lock = replica_lock(static_cast<int>(s));
    const auto st = client.acquire(lock, LockWireMode::kShared);
    if (!st.is_ok()) {
      fail("final shared acquire: " + st.to_string());
      continue;
    }
    seen[s] = sites_[s].daemon->read(lock, kReplicaName);
    const auto expect = replica_contents(args_.seed, lock,
                                         client.version(lock), w_.replica_bytes);
    if (seen[s] != expect) {
      fail("final replica at site " + std::to_string(s) +
           " differs from the last version written");
    }
  }
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    for (std::size_t o = 0; o < s; ++o) {
      if (replica_lock(static_cast<int>(o)) == replica_lock(static_cast<int>(s)) &&
          seen[o] != seen[s]) {
        fail("final replicas of sites " + std::to_string(o) + " and " +
             std::to_string(s) + " differ");
      }
    }
    LockClient& client = *sites_[s].clients.front();
    const LockId lock = replica_lock(static_cast<int>(s));
    if (!client.held(lock)) continue;
    const auto st = client.release(lock);
    if (!st.is_ok()) fail("final shared release: " + st.to_string());
  }
}

int Bench::run() {
  // The server and every thread of the run share one CPU: a message then
  // hands over by a context switch on that CPU, not by waking another
  // virtual CPU, whose latency on a shared host follows the other guests.
  cpu_ = pin_to_one_cpu();
  std::printf("cpu %d\n", cpu_);
  // Set-up is repeated; the last deployment is kept for the measurement.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    const std::int64_t t0 = now_ns();
    deploy();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median_of(setups);
  std::printf("setup_s samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  for (int t = 0; t < threads(); ++t) workers_.emplace_back([this, t] { worker(t); });

  Window warm;
  run_window(warm, kWarmupSeconds, false);

  // Untraced: twenty windows; report() leaves out the ones with more host
  // steal than the median window, so a burst of outside load on a shared
  // machine is left out.
  // Traced: alternating untraced/traced windows so drift affects both
  // kinds alike.
  const int n_windows = args_.trace ? 6 : kUntracedWindows;
  std::vector<Window> windows(static_cast<std::size_t>(n_windows));
  inject_pending_.store(!args_.inject.empty());
  const HostCpu host_before = host_cpu(cpu_);
  for (int i = 0; i < n_windows && !abort_.load(); ++i) {
    windows[static_cast<std::size_t>(i)].traced = args_.trace && i % 2 == 1;
    run_window(windows[static_cast<std::size_t>(i)], args_.seconds / n_windows,
               true);
  }
  const HostCpu host_after = host_cpu(cpu_);
  // On a shared host, slow runs coincide with time stolen for other guests.
  std::printf("host steal %.2f%% of the run's CPU time while measuring\n",
              steal_pct(host_before, host_after));
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  if (!abort_.load()) final_checks();
  // The must-be-zero counters are read after the final shared round, so
  // that round is checked too.
  const Counters end = read_counters(true, true);

  const std::int64_t rss_kib = peak_rss_kib(server_->pid());
  report(windows, end, setup_s, rss_kib);
  teardown();
  return failures_.empty() ? 0 : 1;
}

struct Pooled {
  std::vector<std::int64_t> acquire, grant, transfer;
  std::vector<Span> spans;
  std::uint64_t attempted = 0, rounds = 0;
  double seconds = 0;
  std::int64_t server_cpu = 0, self_cpu = 0;
};

Pooled pool(const std::vector<Window>& windows, bool traced) {
  Pooled p;
  for (const Window& w : windows) {
    if (w.traced != traced || w.threads.empty()) continue;
    for (const ThreadWindow& t : w.threads) {
      p.acquire.insert(p.acquire.end(), t.acquire_ns.begin(), t.acquire_ns.end());
      p.grant.insert(p.grant.end(), t.grant_ns.begin(), t.grant_ns.end());
      p.transfer.insert(p.transfer.end(), t.transfer_ns.begin(), t.transfer_ns.end());
      p.spans.insert(p.spans.end(), t.spans.begin(), t.spans.end());
      p.attempted += t.attempted;
      p.rounds += t.rounds;
    }
    p.seconds += static_cast<double>(w.after.t_ns - w.before.t_ns) / 1e9;
    p.server_cpu += w.after.server_cpu_ns - w.before.server_cpu_ns;
    p.self_cpu += w.after.self_cpu_ns - w.before.self_cpu_ns;
  }
  return p;
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void Bench::report(const std::vector<Window>& windows, const Counters& end,
                   double setup_s, std::int64_t rss_kib) {
  const Pooled u = pool(windows, false);
  const Pooled t = pool(windows, true);

  // Run-level checks: the counters that must stay 0 on these workloads.
  std::uint64_t lease_breaks = 0;
  const std::uint64_t timeouts = end.timeouts;
  std::uint64_t fallbacks = end.fallbacks;
  if (end.server.has_value()) {
    const Snapshot empty;
    lease_breaks = static_cast<std::uint64_t>(
        scalar_delta(empty, *end.server, "shard.", ".lease_breaks"));
    fallbacks += static_cast<std::uint64_t>(
        scalar_delta(empty, *end.server, "daemon.", ".bulk_fallbacks"));
  }
  for (const auto& [name, n] : {std::pair<const char*, std::uint64_t>{"lease_breaks", lease_breaks},
                                {"transfer_timeouts", timeouts},
                                {"bulk.fallbacks", fallbacks}}) {
    if (n != 0) {
      fail(std::string(name) + " = " + std::to_string(n) + ", expected 0", n);
    }
  }

  const std::uint64_t attempted = std::max<std::uint64_t>(1, u.attempted + t.attempted);
  const std::uint64_t failed = failed_ops_;
  const bool correct = failures_.empty();

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d threads %d nproc %ld\n",
              w_.name.c_str(), args_.seed, args_.seconds, args_.trace ? 1 : 0,
              threads(), ::sysconf(_SC_NPROCESSORS_ONLN));
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());

  auto rounds_per_s = [](const Pooled& p) { return ratio(static_cast<double>(p.rounds), p.seconds); };
  auto goodput = [&](bool traced) {
    std::uint64_t applied = 0;
    double secs = 0;
    for (const Window& w : windows) {
      if (w.traced != traced || w.threads.empty()) continue;
      applied += w.after.applied - w.before.applied;
      secs += static_cast<double>(w.after.t_ns - w.before.t_ns) / 1e9;
    }
    return ratio(static_cast<double>(applied * w_.replica_bytes), secs) / (1024.0 * 1024.0);
  };

  JsonMetrics m;
  if (!args_.trace) {
    // A shared host takes CPU time away from the run's CPU in bursts, and a
    // window with more time stolen is slower in every metric. The
    // end-to-end values are medians over the windows with no more stolen
    // time than the median window. The gated tail is p90: on a shared host
    // the p99 of an operation this short follows the stolen share itself
    // (see NOTES.md), so it is printed beside the result but not gated.
    std::vector<const Window*> ran;
    std::vector<double> steal;
    for (const Window& w : windows) {
      if (w.threads.empty()) continue;
      ran.push_back(&w);
      steal.push_back(steal_pct(w.before.host, w.after.host));
    }
    const std::vector<std::size_t> kept = least_stolen(steal);
    std::vector<double> w_rate, w_cpu, w_p50, w_p90;
    std::vector<std::int64_t> kept_acquire;  // pooled, for the ungated p99
    std::size_t fewest = kept.empty() ? 0 : SIZE_MAX;
    for (std::size_t i : kept) {
      Pooled p = pool({*ran[i]}, false);
      kept_acquire.insert(kept_acquire.end(), p.acquire.begin(), p.acquire.end());
      fewest = std::min(fewest, p.acquire.size());
      w_rate.push_back(rounds_per_s(p));
      w_cpu.push_back(ratio(static_cast<double>(p.server_cpu + p.self_cpu) / 1000.0,
                            static_cast<double>(p.rounds)));
      w_p50.push_back(percentile(p.acquire, 0.5) / 1000.0);
      w_p90.push_back(percentile(p.acquire, 0.9) / 1000.0);
    }
    std::printf("end-to-end: medians over the %zu of %zu windows with the least host "
                "steal (acquire samples %zu; fewest in a window %zu, beyond its p90 %zu; "
                "op_fail_ratio %.6f = %" PRIu64 "/%" PRIu64 ")\n",
                kept.size(), ran.size(), kept_acquire.size(), fewest,
                samples_beyond(fewest, 0.9),
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                failed, attempted);
    std::printf("per-window host steal %% (* kept):");
    for (std::size_t i = 0; i < ran.size(); ++i) {
      const bool k = std::find(kept.begin(), kept.end(), i) != kept.end();
      std::printf(" %.2f%s", steal[i], k ? "*" : "");
    }
    std::printf("\nper-window rounds_per_s:");
    for (const Window* w : ran) std::printf(" %.1f", rounds_per_s(pool({*w}, false)));
    std::printf("\n");
    m.add("setup_s", setup_s, "s");
    m.add("rounds_per_s", median_of(w_rate), "1/s");
    m.add("acquire_p50_us", median_of(w_p50), "us");
    m.add("acquire_p90_us", median_of(w_p90), "us");
    m.add("cpu_us_per_round", median_of(w_cpu), "us");
    m.add("server_peak_rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB");
    std::printf("  %-34s %14.4f %s (pooled over the kept windows, %zu beyond it)\n",
                "acquire_p99_us", percentile(kept_acquire, 0.99) / 1000.0, "us",
                samples_beyond(kept_acquire.size(), 0.99));
    if (w_.replica_bytes > 0) {
      std::printf("  %-34s %14.4f %s\n", "goodput_mib_s", goodput(false), "MiB/s");
    }
    std::printf("  %-34s %14.6f %s\n", "op_fail_ratio",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  } else {
    // Per-layer metrics over the traced windows only.
    const double rounds = static_cast<double>(std::max<std::uint64_t>(1, t.rounds));
    bool have_server = true;
    std::uint64_t d_msgs = 0, d_frags = 0, d_retx = 0, d_nacks = 0, d_piggy = 0,
                  d_deliv = 0, d_drops = 0, d_rxb = 0, d_rxd = 0, d_pulled = 0,
                  d_retries = 0, d_applied = 0, d_stale = 0;
    std::int64_t d_grants = 0, d_breaks = 0;
    mocha::live::Histogram::Snapshot wait, send_ack, bundle_send;
    std::int64_t d_bytes_in = 0;
    for (const Window& w : windows) {
      if (!w.traced || w.threads.empty()) continue;
      const Counters& x = w.before;
      const Counters& y = w.after;
      d_msgs += y.msgs_sent - x.msgs_sent;
      d_frags += y.frags_sent - x.frags_sent;
      d_retx += y.retransmits - x.retransmits;
      d_nacks += y.nacks - x.nacks;
      d_piggy += y.piggybacked - x.piggybacked;
      d_deliv += y.delivered - x.delivered;
      d_drops += y.netem_drops - x.netem_drops;
      d_rxb += y.rx_batches - x.rx_batches;
      d_rxd += y.rx_datagrams - x.rx_datagrams;
      d_pulled += y.pulled - x.pulled;
      d_retries += y.retries - x.retries;
      d_applied += y.applied - x.applied;
      d_stale += y.stale - x.stale;
      if (x.server && y.server) {
        d_grants += scalar_delta(*x.server, *y.server, "shard.", ".grants");
        d_breaks += scalar_delta(*x.server, *y.server, "shard.", ".lease_breaks");
        wait.merge(hist_delta(*x.server, *y.server, "shard.", ".wait_us"));
      } else {
        have_server = false;
      }
      for (const Site& site : sites_) {
        const std::string node = std::to_string(site.endpoint->node());
        send_ack.merge(hist_delta(x.local, y.local, "ep." + node + ".", "send_ack_us"));
        bundle_send.merge(hist_delta(x.local, y.local, "daemon." + node + ".", "bundle_send_us"));
        d_bytes_in += scalar_delta(x.local, y.local, "daemon." + node + ".", "bytes_in");
      }
    }
    if (!have_server) fail("server counters missing at a traced window boundary");

    // Span durations and self times by name.
    const std::vector<std::int64_t> self = self_times(t.spans);
    std::array<std::vector<std::int64_t>, kSpanNames> dur, selfs;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      dur[static_cast<std::size_t>(s.name)].push_back(s.end_ns - s.start_ns);
      selfs[static_cast<std::size_t>(s.name)].push_back(self[i]);
    }
    auto span_p50 = [&](SpanName n) { return percentile(dur[n], 0.5) / 1000.0; };
    auto self_p50 = [&](SpanName n) { return percentile(selfs[n], 0.5) / 1000.0; };

    std::vector<std::int64_t> grant = t.grant, transfer = t.transfer, acq_t = t.acquire,
                              acq_u = u.acquire;
    const double acq_t_p50 = percentile(acq_t, 0.5);
    const double acq_u_p50 = percentile(acq_u, 0.5);
    std::uint64_t metric_count = 0;
    if (end.server) metric_count = end.server->scalars.size() + end.server->hists.size();

    std::printf("per-layer (traced windows: %" PRIu64 " rounds over %.2f s; spans %zu)\n",
                t.rounds, t.seconds, t.spans.size());
    m.add("lock_client.grant_p50_us", percentile(grant, 0.5) / 1000.0, "us");
    m.add("lock_client.grant_p99_us", percentile(grant, 0.99) / 1000.0, "us");
    m.add("lock_client.transfer_p50_us", percentile(transfer, 0.5) / 1000.0, "us");
    m.add("lock_client.release_p50_us", span_p50(kRelease), "us");
    m.add("lock_client.pulls_per_round", static_cast<double>(d_pulled) / rounds, "count/round");
    m.add("lock_client.transfer_retries", static_cast<double>(d_retries), "count");
    m.add("lock_server.queue_wait_p50_us", wait.percentile(0.5), "us");
    m.add("lock_server.queue_wait_p99_us", wait.percentile(0.99), "us");
    m.add("lock_server.grants_per_round", static_cast<double>(d_grants) / rounds, "count/round");
    m.add("lock_server.lease_breaks", static_cast<double>(d_breaks), "count");
    m.add("server.cpu_us_per_round", static_cast<double>(t.server_cpu) / 1000.0 / rounds, "us");
    m.add("client.cpu_us_per_round", static_cast<double>(t.self_cpu) / 1000.0 / rounds, "us");
    m.add("endpoint.msgs_per_round", static_cast<double>(d_msgs) / rounds, "count/round");
    m.add("endpoint.datagrams_per_round", static_cast<double>(d_frags + d_retx) / rounds,
          "count/round");
    m.add("endpoint.retransmit_ratio",
          ratio(static_cast<double>(d_retx), static_cast<double>(d_frags + d_retx)), "ratio");
    m.add("endpoint.nacks_per_round", static_cast<double>(d_nacks) / rounds, "count/round");
    m.add("endpoint.piggyback_ratio",
          ratio(static_cast<double>(d_piggy), static_cast<double>(d_deliv)), "ratio");
    m.add("endpoint.rx_batch_mean", ratio(static_cast<double>(d_rxd), static_cast<double>(d_rxb)),
          "count");
    m.add("endpoint.send_ack_p50_us", send_ack.percentile(0.5), "us");
    m.add("endpoint.send_ack_p99_us", send_ack.percentile(0.99), "us");
    m.add("endpoint.netem_drop_ratio",
          ratio(static_cast<double>(d_drops), static_cast<double>(d_rxd)), "ratio");
    m.add("daemon.wire_bytes_per_transfer",
          ratio(static_cast<double>(d_bytes_in), static_cast<double>(d_applied + d_stale)), "B");
    m.add("daemon.write_p50_us", span_p50(kWrite), "us");
    m.add("daemon.stale_drops", static_cast<double>(d_stale), "count");
    m.add("daemon.goodput_mib_s", goodput(true), "MiB/s");
    m.add("bulk.fallbacks", static_cast<double>(fallbacks), "count");
    m.add("telemetry.server_metric_count", static_cast<double>(metric_count), "count");
    m.add("span.round.p50_us", span_p50(kRound), "us");
    m.add("span.round.self_p50_us", self_p50(kRound), "us");
    m.add("span.lock_client.acquire.p50_us", span_p50(kAcquire), "us");
    m.add("span.lock_client.acquire.self_p50_us", self_p50(kAcquire), "us");
    m.add("span.lock_client.grant.p50_us", span_p50(kGrant), "us");
    m.add("span.lock_client.transfer.p50_us", span_p50(kTransfer), "us");
    m.add("span.daemon.read.p50_us", span_p50(kRead), "us");
    m.add("trace.stages_over_acquire",
          ratio(span_p50(kGrant) + span_p50(kTransfer), span_p50(kAcquire)), "ratio");
    m.add("trace.rounds_per_s_ratio", ratio(rounds_per_s(t), rounds_per_s(u)), "ratio");
    m.add("trace.acquire_p50_ratio", ratio(acq_t_p50, acq_u_p50), "ratio");
    std::printf("tracing overhead: rounds_per_s untraced %.1f traced %.1f; acquire_p50_us "
                "untraced %.1f traced %.1f\n",
                rounds_per_s(u), rounds_per_s(t), acq_u_p50 / 1000.0, acq_t_p50 / 1000.0);
    // Recorded only on the tcp and batched-udp bulk backends, so it reads 0
    // on the default udp path every workload uses; printed, not reported.
    std::printf("  %-34s %14.4f %s\n", "daemon.bundle_send_p50_us",
                bundle_send.percentile(0.5), "us");
    std::printf("stages add up: grant p50 %.1f us + transfer p50 %.1f us = %.1f us vs acquire "
                "p50 %.1f us\n",
                span_p50(kGrant), span_p50(kTransfer), span_p50(kGrant) + span_p50(kTransfer),
                span_p50(kAcquire));
    std::printf("span table (p50 duration / p50 self, us):\n");
    for (int n = 0; n < kSpanNames; ++n) {
      if (dur[static_cast<std::size_t>(n)].empty()) continue;
      std::printf("  %-22s %10.1f %10.1f  (n=%zu)\n", kSpanLabel[static_cast<std::size_t>(n)],
                  span_p50(static_cast<SpanName>(n)), self_p50(static_cast<SpanName>(n)),
                  dur[static_cast<std::size_t>(n)].size());
    }
    if (!args_.spans_out.empty()) {
      std::ofstream f(args_.spans_out);
      for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const Span& s = t.spans[i];
        f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"round\":" << s.round
          << ",\"name\":\"" << kSpanLabel[static_cast<std::size_t>(s.name)]
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"self_ns\":" << self[i] << "}\n";
      }
    }
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, m.body().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: mocha_perf --workload lock_lan|replica_wan|bulk_lossy --seed N"
               " --seconds S --trace 0|1 --server-bin PATH [--spans-out FILE]"
               " [--inject lost-update|corrupt-replica]\n");
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return perfbench::usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--server-bin") {
      args.server_bin = v;
    } else if (a == "--spans-out") {
      args.spans_out = v;
    } else if (a == "--inject") {
      args.inject = v;
    } else {
      return perfbench::usage();
    }
  }
  const auto workload = perfbench::workload_named(args.workload);
  if (!workload || args.server_bin.empty() || args.seconds <= 0) {
    return perfbench::usage();
  }
  if (!args.inject.empty() && args.inject != "lost-update" &&
      args.inject != "corrupt-replica") {
    return perfbench::usage();
  }
  try {
    perfbench::Bench bench(args, *workload);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mocha_perf: %s\n", e.what());
    return 1;
  }
}
