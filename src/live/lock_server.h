// live::LockServer — one shard of the lock directory, driven by a Reactor.
//
// The wall-clock twin of replica::SyncService, reduced to the lock core:
// strict-FIFO grant queue with shared-mode batching, version numbers, the
// up-to-date replica set, lock leases, and the §4 blacklist. It speaks the
// exact kAcquireLock / kReleaseLock / kRegisterLock / kGrant messages from
// replica/wire.h on logical port replica::kSyncPort.
//
// Event-loop architecture (PR 6): instead of a blocking serve thread
// alternating recv_for() with periodic lease scans, the server owns a
// live::Reactor. Message delivery signals an eventfd
// (Endpoint::set_ready_fd) whose readiness handler drains the sync port;
// every lease is an individual reactor timer armed at activation and
// cancelled at release (no scanning); blacklist expiry (when configured) is
// a timer too. One event-loop thread drives every waiter as continuation
// state in the grant queue — there is no per-client thread or condvar
// anywhere in the server.
//
// Sharding (docs/PROTOCOL.md §9): a deployment runs N LockServers, each on
// its own endpoint/reactor, each owning the lock ids its ShardMap assigns
// it. The server answers kShardMapRequest with the full map so clients can
// route; with no map configured it serves everything (single-shard, wire-
// compatible with pre-shard clients).
//
// Sync-directed replica transfer (paper §3/§6, docs/PROTOCOL.md §8): when
// activate() sends a NEED_NEW_VERSION grant it also sends, in the same
// reactor turn, a kTransferReplica directive to the last owner's daemon
// port, so the owner's daemon pushes the bundle to the requester while the
// GRANT is still in flight — three one-way trips per hand-off instead of the
// four of a requester-driven pull. Only daemon sites take part (an ACQUIRE
// with data_port 0 has no daemon). The first time an owner is directed
// toward a given requester, a kNodeAddr introduction from this endpoint's
// peer table precedes the directive, so two sites that never exchanged a
// datagram still find each other. Registered holders per lock are tracked
// as groundwork for UR push.
//
// Not yet carried over from the sim service (see docs/PROTOCOL.md §8):
// poll-and-redirect on daemon failure (the requester falls back to the home
// daemon itself), and the heartbeat confirm before a lease break — an
// expired lease breaks the lock directly.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/shard_map.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct LockServerOptions {
  std::int64_t default_expected_hold_us = 500'000;
  std::int64_t lease_grace_us = 300'000;
  // §4 keeps a broken-lock site blacklisted forever; a positive TTL expires
  // the entry via a reactor timer instead (operational escape hatch).
  std::int64_t blacklist_ttl_us = 0;
  // Shard id naming this shard's "shard.<id>." registry metrics and logs
  // (the ShardMap decides routing).
  std::uint32_t shard_id = 0;
  ReactorOptions reactor;
};

// MOCHA_REACTOR_SAFE (class-level): reactor callbacks may capture `this`
// because teardown is ordered — ~LockServer calls stop(), which stops the
// reactor and joins the loop thread before any member is destroyed.
class MOCHA_REACTOR_SAFE LockServer {
 public:
  LockServer(Endpoint& endpoint, LockServerOptions opts = {});
  ~LockServer();

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  // Installs the deployment's shard map served to kShardMapRequest clients.
  // Must be called before start(); an empty map makes the server advertise
  // itself as the only shard.
  void set_shard_map(ShardMap map);

  // Starts / stops the reactor thread. stop() is idempotent and joins.
  void start();
  void stop();

  bool is_blacklisted(std::uint32_t site) const EXCLUDES(mu_);

 private:
  struct Request {
    replica::LockId lock_id = 0;
    std::uint32_t site = 0;
    net::Port grant_port = 0;
    net::Port data_port = 0;
    std::uint64_t expected_hold_us = 0;
    replica::LockWireMode mode = replica::LockWireMode::kExclusive;
    std::uint64_t nonce = 0;
    // Reactor lease timer armed at activation, cancelled at release.
    Reactor::TimerId lease_timer = Reactor::kInvalidTimer;
    // Telemetry span anchors (monotonic): arrival -> activate() is the wait
    // histogram, activate() -> release is the hold histogram.
    std::int64_t enqueued_at_us = 0;
    std::int64_t granted_at_us = 0;
  };

  struct LockState {
    replica::LockId id = 0;
    std::vector<Request> active;  // current holders (readers, or one writer)
    std::deque<Request> waiting;
    replica::Version version = 0;
    std::optional<std::uint32_t> last_owner;  // last *writer*
    // data_port of the last writer's ACQUIRE; 0 = that site has no daemon.
    net::Port last_owner_data_port = 0;
    std::set<std::uint32_t> up_to_date;       // sites holding `version`
    std::set<std::uint32_t> holders;          // registered replica holders
    bool has_active_exclusive() const {
      return active.size() == 1 &&
             active.front().mode == replica::LockWireMode::kExclusive;
    }
  };

  // All handlers below run on the reactor thread (analyzer-enforced).
  void drain_sync_port() MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void handle(Endpoint::Message msg) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void handle_acquire(util::WireReader& reader) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void handle_release(util::WireReader& reader) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void handle_shard_map_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  // §11 introspection: answers with the whole process's registry snapshot.
  void handle_stats_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  void grant_from_queue(LockState& lock) MOCHA_REACTOR_ONLY;
  void activate(LockState& lock, Request req) MOCHA_REACTOR_ONLY;
  void send_grant(const Request& req, replica::Version version,
                  replica::GrantFlag flag,
                  const std::set<std::uint32_t>& holders,
                  std::uint32_t transfer_from = 0) MOCHA_REACTOR_ONLY;
  // Directs the last owner's daemon to push the replica to `req` (non-
  // blocking send; introduces the requester first when needed).
  void direct_transfer(const LockState& lock, const Request& req)
      MOCHA_REACTOR_ONLY;
  // §4 lease breaker, fired by the request's reactor timer. The (site,
  // nonce) pair guards against ABA: a timer racing a release + re-acquire of
  // the same site must not break the new hold.
  void on_lease_expired(replica::LockId lock_id, std::uint32_t site,
                        std::uint64_t nonce) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void blacklist_site(std::uint32_t site) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // Publishes the queue/lease gauges (call with counts current).
  void publish_gauges() MOCHA_REACTOR_ONLY;

  Endpoint& endpoint_;
  LockServerOptions opts_;
  Reactor reactor_;
  std::atomic<bool> running_{false};
  std::thread serve_thread_;
  int ready_fd_ = -1;  // eventfd bridging endpoint delivery -> reactor

  // Owned exclusively by the reactor thread while it runs (never touched
  // from other threads, so no capability guards it; the thread join in
  // stop() is the only synchronization it needs).
  std::map<replica::LockId, LockState> locks_;
  ShardMap shard_map_;
  std::uint64_t queued_waiters_ = 0;  // incremental gauges, reactor thread
  std::uint64_t active_leases_ = 0;
  // (owner, requester) pairs whose kNodeAddr introduction was sent.
  std::set<std::pair<std::uint32_t, std::uint32_t>> introduced_;

  mutable util::Mutex mu_;
  // The one cross-thread structure: the reactor thread writes it,
  // is_blacklisted() reads it from arbitrary threads.
  std::set<std::uint32_t> blacklist_ GUARDED_BY(mu_);

  // Registry handles ("shard.<id>.*"), resolved once in the constructor;
  // written from the reactor thread, scraped from anywhere.
  Counter* tm_acquires_ = nullptr;
  Counter* tm_grants_ = nullptr;
  Counter* tm_releases_ = nullptr;
  Counter* tm_lease_breaks_ = nullptr;
  Counter* tm_stats_requests_ = nullptr;
  Counter* tm_transfers_directed_ = nullptr;
  Counter* tm_registrations_ = nullptr;
  Counter* tm_shard_map_requests_ = nullptr;
  Gauge* tm_queue_depth_ = nullptr;
  Gauge* tm_active_leases_ = nullptr;
  Histogram* tm_wait_us_ = nullptr;
  Histogram* tm_hold_us_ = nullptr;
};

}  // namespace mocha::live
