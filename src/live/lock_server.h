// live::LockServer — one shard of the lock directory: the live runtime's
// front end to replica::LockTable (the sim's SyncService is the other). It decodes
// kAcquireLock / kReleaseLock / kRegisterLock on replica::kSyncPort, calls
// the table, and does the I/O: GRANTs, transfer directives, lease timers,
// metrics and the flight recorder.
//
// Everything runs on one live::Reactor thread per shard: message delivery
// signals an eventfd (Endpoint::set_ready_fd) whose handler drains the sync
// port, and every lease is a reactor timer armed at grant and cancelled at
// release. The table, blacklist included, is confined to that thread, so
// the server has no mutex, condvar or per-client thread.
//
// Sharding (docs/PROTOCOL.md §9): each shard owns the lock ids its ShardMap
// assigns it and answers kShardMapRequest with the whole map; with no map
// configured it serves everything.
//
// Sync-directed transfer (§3/§6, docs/PROTOCOL.md §8): with a
// NEED_NEW_VERSION grant the server sends, ahead of the GRANT, a
// kTransferReplica directive to the last owner's daemon, which pushes the
// bundle while the GRANT is in flight (three one-way trips per hand-off,
// not four). Only daemon sites (non-zero ACQUIRE data_port) take part. A
// kNodeAddr introduction from this endpoint's peer table precedes the first
// directive per (owner, requester), so sites that never exchanged a
// datagram still find each other.
//
// Not yet carried over from the sim SyncService (docs/PROTOCOL.md §8):
// poll-and-redirect on daemon failure (the requester falls back to the home
// daemon itself), and the heartbeat confirm before a lease break — an
// expired lease breaks the lock directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/shard_map.h"
#include "replica/lock_table.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"

namespace mocha::live {

struct LockServerOptions {
  std::int64_t lease_grace_us = 300'000;
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

 private:
  // All handlers below run on the reactor thread (analyzer-enforced).
  void drain_sync_port() MOCHA_REACTOR_ONLY;
  void handle(Endpoint::Message msg) MOCHA_REACTOR_ONLY;
  void handle_acquire(util::WireReader& reader) MOCHA_REACTOR_ONLY;
  void handle_release(util::WireReader& reader) MOCHA_REACTOR_ONLY;
  void handle_shard_map_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  // §11 introspection: answers with the whole process's registry snapshot.
  void handle_stats_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  // Sends every grant the table admits for `lock_id`: arms the lease timer,
  // then the transfer directive (NEED_NEW_VERSION), then the GRANT.
  void grant_waiters(replica::LockId lock_id, std::int64_t now_us)
      MOCHA_REACTOR_ONLY;
  void send_grant(std::uint32_t site, net::Port grant_port,
                  const replica::GrantMsg& grant) MOCHA_REACTOR_ONLY;
  // Directs the last owner's daemon to push the replica to `req` (non-
  // blocking send; introduces the requester first when needed).
  void direct_transfer(const replica::LockTable::LockState& lock,
                       const replica::LockTable::Request& req)
      MOCHA_REACTOR_ONLY;
  // §4 lease breaker, fired by the hold's reactor timer. The table ignores
  // a (site, nonce) that no longer holds, so a timer racing a release +
  // re-acquire of the same site cannot break the new hold.
  void on_lease_expired(replica::LockId lock_id, std::uint32_t site,
                        std::uint64_t nonce) MOCHA_REACTOR_ONLY;
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
  replica::LockTable table_;
  ShardMap shard_map_;
  std::uint64_t queued_waiters_ = 0;  // incremental gauges, reactor thread
  std::uint64_t active_leases_ = 0;
  // (owner, requester) pairs whose kNodeAddr introduction was sent.
  std::set<std::pair<std::uint32_t, std::uint32_t>> introduced_;

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
