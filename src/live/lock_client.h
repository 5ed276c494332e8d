// live::LockClient — the application-thread side of the entry-consistency
// lock protocol over real sockets (the wall-clock twin of
// replica::ReplicaLock::lock()/unlock()).
//
// Speaks the exact kAcquireLock / kReleaseLock / kRegisterLock / kGrant
// messages from replica/wire.h against a live::LockServer. When a
// DaemonService is attached, a NEED_NEW_VERSION grant means a replica
// transfer is on its way (paper §3: replicas are made consistent exactly
// when their lock is acquired):
//
//   1. the ACQUIRE carries data_port = kDaemonDataPort, telling the server
//      this site has a daemon to receive the bundle;
//   2. together with the grant, the server directs the last owner's daemon
//      to push the bundle to that port (sync-directed, §6);
//   3. acquire() blocks until the local daemon has applied the target
//      version — the push may even land before the grant.
//
// If the promised transfer never arrives, the client pulls once from the
// home daemon (the lock server's site), accepting whatever version it holds
// — the §4 weakened-consistency fallback. A second miss fails the acquire
// with a typed kTimeout (the lock is NOT released locally: the server's
// lease breaker owns cleanup, same as the sim).
//
// Without a daemon the ACQUIRE carries data_port 0, the server directs no
// transfer, and the client only adopts the version number.
//
// Not thread-safe: one LockClient serves one application thread, matching
// the per-thread grant reply ports of the paper's design.
#pragma once

#include <cstdint>
#include <map>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/shard_map.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"

namespace mocha::live {

struct LockClientOptions {
  std::int64_t grant_timeout_us = 10'000'000;
  std::int64_t default_expected_hold_us = 500'000;
  // Wait for a promised replica transfer before retrying / failing. Applied
  // per attempt (directed push, then home-daemon retry).
  std::int64_t transfer_timeout_us = 2'000'000;
  // First grant reply port (runtime::ports::kAppBase). The client takes one
  // port per distinct lock id it touches, plus one for fetch_shard_map();
  // give each LockClient sharing one endpoint a disjoint range that large.
  net::Port reply_port_base = 1000;
  // Starting nonce. Multiple LockClients sharing one endpoint appear as the
  // same site to the server, whose lease ABA guard keys on (site, nonce) —
  // give each a disjoint nonce space (e.g. reply_port_base << 32).
  std::uint64_t nonce_seed = 0;
};

class LockClient {
 public:
  // `server` must already be a known peer of `endpoint` (add_peer). The
  // client's site id on the wire is endpoint.node(). `daemon` (optional)
  // is this process's replica daemon; without it NEED_NEW_VERSION grants
  // only adopt the version number.
  LockClient(Endpoint& endpoint, net::NodeId server,
             LockClientOptions opts = {}, DaemonService* daemon = nullptr);

  // Sharded routing (docs/PROTOCOL.md §9): with a shard map installed,
  // every per-lock message (acquire/release/register and the home-daemon
  // retry) goes to the shard owning that lock id; without one,
  // everything goes to the bootstrap `server` (single-shard deployments).
  void set_shard_map(ShardMap map) { shard_map_ = std::move(map); }
  const ShardMap& shard_map() const { return shard_map_; }

  // Registration handshake: asks the bootstrap server for the deployment's
  // shard map (kShardMapRequest), registers every advertised shard endpoint
  // as a peer, and installs the map. kTimeout when no reply arrived.
  util::Status fetch_shard_map(std::int64_t timeout_us) MOCHA_BLOCKING;

  // Registers this site as a holder of `lock_id` with the owning shard
  // (fire-and-forget; acquire() also registers implicitly).
  void register_lock(replica::LockId lock_id);

  // Acquires `lock_id`; blocks until the GRANT arrives and — for
  // NEED_NEW_VERSION with an attached daemon — the replica transfer has
  // been applied. `expected_hold_us` feeds the server's lease-based failure
  // detector; 0 uses the default.
  // Errors: kRejected (this site was blacklisted after a broken lock),
  // kTimeout (no grant within grant_timeout, or the promised transfer never
  // arrived after the home-daemon retry).
  util::Status acquire(
      replica::LockId lock_id,
      replica::LockWireMode mode = replica::LockWireMode::kExclusive,
      std::int64_t expected_hold_us = 0) MOCHA_BLOCKING;

  // Releases a held lock; exclusive releases publish version + 1 (stamped
  // into the attached daemon first, so later transfers serve it).
  util::Status release(replica::LockId lock_id) MOCHA_BLOCKING;

  bool held(replica::LockId lock_id) const;
  replica::Version version(replica::LockId lock_id) const;

  // Request-to-GRANT latency of the most recent successful acquire()
  // (excludes the transfer wait; acquire-with-transfer is wall-clocked by
  // the caller).
  std::int64_t last_grant_latency_us() const { return last_grant_latency_us_; }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t releases() const { return releases_; }
  // NEED_NEW_VERSION transfers completed on acquire (the directed push, or
  // the home-daemon retry) / retried against the home daemon / failed
  // outright (typed-timeout acquires).
  std::uint64_t transfers_pulled() const { return transfers_pulled_; }
  std::uint64_t transfer_retries() const { return transfer_retries_; }
  std::uint64_t transfer_timeouts() const { return transfer_timeouts_; }

 private:
  struct LockLocal {
    bool held = false;
    bool shared = false;
    replica::Version version = 0;
    net::Port grant_port = 0;
    std::uint64_t nonce = 0;  // of the acquire that holds the lock
  };

  LockLocal& local(replica::LockId lock_id);
  // Shard owning `lock_id` — the bootstrap server when no map is installed.
  net::NodeId home_for(replica::LockId lock_id) const;
  // The NEED_NEW_VERSION wait; see the file comment for the protocol.
  util::Status await_replica(replica::LockId lock_id,
                             const replica::GrantMsg& grant);
  void send_pull_directive(net::NodeId owner, replica::LockId lock_id,
                           replica::Version version);

  Endpoint& endpoint_;
  net::NodeId server_;
  ShardMap shard_map_;
  LockClientOptions opts_;
  DaemonService* daemon_;
  Clock* clock_;
  std::map<replica::LockId, LockLocal> locks_;
  // Per-thread grant ports, mirroring runtime::ports::kAppBase.
  net::Port next_port_;
  std::uint64_t nonce_;
  std::int64_t last_grant_latency_us_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t transfers_pulled_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t transfer_timeouts_ = 0;

  // Span histograms ("client.<node>.*"): request -> grant, and grant ->
  // transfer-applied for NEED_NEW_VERSION acquires.
  Histogram* tm_acquire_grant_us_ = nullptr;
  Histogram* tm_grant_transfer_us_ = nullptr;
};

}  // namespace mocha::live
