// The synchronization thread (paper §3, Fig 7) with the §4 fault-tolerance
// refinements and the §3-mentioned shared (read-only) lock extension.
// Runs at the home site; grants and queues locks, tracks version numbers and
// the up-to-date replica set, directs daemons to transfer replicas directly
// to requesting threads, and detects/handles remote failures:
//   - transfer-directive timeout  -> poll surviving daemons, forward the most
//     recent *available* version (possibly older: weakened consistency);
//   - lock-lease expiry -> heartbeat the owner's daemon; on silence, break
//     the lock, blacklist the owner, and grant to the next requester.
//
// The lock directory itself is replica::LockTable, which the live lock
// server drives too; this service decodes, calls it, and does the sends,
// the lease scan with heartbeats, poll-and-redirect, the log and tracing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "net/mochanet.h"
#include "replica/lock_table.h"
#include "replica/sync_log.h"
#include "replica/wire.h"
#include "runtime/system.h"

namespace mocha::replica {

class ReplicaSystem;

class SyncService {
 public:
  // Starts the synchronization thread at `site`, restoring durable state
  // from the system's SyncStateLog (empty on the initial home start; the
  // previous incarnation's facts after a failover).
  SyncService(ReplicaSystem& system, runtime::SiteId site);

  // --- statistics / introspection (tests & benches) ---
  std::uint64_t grants() const { return grants_; }
  std::uint64_t locks_broken() const { return locks_broken_; }
  std::uint64_t failures_detected() const { return failures_detected_; }
  std::uint64_t stale_forwards() const { return stale_forwards_; }
  bool is_blacklisted(runtime::SiteId site) const {
    return table_.blacklist().contains(site);
  }

 private:
  using Request = LockTable::Request;
  using LockState = LockTable::LockState;

  std::int64_t now_us() const;  // virtual time, as the table's clock
  void restore_from_log();
  void log_lock(const LockState& lock);
  void log_replica(const std::string& name);

  void loop();
  // Delivers the next sync-port message, honoring the pending stash and
  // waking up at least every lease_check_interval while any lock is held.
  std::optional<net::MochaNetEndpoint::Message> next_message();

  void handle(net::MochaNetEndpoint::Message msg);
  void handle_acquire(util::WireReader& reader);
  void handle_release(util::WireReader& reader);
  void handle_publish_cached(util::WireReader& reader);
  void handle_refresh_cached(util::WireReader& reader);
  // Sends every grant the table admits for `lock_id`, each followed by its
  // transfer directive when the requester needs a new version.
  void grant_waiters(LockId lock_id);
  void send_grant(runtime::SiteId site, net::Port grant_port,
                  const GrantMsg& grant);
  // One TRANSFER_REPLICA directive to `owner`'s daemon for `req` (shared by
  // the grant path and the poll-redirect path).
  util::Status send_transfer_directive(const LockState& lock,
                                       runtime::SiteId owner,
                                       const Request& req);
  // Directs `owner`'s daemon to transfer lock replicas to the requester;
  // falls back to polling on timeout.
  void direct_transfer(LockState& lock, runtime::SiteId owner,
                       const Request& req);
  // §4 failure handling: poll registered daemons for their newest version
  // and direct the best one to transfer.
  void poll_and_redirect(LockState& lock, const Request& req);
  void scan_leases();
  void break_lock(const Request& dead);

  ReplicaSystem& system_;
  runtime::SiteId site_;
  net::MochaNetEndpoint* endpoint_ = nullptr;  // endpoint of site_
  LockTable table_;
  std::map<std::string, ReplicaDirectoryEntry> replicas_;
  std::map<std::string, SyncStateLog::CachedRecord> cached_;  // §7 directory
  std::deque<net::MochaNetEndpoint::Message> stash_;

  std::uint64_t grants_ = 0;
  std::uint64_t locks_broken_ = 0;
  std::uint64_t failures_detected_ = 0;
  std::uint64_t stale_forwards_ = 0;
};

}  // namespace mocha::replica
