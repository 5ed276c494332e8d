// replica::LockTable — the synchronization thread's lock directory (paper
// §3, Fig 7; §4) with no I/O, driven by both the simulated SyncService and
// the live LockServer. It reads no clock: every event carries `now_us`.
// Per lock it owns the strict-FIFO wait queue with shared batching (the
// head is granted; while it is shared, the run of shared requests behind it
// joins, so a waiting writer blocks later readers), the version, the
// up-to-date set, the last writer, the registered holders and each hold's
// lease deadline; across locks, the §4 blacklist. Grants are pulled one at
// a time, so each caller keeps its own send order between them:
//
//   if (table.enqueue(acquire, now_us)) {
//     while (auto g = table.grant_next(lock_id, now_us)) { ... }
//   }
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "replica/wire.h"

namespace mocha::replica {

class LockTable {
 public:
  // Lease of an ACQUIRE that names no expected hold (clients always do).
  static constexpr std::int64_t kDefaultExpectedHoldUs = 500'000;

  struct Request {
    LockId lock_id = 0;
    std::uint32_t site = 0;
    net::Port grant_port = 0;
    net::Port data_port = 0;  // 0 = the site runs no daemon
    std::int64_t expected_hold_us = 0;
    LockWireMode mode = LockWireMode::kExclusive;
    std::uint64_t nonce = 0;  // with `site`, names one hold
    std::int64_t enqueued_at_us = 0;
    std::int64_t granted_at_us = 0;
    std::int64_t lease_deadline_us = 0;  // granted_at + hold + lease grace
    std::uint64_t lease_timer = 0;       // the caller's handle; opaque here
  };

  struct LockState {
    LockId id = 0;
    std::vector<Request> active;  // current holders (readers, or one writer)
    std::deque<Request> waiting;
    Version version = 0;
    std::optional<std::uint32_t> last_owner;  // last *writer*
    net::Port last_owner_data_port = 0;       // of its ACQUIRE
    std::set<std::uint32_t> up_to_date;       // sites holding `version`
    std::set<std::uint32_t> holders;          // registered replica holders
  };

  struct Grant {
    Request* hold;  // in lock->active; valid until the lock next changes
    const LockState* lock;
    // kNeedNewVersion: the daemon of `transfer_from` holds lock->version.
    GrantFlag flag = GrantFlag::kVersionOk;
    std::uint32_t transfer_from = 0;

    GrantMsg message() const;
  };

  struct Release {
    bool applied = false;         // false: stale, ignored
    std::optional<Request> hold;  // empty for a recovered release
  };

  // `disable_version_ok` is the Fig 7 ablation: every grant after the first
  // release needs a transfer.
  explicit LockTable(std::int64_t lease_grace_us,
                     bool disable_version_ok = false)
      : lease_grace_us_(lease_grace_us),
        disable_version_ok_(disable_version_ok) {}

  // Queues the request and registers the site as a holder; false (answer
  // with rejection(msg)) when the site is blacklisted.
  bool enqueue(const AcquireLockMsg& msg, std::int64_t now_us);
  static GrantMsg rejection(const AcquireLockMsg& msg);

  // The next waiter the grant policy admits, now active. Call until empty
  // after every enqueue, release and break.
  std::optional<Grant> grant_next(LockId lock_id, std::int64_t now_us);

  // A release from a site holding nothing is stale while others hold or the
  // site is blacklisted (its hold was broken); otherwise it is a recovered
  // release (the grant predates a sync failover) and applies.
  Release apply_release(const ReleaseLockMsg& msg);

  void register_holder(LockId lock_id, std::uint32_t site);

  // §4: ends hold (site, nonce), blacklists the site and forgets it as a
  // holder. Empty when that hold already ended (the ABA guard).
  std::optional<Request> break_hold(LockId lock_id, std::uint32_t site,
                                    std::uint64_t nonce);
  // Restarts the lease of hold (site, nonce); false when it has ended.
  bool extend_lease(LockId lock_id, std::uint32_t site, std::uint64_t nonce,
                    std::int64_t now_us);

  const std::set<std::uint32_t>& blacklist() const { return blacklist_; }
  void blacklist_site(std::uint32_t site) { blacklist_.insert(site); }
  const std::map<LockId, LockState>& locks() const { return locks_; }
  // Created empty on first use. Callers write through it only to restore
  // logged state and on their own recovery paths (poll-and-redirect).
  LockState& state(LockId lock_id);

 private:
  Request* find_hold(LockId lock_id, std::uint32_t site, std::uint64_t nonce);

  std::int64_t lease_grace_us_;
  bool disable_version_ok_;
  std::map<LockId, LockState> locks_;
  std::set<std::uint32_t> blacklist_;
};

}  // namespace mocha::replica
