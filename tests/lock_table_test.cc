// replica::LockTable, the sans-I/O lock directory both the simulated
// SyncService and the live LockServer drive. No sockets, no scheduler:
// every event is a plain call with an explicit now_us.
#include <gtest/gtest.h>

#include <vector>

#include "replica/lock_table.h"

namespace mocha::replica {
namespace {

constexpr LockId kLock = 7;
constexpr std::int64_t kGrace = 300;

AcquireLockMsg acquire(std::uint32_t site, std::uint64_t nonce,
                       LockWireMode mode = LockWireMode::kExclusive,
                       std::uint64_t hold_us = 1000) {
  AcquireLockMsg msg;
  msg.lock_id = kLock;
  msg.site = site;
  msg.grant_port = static_cast<net::Port>(100 + site);
  msg.data_port = static_cast<net::Port>(200 + site);
  msg.expected_hold_us = hold_us;
  msg.mode = mode;
  msg.nonce = nonce;
  return msg;
}

AcquireLockMsg shared(std::uint32_t site, std::uint64_t nonce) {
  return acquire(site, nonce, LockWireMode::kShared);
}

ReleaseLockMsg release(std::uint32_t site, Version new_version = 0,
                       std::vector<std::uint32_t> up_to_date = {},
                       LockWireMode mode = LockWireMode::kExclusive) {
  ReleaseLockMsg msg;
  msg.lock_id = kLock;
  msg.site = site;
  msg.new_version = new_version;
  msg.up_to_date = std::move(up_to_date);
  msg.mode = mode;
  return msg;
}

ReleaseLockMsg release_shared(std::uint32_t site) {
  return release(site, 0, {}, LockWireMode::kShared);
}

// Drains grant_next() and returns the granted sites in order.
std::vector<std::uint32_t> grant_all(LockTable& table, std::int64_t now = 0) {
  std::vector<std::uint32_t> sites;
  while (auto grant = table.grant_next(kLock, now)) {
    sites.push_back(grant->hold->site);
  }
  return sites;
}

using Sites = std::vector<std::uint32_t>;

TEST(LockTable, ExclusiveRequestsAreGrantedInFifoOrder) {
  LockTable table(kGrace);
  for (std::uint32_t site : {3u, 1u, 2u}) {
    ASSERT_TRUE(table.enqueue(acquire(site, site), 0));
  }
  EXPECT_EQ(grant_all(table), Sites{3});
  EXPECT_TRUE(table.apply_release(release(3, 1, {3})).applied);
  EXPECT_EQ(grant_all(table), Sites{1});
  EXPECT_TRUE(table.apply_release(release(1, 2, {1})).applied);
  EXPECT_EQ(grant_all(table), Sites{2});
  EXPECT_TRUE(grant_all(table).empty());
}

TEST(LockTable, SharedRunIsGrantedAsOneBatch) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  for (std::uint32_t site : {2u, 3u, 4u}) {
    ASSERT_TRUE(table.enqueue(shared(site, site), 0));
  }
  EXPECT_TRUE(grant_all(table).empty());  // the writer still holds

  ASSERT_TRUE(table.apply_release(release(1, 1, {1})).applied);
  EXPECT_EQ(grant_all(table), (Sites{2, 3, 4}));
  EXPECT_EQ(table.locks().at(kLock).active.size(), 3u);
}

TEST(LockTable, WaitingWriterBlocksLaterReaders) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(shared(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.enqueue(acquire(2, 2), 0));
  ASSERT_TRUE(table.enqueue(shared(3, 3), 0));
  // Site 3 is compatible with the active reader, but the writer is ahead.
  EXPECT_TRUE(grant_all(table).empty());

  ASSERT_TRUE(table.apply_release(release_shared(1)).applied);
  EXPECT_EQ(grant_all(table), Sites{2});
  ASSERT_TRUE(table.apply_release(release(2, 1, {2})).applied);
  EXPECT_EQ(grant_all(table), Sites{3});
}

TEST(LockTable, UpToDateSetDecidesVersionOkOrTransfer) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_TRUE(table.grant_next(kLock, 0).has_value());
  ASSERT_TRUE(table.apply_release(release(1, 5, {1})).applied);

  // The last writer's copy is current.
  ASSERT_TRUE(table.enqueue(acquire(1, 2), 0));
  auto own = table.grant_next(kLock, 0);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->flag, GrantFlag::kVersionOk);
  EXPECT_EQ(own->transfer_from, 0u);
  ASSERT_TRUE(table.apply_release(release(1, 6, {1})).applied);

  // Anyone else needs version 6 from site 1.
  ASSERT_TRUE(table.enqueue(acquire(2, 3), 0));
  auto other = table.grant_next(kLock, 0);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->flag, GrantFlag::kNeedNewVersion);
  EXPECT_EQ(other->transfer_from, 1u);
  EXPECT_EQ(other->lock->last_owner_data_port, 201);  // site 1's ACQUIRE

  const GrantMsg msg = other->message();
  EXPECT_EQ(msg.lock_id, kLock);
  EXPECT_EQ(msg.nonce, 3u);
  EXPECT_EQ(msg.version, 6u);
  EXPECT_EQ(msg.flag, GrantFlag::kNeedNewVersion);
  EXPECT_EQ(msg.transfer_from, 1u);
  EXPECT_EQ(msg.holders, (Sites{1, 2}));
}

TEST(LockTable, VersionZeroIsCurrentForEveryone) {
  LockTable table(kGrace, /*disable_version_ok=*/true);
  ASSERT_TRUE(table.enqueue(acquire(4, 1), 0));
  auto grant = table.grant_next(kLock, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->flag, GrantFlag::kVersionOk);
  EXPECT_EQ(grant->message().version, 0u);
}

TEST(LockTable, ReaderReleaseJoinsUpToDateSet) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.apply_release(release(1, 1, {1})).applied);

  ASSERT_TRUE(table.enqueue(shared(2, 2), 0));
  auto first = table.grant_next(kLock, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->flag, GrantFlag::kNeedNewVersion);
  ASSERT_TRUE(table.apply_release(release_shared(2)).applied);
  EXPECT_EQ(table.locks().at(kLock).up_to_date,
            (std::set<std::uint32_t>{1, 2}));
  EXPECT_EQ(table.locks().at(kLock).version, 1u);  // readers do not bump it

  ASSERT_TRUE(table.enqueue(shared(2, 3), 0));
  auto again = table.grant_next(kLock, 0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->flag, GrantFlag::kVersionOk);
}

TEST(LockTable, BreakBlacklistsAndGrantsNextWaiter) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.enqueue(acquire(2, 2), 0));
  EXPECT_TRUE(grant_all(table).empty());

  auto broken = table.break_hold(kLock, 1, 1);
  ASSERT_TRUE(broken.has_value());
  EXPECT_EQ(broken->site, 1u);
  EXPECT_TRUE(table.blacklist().contains(1));
  EXPECT_FALSE(table.locks().at(kLock).holders.contains(1));
  EXPECT_EQ(grant_all(table), Sites{2});
}

TEST(LockTable, StaleReleaseAfterBreakIsIgnored) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.break_hold(kLock, 1, 1).has_value());

  // Nothing is active now, but site 1 is blacklisted: still stale.
  const LockTable::Release late = table.apply_release(release(1, 9, {1}));
  EXPECT_FALSE(late.applied);
  EXPECT_EQ(table.locks().at(kLock).version, 0u);
  EXPECT_FALSE(table.locks().at(kLock).last_owner.has_value());

  // And while another site holds, a release from a non-holder is stale too.
  ASSERT_TRUE(table.enqueue(acquire(2, 2), 0));
  ASSERT_EQ(grant_all(table), Sites{2});
  EXPECT_FALSE(table.apply_release(release(3, 9, {3})).applied);
  EXPECT_EQ(table.locks().at(kLock).active.size(), 1u);
}

TEST(LockTable, RecoveredReleaseApplies) {
  // The grant predates a sync-thread failover: the table knows the lock
  // (restored from the log) but never saw the hold.
  LockTable table(kGrace);
  table.register_holder(kLock, 3);
  const LockTable::Release recovered = table.apply_release(release(3, 4, {3}));
  EXPECT_TRUE(recovered.applied);
  EXPECT_FALSE(recovered.hold.has_value());
  const LockTable::LockState& lock = table.locks().at(kLock);
  EXPECT_EQ(lock.version, 4u);
  EXPECT_EQ(lock.last_owner, 3u);
  EXPECT_EQ(lock.last_owner_data_port, 0);
  EXPECT_EQ(lock.up_to_date, (std::set<std::uint32_t>{3}));

  // A lock the table has never heard of is not created by a release.
  ReleaseLockMsg unknown = release(3, 4, {3});
  unknown.lock_id = kLock + 1;
  EXPECT_FALSE(table.apply_release(unknown).applied);
  EXPECT_FALSE(table.locks().contains(kLock + 1));
}

TEST(LockTable, BlacklistedAcquireIsRejected) {
  LockTable table(kGrace);
  table.blacklist_site(5);
  const AcquireLockMsg msg = acquire(5, 77);
  EXPECT_FALSE(table.enqueue(msg, 0));
  EXPECT_TRUE(grant_all(table).empty());

  const GrantMsg reject = LockTable::rejection(msg);
  EXPECT_EQ(reject.flag, GrantFlag::kRejected);
  EXPECT_EQ(reject.lock_id, kLock);
  EXPECT_EQ(reject.nonce, 77u);
  EXPECT_EQ(reject.version, 0u);
  EXPECT_TRUE(reject.holders.empty());
}

TEST(LockTable, BreakIgnoresAnEndedHoldOfTheSameSite) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 10), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.apply_release(release(1, 1, {1})).applied);
  ASSERT_TRUE(table.enqueue(acquire(1, 11), 0));
  ASSERT_EQ(grant_all(table), Sites{1});

  // The first hold's lease timer fires late: it must not break hold 11.
  EXPECT_FALSE(table.break_hold(kLock, 1, 10).has_value());
  EXPECT_FALSE(table.extend_lease(kLock, 1, 10, 0));
  EXPECT_FALSE(table.blacklist().contains(1));
  ASSERT_EQ(table.locks().at(kLock).active.size(), 1u);
  EXPECT_EQ(table.locks().at(kLock).active.front().nonce, 11u);
}

TEST(LockTable, DisableVersionOkForcesTransfer) {
  LockTable table(kGrace, /*disable_version_ok=*/true);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  ASSERT_EQ(grant_all(table), Sites{1});
  ASSERT_TRUE(table.apply_release(release(1, 1, {1})).applied);

  ASSERT_TRUE(table.enqueue(acquire(1, 2), 0));
  auto grant = table.grant_next(kLock, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->flag, GrantFlag::kNeedNewVersion);
  EXPECT_EQ(grant->transfer_from, 1u);
}

TEST(LockTable, LeaseRunsFromGrantAndExtends) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1, LockWireMode::kExclusive, 1000), 5));
  ASSERT_TRUE(table.enqueue(acquire(2, 2, LockWireMode::kExclusive, 0), 6));
  auto grant = table.grant_next(kLock, 50);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->hold->enqueued_at_us, 5);
  EXPECT_EQ(grant->hold->granted_at_us, 50);
  EXPECT_EQ(grant->hold->lease_deadline_us, 50 + 1000 + kGrace);

  EXPECT_TRUE(table.extend_lease(kLock, 1, 1, 2000));
  EXPECT_EQ(table.locks().at(kLock).active.front().lease_deadline_us,
            2000 + 1000 + kGrace);

  // An ACQUIRE that names no hold time gets the default lease.
  ASSERT_TRUE(table.apply_release(release(1, 1, {1})).applied);
  auto next = table.grant_next(kLock, 3000);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->hold->lease_deadline_us,
            3000 + LockTable::kDefaultExpectedHoldUs + kGrace);
}

TEST(LockTable, ReleasedHoldIsReturnedWithItsLeaseTimer) {
  LockTable table(kGrace);
  ASSERT_TRUE(table.enqueue(acquire(1, 1), 0));
  auto grant = table.grant_next(kLock, 0);
  ASSERT_TRUE(grant.has_value());
  grant->hold->lease_timer = 42;
  const LockTable::Release released = table.apply_release(release(1, 1, {1}));
  ASSERT_TRUE(released.hold.has_value());
  EXPECT_EQ(released.hold->lease_timer, 42u);
  EXPECT_EQ(released.hold->nonce, 1u);
  EXPECT_TRUE(table.locks().at(kLock).active.empty());
}

}  // namespace
}  // namespace mocha::replica
