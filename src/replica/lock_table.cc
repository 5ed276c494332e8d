#include "replica/lock_table.h"

#include <algorithm>

namespace mocha::replica {

GrantMsg LockTable::Grant::message() const {
  GrantMsg grant;
  grant.lock_id = hold->lock_id;
  grant.nonce = hold->nonce;
  grant.version = lock->version;
  grant.flag = flag;
  grant.transfer_from = transfer_from;
  grant.holders.assign(lock->holders.begin(), lock->holders.end());
  return grant;
}

LockTable::LockState& LockTable::state(LockId lock_id) {
  LockState& lock = locks_[lock_id];
  lock.id = lock_id;
  return lock;
}

bool LockTable::enqueue(const AcquireLockMsg& msg, std::int64_t now_us) {
  // §4: a thread whose lock was broken is prevented from future requests.
  if (blacklist_.contains(msg.site)) return false;
  LockState& lock = state(msg.lock_id);
  lock.holders.insert(msg.site);
  Request& req = lock.waiting.emplace_back();
  req.lock_id = msg.lock_id;
  req.site = msg.site;
  req.grant_port = msg.grant_port;
  req.data_port = msg.data_port;
  req.expected_hold_us = msg.expected_hold_us != 0
                             ? static_cast<std::int64_t>(msg.expected_hold_us)
                             : kDefaultExpectedHoldUs;
  req.mode = msg.mode;
  req.nonce = msg.nonce;
  req.enqueued_at_us = now_us;
  return true;
}

GrantMsg LockTable::rejection(const AcquireLockMsg& msg) {
  GrantMsg grant;
  grant.lock_id = msg.lock_id;
  grant.nonce = msg.nonce;
  grant.flag = GrantFlag::kRejected;
  return grant;
}

std::optional<LockTable::Grant> LockTable::grant_next(LockId lock_id,
                                                      std::int64_t now_us) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end() || it->second.waiting.empty()) return std::nullopt;
  LockState& lock = it->second;
  // Only the head is considered: a writer needs the lock free, a reader
  // needs no active writer.
  const bool writer_active =
      lock.active.size() == 1 &&
      lock.active.front().mode == LockWireMode::kExclusive;
  if (lock.waiting.front().mode == LockWireMode::kExclusive
          ? !lock.active.empty()
          : writer_active) {
    return std::nullopt;
  }
  Request& hold = lock.active.emplace_back(lock.waiting.front());
  lock.waiting.pop_front();
  hold.granted_at_us = now_us;
  hold.lease_deadline_us = now_us + hold.expected_hold_us + lease_grace_us_;

  // Version 0 means no release yet: every holder still has its initial
  // contents. Otherwise the up-to-date set (§4) decides; with UR=1 it
  // degenerates to Fig 7's lastLockOwner check.
  Grant grant{&hold, &lock};
  if (lock.version != 0 &&
      (disable_version_ok_ || !lock.up_to_date.contains(hold.site))) {
    grant.flag = GrantFlag::kNeedNewVersion;
    grant.transfer_from = lock.last_owner.value_or(0);
  }
  return grant;
}

LockTable::Release LockTable::apply_release(const ReleaseLockMsg& msg) {
  Release out;
  auto it = locks_.find(msg.lock_id);
  if (it == locks_.end()) return out;
  LockState& lock = it->second;
  auto active_it = std::find_if(
      lock.active.begin(), lock.active.end(),
      [&](const Request& r) { return r.site == msg.site; });
  if (active_it != lock.active.end()) {
    out.hold = *active_it;
    lock.active.erase(active_it);
  } else if (!lock.active.empty() || blacklist_.contains(msg.site)) {
    return out;
  }
  out.applied = true;
  if (msg.mode == LockWireMode::kExclusive) {
    lock.version = msg.new_version;
    lock.last_owner = msg.site;
    lock.last_owner_data_port = out.hold ? out.hold->data_port : 0;
    lock.up_to_date.clear();
    lock.up_to_date.insert(msg.up_to_date.begin(), msg.up_to_date.end());
  } else {
    // A reader received (or already had) the current version.
    lock.up_to_date.insert(msg.site);
  }
  return out;
}

void LockTable::register_holder(LockId lock_id, std::uint32_t site) {
  state(lock_id).holders.insert(site);
}

LockTable::Request* LockTable::find_hold(LockId lock_id, std::uint32_t site,
                                         std::uint64_t nonce) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end()) return nullptr;
  for (Request& r : it->second.active) {
    if (r.site == site && r.nonce == nonce) return &r;
  }
  return nullptr;
}

std::optional<LockTable::Request> LockTable::break_hold(LockId lock_id,
                                                        std::uint32_t site,
                                                        std::uint64_t nonce) {
  Request* hold = find_hold(lock_id, site, nonce);
  if (hold == nullptr) return std::nullopt;
  const Request broken = *hold;
  LockState& lock = locks_.at(lock_id);
  lock.active.erase(lock.active.begin() + (hold - lock.active.data()));
  blacklist_.insert(site);
  lock.holders.erase(site);
  lock.up_to_date.erase(site);
  return broken;
}

bool LockTable::extend_lease(LockId lock_id, std::uint32_t site,
                             std::uint64_t nonce, std::int64_t now_us) {
  Request* hold = find_hold(lock_id, site, nonce);
  if (hold == nullptr) return false;
  hold->lease_deadline_us = now_us + hold->expected_hold_us + lease_grace_us_;
  return true;
}

}  // namespace mocha::replica
