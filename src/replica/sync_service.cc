#include "replica/sync_service.h"

#include <algorithm>

#include "replica/replica_system.h"
#include "util/log.h"

namespace mocha::replica {

// The transport-neutral protocol constant and the simulated runtime's port
// table must agree — both backends listen on this port.
static_assert(kSyncPort == runtime::ports::kSync);
static_assert(kDaemonPort == runtime::ports::kDaemon);

SyncService::SyncService(ReplicaSystem& system, runtime::SiteId site)
    : system_(system),
      site_(site),
      table_(static_cast<std::int64_t>(system.options().lease_grace),
             system.options().disable_version_ok) {
  restore_from_log();
  system_.scheduler().spawn(
      "syncthread@" + system_.mocha().site_name(site_), [this] { loop(); });
}

void SyncService::restore_from_log() {
  const SyncStateLog& log = system_.sync_log();
  for (const auto& [id, record] : log.locks) {
    LockState& lock = table_.state(id);
    lock.version = record.version;
    lock.last_owner = record.last_owner;
    lock.up_to_date = record.up_to_date;
    lock.holders = record.holders;
  }
  replicas_ = log.replicas;
  cached_ = log.cached;
  for (runtime::SiteId site : log.blacklist) table_.blacklist_site(site);
}

void SyncService::log_lock(const LockState& lock) {
  SyncStateLog& log = system_.sync_log();
  SyncStateLog::LockRecord& record = log.locks[lock.id];
  record.version = lock.version;
  record.last_owner = lock.last_owner;
  record.up_to_date = lock.up_to_date;
  record.holders = lock.holders;
  ++log.writes;
}

void SyncService::log_replica(const std::string& name) {
  SyncStateLog& log = system_.sync_log();
  log.replicas[name] = replicas_.at(name);
  ++log.writes;
}

std::int64_t SyncService::now_us() const {
  return static_cast<std::int64_t>(system_.scheduler().now());
}

void SyncService::loop() {
  endpoint_ = &system_.endpoint(site_);
  while (true) {
    auto msg = next_message();
    if (msg.has_value()) handle(std::move(*msg));
    scan_leases();
  }
}

std::optional<net::MochaNetEndpoint::Message> SyncService::next_message() {
  if (!stash_.empty()) {
    auto msg = std::move(stash_.front());
    stash_.pop_front();
    return msg;
  }
  // Wake periodically to scan leases only while some lock is actually held;
  // otherwise block outright so an idle system quiesces (and Scheduler::run
  // can return).
  bool any_lease = false;
  for (const auto& [id, lock] : table_.locks()) {
    if (!lock.active.empty()) {
      any_lease = true;
      break;
    }
  }
  if (!any_lease) return endpoint_->recv(runtime::ports::kSync);
  return endpoint_->recv_for(runtime::ports::kSync,
                             system_.options().lease_check_interval);
}

void SyncService::handle(net::MochaNetEndpoint::Message msg) {
  util::WireReader reader(msg.payload);
  switch (reader.u8()) {
    case kAcquireLock:
      handle_acquire(reader);
      break;
    case kReleaseLock:
      handle_release(reader);
      break;
    case kRegisterLock: {
      const RegisterLockMsg reg = RegisterLockMsg::decode(reader);
      table_.register_holder(reg.lock_id, reg.site);
      log_lock(table_.state(reg.lock_id));
      break;
    }
    case kRegisterReplica: {
      std::string name = reader.str();
      const runtime::SiteId site = reader.u32();
      ReplicaDirectoryEntry entry;
      entry.type = reader.str();
      entry.r_copies = static_cast<int>(reader.u32());
      entry.initial_blob = reader.bytes();
      entry.sites.insert(site);
      replicas_[name] = std::move(entry);
      log_replica(name);
      break;
    }
    case kAttachReplica: {
      const std::string name = reader.str();
      const runtime::SiteId site = reader.u32();
      const net::Port reply_port = reader.u16();
      util::Buffer reply;
      util::WireWriter writer(reply);
      writer.u8(kAttachReply);
      auto it = replicas_.find(name);
      if (it == replicas_.end()) {
        writer.boolean(false);
        writer.str("");
        writer.bytes(util::Buffer{});
      } else {
        it->second.sites.insert(site);
        log_replica(name);
        writer.boolean(true);
        writer.str(it->second.type);
        writer.bytes(it->second.initial_blob);
      }
      endpoint_->send(site, reply_port, std::move(reply));
      break;
    }
    case kPublishCached:
      handle_publish_cached(reader);
      break;
    case kRefreshCached:
      handle_refresh_cached(reader);
      break;
    case kVersionReport:
      // A straggler from an earlier poll window; stale, drop it.
      break;
    default:
      break;
  }
}

// --- §7 non-synchronization-based consistency: cached-object directory ---

void SyncService::handle_publish_cached(util::WireReader& reader) {
  const std::string name = reader.str();
  const runtime::SiteId site = reader.u32();
  const net::Port reply_port = reader.u16();
  VersionVector vv = VersionVector::decode(reader);
  util::Buffer blob = reader.bytes();

  auto it = cached_.find(name);
  const bool accept =
      it == cached_.end() || vv.dominates_or_equals(it->second.vv);

  util::Buffer reply;
  util::WireWriter writer(reply);
  writer.u8(kPublishReply);
  writer.boolean(accept);
  if (accept) {
    cached_[name] = SyncStateLog::CachedRecord{std::move(blob), vv};
    system_.sync_log().cached[name] = cached_[name];
    ++system_.sync_log().writes;
    VersionVector{}.encode(writer);
    writer.bytes(util::Buffer{});
  } else {
    // Conflict (or stale publisher): hand back the directory state so the
    // client can detect and resolve (Bayou/Coda/Rover style).
    it->second.vv.encode(writer);
    writer.bytes(it->second.blob);
  }
  endpoint_->send(site, reply_port, std::move(reply));
}

void SyncService::handle_refresh_cached(util::WireReader& reader) {
  const std::string name = reader.str();
  const runtime::SiteId site = reader.u32();
  const net::Port reply_port = reader.u16();

  util::Buffer reply;
  util::WireWriter writer(reply);
  writer.u8(kRefreshReply);
  auto it = cached_.find(name);
  writer.boolean(it != cached_.end());
  if (it != cached_.end()) {
    it->second.vv.encode(writer);
    writer.bytes(it->second.blob);
  } else {
    VersionVector{}.encode(writer);
    writer.bytes(util::Buffer{});
  }
  endpoint_->send(site, reply_port, std::move(reply));
}

void SyncService::handle_acquire(util::WireReader& reader) {
  const AcquireLockMsg msg = AcquireLockMsg::decode(reader);
  if (auto* tracer = system_.mocha().network().tracer()) {
    tracer->record(trace::EventKind::kLockRequested,
                   system_.scheduler().now(), msg.site, site_, msg.lock_id,
                   msg.mode == LockWireMode::kShared ? 1 : 0);
  }
  if (!table_.enqueue(msg, now_us())) {
    send_grant(msg.site, msg.grant_port, LockTable::rejection(msg));
    return;
  }
  grant_waiters(msg.lock_id);
}

void SyncService::grant_waiters(LockId lock_id) {
  // The clock is read per grant: a directive to a dead daemon blocks in
  // send_sync, and the next grant's lease starts after it.
  while (auto grant = table_.grant_next(lock_id, now_us())) {
    ++grants_;
    const Request req = *grant->hold;
    send_grant(req.site, req.grant_port, grant->message());
    if (auto* tracer = system_.mocha().network().tracer()) {
      tracer->record(trace::EventKind::kLockGranted, system_.scheduler().now(),
                     req.site, site_, lock_id,
                     req.mode == LockWireMode::kShared ? 1 : 0);
    }
    if (grant->flag == GrantFlag::kNeedNewVersion) {
      direct_transfer(table_.state(lock_id), grant->transfer_from, req);
    }
  }
}

void SyncService::send_grant(runtime::SiteId site, net::Port grant_port,
                             const GrantMsg& grant) {
  util::Buffer msg;
  grant.encode(msg);
  endpoint_->send(site, grant_port, std::move(msg));
}

util::Status SyncService::send_transfer_directive(const LockState& lock,
                                                  runtime::SiteId owner,
                                                  const Request& req) {
  TransferReplicaMsg directive;
  directive.lock_id = lock.id;
  directive.version = lock.version;
  directive.dst_site = req.site;
  directive.dst_port = req.data_port;
  util::Buffer msg;
  directive.encode(msg);
  return endpoint_->send_sync(owner, runtime::ports::kDaemon, std::move(msg),
                              system_.options().transfer_timeout);
}

void SyncService::direct_transfer(LockState& lock, runtime::SiteId owner,
                                  const Request& req) {
  util::Status sent = send_transfer_directive(lock, owner, req);
  if (sent.is_ok()) return;

  // §4, failure of a non-lock-owning thread: the transfer directive timed
  // out, so the daemon (and its node) are presumed failed.
  ++failures_detected_;
  lock.holders.erase(owner);
  lock.up_to_date.erase(owner);
  log_lock(lock);
  if (auto* tracer = system_.mocha().network().tracer()) {
    tracer->record(trace::EventKind::kFailureDetected,
                   system_.scheduler().now(), owner, site_, lock.id, 0);
  }
  system_.mocha().event_log().record(
      system_.scheduler().now(), runtime::EventKind::kFailure,
      system_.mocha().site_name(owner),
      "daemon unresponsive while directing transfer of lock " +
          std::to_string(lock.id) + "; polling survivors");
  poll_and_redirect(lock, req);
}

void SyncService::poll_and_redirect(LockState& lock, const Request& req) {
  // Poll every registered daemon for the most recent version it holds.
  for (runtime::SiteId site : lock.holders) {
    util::Buffer poll;
    PollVersionMsg{lock.id, runtime::ports::kSync}.encode(poll);
    endpoint_->send(site, runtime::ports::kDaemon, std::move(poll));
  }

  std::map<runtime::SiteId, Version> reports;
  sim::Scheduler& sched = system_.scheduler();
  const sim::Time deadline = sched.now() + system_.options().poll_window;
  while (sched.now() < deadline && reports.size() < lock.holders.size()) {
    auto msg = endpoint_->recv_for(runtime::ports::kSync,
                                   deadline - sched.now());
    if (!msg.has_value()) break;
    util::WireReader reader(msg->payload);
    if (reader.u8() == kVersionReport) {
      const VersionReportMsg report = VersionReportMsg::decode(reader);
      if (report.lock_id == lock.id) {
        reports[report.site] = report.version;
        continue;
      }
    }
    stash_.push_back(std::move(*msg));  // unrelated traffic: handle later
  }

  // Candidates ordered newest-version first; prefer the requester itself on
  // ties (its transfer is a local loopback).
  std::vector<std::pair<runtime::SiteId, Version>> candidates(reports.begin(),
                                                              reports.end());
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return (a.first == req.site) > (b.first == req.site);
            });

  for (const auto& [site, version] : candidates) {
    if (version < lock.version) {
      // Weakened consistency (§4): the most recent version died with its
      // node; forward the most recently *available* older version.
      ++stale_forwards_;
      system_.mocha().event_log().record(
          sched.now(), runtime::EventKind::kFailure,
          system_.mocha().site_name(req.site),
          "lock " + std::to_string(lock.id) + ": version " +
              std::to_string(lock.version) + " lost; forwarding version " +
              std::to_string(version));
      lock.version = version;
    }
    util::Status sent = send_transfer_directive(lock, site, req);
    if (sent.is_ok()) {
      lock.up_to_date = {site};
      lock.last_owner = site;
      log_lock(lock);
      return;
    }
    ++failures_detected_;
    lock.holders.erase(site);
    log_lock(lock);
  }
  MOCHA_ERROR("sync") << "lock " << lock.id
                      << ": no surviving daemon could serve a transfer";
}

void SyncService::handle_release(util::WireReader& reader) {
  const ReleaseLockMsg msg = ReleaseLockMsg::decode(reader);
  if (!table_.apply_release(msg).applied) return;
  log_lock(table_.state(msg.lock_id));
  if (auto* tracer = system_.mocha().network().tracer()) {
    tracer->record(trace::EventKind::kLockReleased, system_.scheduler().now(),
                   msg.site, site_, msg.lock_id,
                   msg.mode == LockWireMode::kShared ? 1 : 0);
  }
  grant_waiters(msg.lock_id);
}

void SyncService::scan_leases() {
  for (const auto& [id, lock] : table_.locks()) {
    for (std::size_t i = 0; i < lock.active.size();) {
      const Request owner = lock.active[i];
      if (now_us() <= owner.lease_deadline_us) {
        ++i;
        continue;
      }
      // §4, failure of a lock-owning thread: the lock has been held for an
      // extraordinary amount of time. Confirm with a heartbeat.
      util::Buffer probe;
      util::WireWriter writer(probe);
      writer.u8(kHeartbeat);
      writer.u32(id);
      util::Status alive =
          endpoint_->send_sync(owner.site, runtime::ports::kDaemon,
                               std::move(probe),
                               system_.options().heartbeat_timeout);
      if (alive.is_ok()) {
        // Just slow; extend the lease.
        table_.extend_lease(id, owner.site, owner.nonce, now_us());
        ++i;
        continue;
      }
      ++failures_detected_;
      break_lock(owner);
      // The break removed index i; re-examine the same slot.
    }
  }
}

void SyncService::break_lock(const Request& dead) {
  if (!table_.break_hold(dead.lock_id, dead.site, dead.nonce)) return;
  ++locks_broken_;
  system_.sync_log().blacklist = table_.blacklist();
  log_lock(table_.state(dead.lock_id));
  if (auto* tracer = system_.mocha().network().tracer()) {
    tracer->record(trace::EventKind::kLockBroken, system_.scheduler().now(),
                   dead.site, site_, dead.lock_id, 0);
    tracer->record(trace::EventKind::kFailureDetected,
                   system_.scheduler().now(), dead.site, site_, dead.lock_id,
                   0);
  }
  system_.mocha().event_log().record(
      system_.scheduler().now(), runtime::EventKind::kFailure,
      system_.mocha().site_name(dead.site),
      "lock " + std::to_string(dead.lock_id) +
          " broken (owner failed while holding); site blacklisted");
  grant_waiters(dead.lock_id);
}

}  // namespace mocha::replica
