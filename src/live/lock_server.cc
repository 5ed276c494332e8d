#include "live/lock_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

#include "util/log.h"

namespace mocha::live {

using replica::GrantFlag;
using replica::LockTable;

LockServer::LockServer(Endpoint& endpoint, LockServerOptions opts)
    : endpoint_(endpoint),
      opts_(opts),
      reactor_("shard." + std::to_string(opts.shard_id) + ".reactor.",
               opts.reactor),
      table_(opts.lease_grace_us) {
  const std::string prefix = "shard." + std::to_string(opts_.shard_id) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_acquires_ = registry.counter(prefix + "acquires");
  tm_grants_ = registry.counter(prefix + "grants");
  tm_releases_ = registry.counter(prefix + "releases");
  tm_lease_breaks_ = registry.counter(prefix + "lease_breaks");
  tm_stats_requests_ = registry.counter(prefix + "stats_requests");
  tm_transfers_directed_ = registry.counter(prefix + "transfers_directed");
  tm_registrations_ = registry.counter(prefix + "registrations");
  tm_shard_map_requests_ = registry.counter(prefix + "shard_map_requests");
  tm_queue_depth_ = registry.gauge(prefix + "queue_depth");
  tm_active_leases_ = registry.gauge(prefix + "active_leases");
  tm_wait_us_ = registry.histogram(prefix + "wait_us");
  tm_hold_us_ = registry.histogram(prefix + "hold_us");
}

LockServer::~LockServer() { stop(); }

void LockServer::set_shard_map(ShardMap map) { shard_map_ = std::move(map); }

void LockServer::start() {
  if (running_.exchange(true)) return;
  if (shard_map_.empty()) {
    // Single-shard default: advertise this endpoint as the whole directory.
    // ipv4 = 0 tells clients to keep their bootstrap route to this node.
    ShardMap::Entry self;
    self.shard = opts_.shard_id;
    self.node = endpoint_.node();
    self.udp_port = endpoint_.udp_port();
    shard_map_ = ShardMap({self});
  }
  ready_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (ready_fd_ < 0) {
    running_.store(false);
    throw std::system_error(errno, std::generic_category(),
                            "LockServer eventfd");
  }
  // MOCHA_REACTOR_SAFE: pre-run configuration — the reactor loop only
  // starts on serve_thread_ below, so this watch_fd is single-threaded.
  reactor_.watch_fd(ready_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t count = 0;
    while (::read(ready_fd_, &count, sizeof(count)) > 0) {
    }
    drain_sync_port();
  });
  endpoint_.set_ready_fd(replica::kSyncPort, ready_fd_);
  serve_thread_ = std::thread([this] { reactor_.run(); });
}

void LockServer::stop() {
  if (!running_.exchange(false)) return;
  reactor_.stop();
  if (serve_thread_.joinable()) serve_thread_.join();
  endpoint_.set_ready_fd(replica::kSyncPort, -1);
  if (ready_fd_ >= 0) {
    ::close(ready_fd_);
    ready_fd_ = -1;
  }
}

void LockServer::publish_gauges() {
  tm_queue_depth_->set(static_cast<std::int64_t>(queued_waiters_));
  tm_active_leases_->set(static_cast<std::int64_t>(active_leases_));
}

void LockServer::drain_sync_port() {
  while (auto msg = endpoint_.recv_for(replica::kSyncPort, 0)) {
    handle(std::move(*msg));
  }
}

void LockServer::handle(Endpoint::Message msg) {
  try {
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case replica::kAcquireLock:
        handle_acquire(reader);
        break;
      case replica::kReleaseLock:
        handle_release(reader);
        break;
      case replica::kRegisterLock: {
        const auto reg = replica::RegisterLockMsg::decode(reader);
        table_.register_holder(reg.lock_id, reg.site);
        tm_registrations_->add();
        break;
      }
      case replica::kShardMapRequest:
        handle_shard_map_request(msg.src, reader);
        break;
      case replica::kStatsRequest:
        handle_stats_request(msg.src, reader);
        break;
      default:
        // Sim-only traffic (replica registry, cached directory, …) is not
        // served by the live lock server yet.
        break;
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "lock server: dropping malformed message from node "
                        << msg.src << ": " << err.what();
  }
}

void LockServer::handle_shard_map_request(net::NodeId src,
                                          util::WireReader& reader) {
  const auto request = replica::ShardMapRequestMsg::decode(reader);
  replica::ShardMapReplyMsg answer;
  answer.shards = shard_map_.entries();
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
  tm_shard_map_requests_->add();
}

void LockServer::handle_stats_request(net::NodeId src,
                                      util::WireReader& reader) {
  const auto request = replica::StatsRequestMsg::decode(reader);
  tm_stats_requests_->add();
  replica::StatsReplyMsg answer;
  answer.probe_nonce = request.probe_nonce;
  answer.shard_id = opts_.shard_id;
  fill_stats_reply(MetricsRegistry::global().snapshot(), answer);
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
}

void LockServer::handle_acquire(util::WireReader& reader) {
  const auto msg = replica::AcquireLockMsg::decode(reader);
  tm_acquires_->add();
  FlightRecorder::record(trace::EventKind::kLockRequested, endpoint_.node(),
                         msg.site, msg.lock_id, 0, msg.nonce);
  const std::int64_t now_us = Clock::monotonic().now_us();
  if (!table_.enqueue(msg, now_us)) {
    send_grant(msg.site, msg.grant_port, LockTable::rejection(msg));
    return;
  }
  ++queued_waiters_;
  grant_waiters(msg.lock_id, now_us);
  publish_gauges();
}

void LockServer::grant_waiters(replica::LockId lock_id,
                               std::int64_t now_us) {
  while (auto grant = table_.grant_next(lock_id, now_us)) {
    LockTable::Request& hold = *grant->hold;
    --queued_waiters_;
    ++active_leases_;
    tm_wait_us_->record(now_us - hold.enqueued_at_us);
    tm_grants_->add();
    FlightRecorder::record(trace::EventKind::kLockGranted, endpoint_.node(),
                           hold.site, lock_id, grant->lock->version,
                           hold.nonce);
    // §4 failure detection as a continuation: one reactor timer per hold
    // replaces the periodic lease scan; it is cancelled on release.
    hold.lease_timer = reactor_.call_at(
        hold.lease_deadline_us,
        [this, lock_id, site = hold.site, nonce = hold.nonce] {
          on_lease_expired(lock_id, site, nonce);
        });
    // The directive leaves first: it starts the two-trip push, which the
    // one-trip GRANT then overtakes.
    if (grant->flag == GrantFlag::kNeedNewVersion) {
      direct_transfer(*grant->lock, hold);
    }
    send_grant(hold.site, hold.grant_port, grant->message());
  }
}

void LockServer::send_grant(std::uint32_t site, net::Port grant_port,
                            const replica::GrantMsg& grant) {
  util::Buffer msg;
  grant.encode(msg);
  endpoint_.send(site, grant_port, std::move(msg));
}

void LockServer::direct_transfer(const LockTable::LockState& lock,
                                 const LockTable::Request& req) {
  // A site without a daemon (data_port 0) can neither serve nor receive a
  // bundle; a directive would pile up unread on its daemon port. The
  // requester then waits out its transfer timeout and retries at home.
  if (req.data_port == 0 || lock.last_owner_data_port == 0) return;
  // A non-zero last_owner_data_port is only ever set with last_owner.
  const std::uint32_t owner = *lock.last_owner;
  if (owner == req.site) return;

  // This endpoint has heard from every client (their acquires arrive here),
  // so its peer table can introduce the requester to the owner's daemon.
  // Per-source in-order delivery lands the introduction before the
  // directive that needs it.
  if (!introduced_.contains({owner, req.site})) {
    if (auto addr = endpoint_.peer_addr(req.site); addr.has_value()) {
      replica::NodeAddrMsg intro;
      intro.node = req.site;
      intro.ipv4 = addr->ipv4;
      intro.udp_port = addr->port;
      intro.known = 1;
      util::Buffer msg;
      intro.encode(msg);
      endpoint_.send(owner, replica::kDaemonPort, std::move(msg));
      introduced_.insert({owner, req.site});
    }
  }

  replica::TransferReplicaMsg directive;
  directive.lock_id = lock.id;
  directive.version = lock.version;
  directive.dst_site = req.site;
  directive.dst_port = req.data_port;
  util::Buffer msg;
  directive.encode(msg);
  endpoint_.send(owner, replica::kDaemonPort, std::move(msg));
  tm_transfers_directed_->add();
}

void LockServer::handle_release(util::WireReader& reader) {
  const auto msg = replica::ReleaseLockMsg::decode(reader);
  const LockTable::Release released = table_.apply_release(msg);
  if (!released.applied) return;  // stale, e.g. after a broken lease
  const std::int64_t now_us = Clock::monotonic().now_us();
  if (const auto& hold = released.hold) {
    reactor_.cancel(hold->lease_timer);
    tm_hold_us_->record(now_us - hold->granted_at_us);
    FlightRecorder::record(trace::EventKind::kLockReleased, endpoint_.node(),
                           msg.site, msg.lock_id, msg.new_version,
                           hold->nonce);
    --active_leases_;
  }
  tm_releases_->add();
  grant_waiters(msg.lock_id, now_us);
  publish_gauges();
}

void LockServer::on_lease_expired(replica::LockId lock_id, std::uint32_t site,
                                  std::uint64_t nonce) {
  // §4, failure of a lock-owning thread. The sim service confirms with a
  // daemon heartbeat first; the live runtime has no heartbeat path yet, so
  // an expired lease breaks the lock directly.
  if (!table_.break_hold(lock_id, site, nonce)) return;  // released first
  --active_leases_;
  tm_lease_breaks_->add();
  FlightRecorder::record(trace::EventKind::kLockBroken, endpoint_.node(),
                         site, lock_id, 0, nonce);
  MOCHA_INFO("live") << "lock " << lock_id << " broken: site " << site
                     << " exceeded its lease; site blacklisted";
  grant_waiters(lock_id, Clock::monotonic().now_us());
  publish_gauges();
}

}  // namespace mocha::live
