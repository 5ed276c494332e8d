#include "live/tcp_bulk.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/log.h"

namespace mocha::live {
namespace {

constexpr const char* kLogComponent = "tcp-bulk";
constexpr std::uint32_t kTcpBulkMagic = 0x3142544dU;  // "MTB1"
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 2 + 4;
// Extra wait past the caller's timeout before it gives up on the reactor
// ever answering (only reachable if the loop thread is wedged).
constexpr std::int64_t kReactorGraceUs = 1'000'000;
constexpr std::int64_t kDrainTickUs = 5'000;

}  // namespace

TcpBulkBackend::TcpBulkBackend(Endpoint& endpoint, TcpBulkOptions opts)
    : endpoint_(endpoint),
      opts_(opts),
      reactor_("bulk.tcp." + std::to_string(endpoint.node()) + ".reactor."),
      tm_(resolve_bulk_counters(BulkBackend::kTcp, endpoint.node())) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "tcp-bulk socket");
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
  bind_addr.sin_port = 0;
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0 ||
      ::listen(listen_fd_, opts_.listen_backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::system_error(err, std::generic_category(), "tcp-bulk listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    tcp_port_ = ntohs(bound.sin_port);
  }
  // Before run() the constructing thread may configure the reactor freely.
  reactor_.watch_fd(listen_fd_, EPOLLIN,
                    [this](std::uint32_t) { accept_ready(); });
  loop_thread_ = std::thread([this] { reactor_.run(); });
}

TcpBulkBackend::~TcpBulkBackend() {
  // Fail anything still queued so no caller blocks past destruction, then
  // stop the loop and close every fd. The wait on the posted cleanup is
  // bounded by the same grace deadline send_bundle callers get: if the loop
  // thread is wedged, fall through to stop() + join rather than spinning
  // here forever.
  std::shared_ptr<Pending> stopped = std::make_shared<Pending>();
  reactor_.post([this, stopped] {
    for (auto& [peer, conn] : conns_) {
      reactor_.cancel(conn->connect_timer);
      for (auto& frame : conn->queue) {
        reactor_.cancel(frame.deadline_timer);
        complete(frame.pending,
                 util::Status(util::StatusCode::kShutdown,
                              "tcp-bulk backend shutting down"));
      }
      reactor_.unwatch_fd(conn->fd);
      ::close(conn->fd);
    }
    conns_.clear();
    lru_.clear();
    for (auto& [fd, in] : inbound_) {
      reactor_.unwatch_fd(fd);
      ::close(fd);
    }
    inbound_.clear();
    complete(stopped, util::Status::ok());
    reactor_.stop();
  });
  {
    const std::int64_t grace_deadline =
        Clock::monotonic().now_us() + kReactorGraceUs;
    util::MutexLock lock(stopped->mu);
    while (!stopped->done) {
      const std::int64_t now = Clock::monotonic().now_us();
      if (now >= grace_deadline) break;
      stopped->cv.wait_for_us(stopped->mu, grace_deadline - now);
    }
  }
  reactor_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpBulkBackend::set_peer_contact(net::NodeId peer, std::uint16_t port) {
  util::MutexLock lock(mu_);
  if (port == 0) {
    contacts_.erase(peer);
  } else {
    contacts_[peer] = port;
  }
}

std::uint16_t TcpBulkBackend::peer_contact(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  const auto it = contacts_.find(peer);
  return it == contacts_.end() ? 0 : it->second;
}

void TcpBulkBackend::complete(const std::shared_ptr<Pending>& pending,
                              util::Status status) {
  util::MutexLock lock(pending->mu);
  if (pending->done) return;
  pending->done = true;
  pending->status = std::move(status);
  pending->cv.notify_all();
}

util::Status TcpBulkBackend::send_bundle(net::NodeId dst, net::Port port,
                                         util::Buffer payload,
                                         std::int64_t timeout_us) {
  util::Buffer frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  util::WireWriter header(frame);
  header.u32(kTcpBulkMagic);
  header.u32(endpoint_.node());
  header.u16(port);
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.raw(payload);

  auto pending = std::make_shared<Pending>();
  reactor_.post([this, dst, frame = std::move(frame), pending,
                 timeout_us]() mutable {
    start_send(dst, std::move(frame), pending, timeout_us);
  });

  const std::int64_t grace_deadline =
      Clock::monotonic().now_us() + timeout_us + kReactorGraceUs;
  util::Status result;
  {
    util::MutexLock lock(pending->mu);
    while (!pending->done) {
      const std::int64_t now = Clock::monotonic().now_us();
      if (now >= grace_deadline) {
        pending->done = true;
        pending->status =
            util::Status(util::StatusCode::kTimeout,
                         "tcp-bulk: reactor missed the send deadline");
        break;
      }
      pending->cv.wait_for_us(pending->mu, grace_deadline - now);
    }
    result = pending->status;
  }
  if (result.is_ok()) {
    tm_.sent->add();
  } else {
    tm_.failures->add();
  }
  return result;
}

std::optional<TransportBackend::Bundle> TcpBulkBackend::recv_bundle(
    net::Port port, std::int64_t timeout_us) {
  const std::int64_t deadline = Clock::monotonic().now_us() + timeout_us;
  util::MutexLock lock(mu_);
  PortQueue& queue = port_queue(port);
  while (queue.bundles.empty()) {
    const std::int64_t now = Clock::monotonic().now_us();
    if (now >= deadline) return std::nullopt;
    queue.cv.wait_for_us(mu_, deadline - now);
  }
  Bundle bundle = std::move(queue.bundles.front());
  queue.bundles.pop_front();
  return bundle;
}

TcpBulkBackend::PortQueue& TcpBulkBackend::port_queue(net::Port port) {
  auto& slot = delivered_[port];
  if (slot == nullptr) slot = std::make_unique<PortQueue>();
  return *slot;
}

std::size_t TcpBulkBackend::cached_connections() const {
  util::MutexLock lock(mu_);
  return cached_conns_gauge_;
}

// ---------------------------------------------------------------------------
// Reactor-loop-thread side

void TcpBulkBackend::start_send(net::NodeId dst, util::Buffer frame,
                                std::shared_ptr<Pending> pending,
                                std::int64_t timeout_us) {
  if (draining_) {
    complete(pending, util::Status(util::StatusCode::kUnavailable,
                                   "tcp-bulk: backend draining"));
    return;
  }
  util::Status error;
  Conn* conn = ensure_conn(dst, &error);
  if (conn == nullptr) {
    complete(pending, std::move(error));
    return;
  }
  OutFrame out;
  out.bytes = std::move(frame);
  out.pending = pending;
  out.deadline_timer = reactor_.call_after(
      timeout_us, [this, dst, pending] { frame_deadline(dst, pending); });
  conn->queue.push_back(std::move(out));
  lru_.erase(conn->lru_it);
  lru_.push_front(dst);
  conn->lru_it = lru_.begin();
  if (conn->connected) flush_conn(*conn);
  // flush_conn may have torn the connection down on a hard write error.
  if (conns_.count(dst) != 0) update_conn_watch(*conn);
}

TcpBulkBackend::Conn* TcpBulkBackend::ensure_conn(net::NodeId dst,
                                                  util::Status* error) {
  const auto it = conns_.find(dst);
  if (it != conns_.end()) return it->second.get();

  const auto addr = endpoint_.peer_addr(dst);
  const std::uint16_t contact = peer_contact(dst);
  if (!addr.has_value() || addr->ipv4 == 0) {
    *error = util::Status(util::StatusCode::kUnavailable,
                          "tcp-bulk: no address for node " +
                              std::to_string(dst));
    return nullptr;
  }
  if (contact == 0) {
    *error = util::Status(util::StatusCode::kUnavailable,
                          "tcp-bulk: node " + std::to_string(dst) +
                              " advertised no tcp contact port");
    return nullptr;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = util::Status(util::StatusCode::kUnavailable,
                          std::string("tcp-bulk: socket: ") +
                              std::strerror(errno));
    return nullptr;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (opts_.send_buffer_bytes > 0) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.send_buffer_bytes,
                       sizeof(opts_.send_buffer_bytes));
  }
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = addr->ipv4;  // already network byte order
  to.sin_port = htons(contact);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = dst;
  // MOCHA_REACTOR_SAFE: SOCK_NONBLOCK fd — connect returns EINPROGRESS.
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  if (rc == 0) {
    conn->connected = true;
  } else if (errno == EINPROGRESS) {
    conn->connected = false;
    conn->connect_timer = reactor_.call_after(
        opts_.connect_timeout_us, [this, dst] {
          fail_conn(dst, util::StatusCode::kTimeout,
                    "tcp-bulk: connect to node " + std::to_string(dst) +
                        " timed out");
        });
  } else {
    *error = util::Status(util::StatusCode::kUnavailable,
                          "tcp-bulk: connect to node " + std::to_string(dst) +
                              ": " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  lru_.push_front(dst);
  conn->lru_it = lru_.begin();
  Conn* raw = conn.get();
  conns_[dst] = std::move(conn);
  reactor_.watch_fd(fd, raw->connected ? EPOLLIN : (EPOLLIN | EPOLLOUT),
                    [this, dst](std::uint32_t events) {
                      conn_event(dst, events);
                    });
  evict_idle_over_cap();
  {
    util::MutexLock lock(mu_);
    cached_conns_gauge_ = conns_.size();
  }
  if (conns_.count(dst) == 0) {
    // Unreachable with a sane cache cap (eviction spares the MRU entry),
    // but never hand back a dangling pointer with an OK status.
    *error = util::Status(util::StatusCode::kUnavailable,
                          "tcp-bulk: connection cache rejected node " +
                              std::to_string(dst));
    return nullptr;
  }
  return raw;
}

void TcpBulkBackend::conn_event(net::NodeId dst, std::uint32_t events) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if (!conn.connected) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      int err = 0;
      socklen_t err_len = sizeof(err);
      if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
        err = errno;
      }
      if (err != 0) {
        fail_conn(dst, util::StatusCode::kUnavailable,
                  "tcp-bulk: connect to node " + std::to_string(dst) + ": " +
                      std::strerror(err));
        return;
      }
      conn.connected = true;
      reactor_.cancel(conn.connect_timer);
      conn.connect_timer = Reactor::kInvalidTimer;
    }
  } else if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_conn(dst, util::StatusCode::kUnavailable,
              "tcp-bulk: connection to node " + std::to_string(dst) +
                  " reset");
    return;
  }
  if (conn.connected && (events & EPOLLIN) != 0) {
    // Outbound streams are one-way; readable means FIN/reset (or protocol
    // garbage, which gets the same treatment).
    std::uint8_t scratch[256];
    const ssize_t got = ::recv(conn.fd, scratch, sizeof(scratch), 0);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
      fail_conn(dst, util::StatusCode::kUnavailable,
                "tcp-bulk: node " + std::to_string(dst) +
                    " closed the bulk stream");
      return;
    }
  }
  if (conn.connected && (events & EPOLLOUT) != 0) flush_conn(conn);
  if (conns_.count(dst) != 0) update_conn_watch(conn);
}

void TcpBulkBackend::flush_conn(Conn& conn) {
  while (!conn.queue.empty()) {
    OutFrame& frame = conn.queue.front();
    const std::size_t left = frame.bytes.size() - frame.offset;
    const ssize_t wrote = ::send(conn.fd, frame.bytes.data() + frame.offset,
                                 left, MSG_NOSIGNAL);
    if (wrote > 0) {
      frame.offset += static_cast<std::size_t>(wrote);
      if (frame.offset == frame.bytes.size()) {
        reactor_.cancel(frame.deadline_timer);
        complete(frame.pending, util::Status::ok());
        conn.queue.pop_front();
      }
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail_conn(conn.peer, util::StatusCode::kUnavailable,
              "tcp-bulk: write to node " + std::to_string(conn.peer) + ": " +
                  std::strerror(wrote < 0 ? errno : EPIPE));
    return;
  }
}

void TcpBulkBackend::update_conn_watch(Conn& conn) {
  const std::uint32_t events =
      (!conn.connected || !conn.queue.empty()) ? (EPOLLIN | EPOLLOUT)
                                               : EPOLLIN;
  const net::NodeId dst = conn.peer;
  reactor_.watch_fd(conn.fd, events, [this, dst](std::uint32_t ev) {
    conn_event(dst, ev);
  });
}

void TcpBulkBackend::frame_deadline(
    net::NodeId dst, const std::shared_ptr<Pending>& pending) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  bool found = false;
  for (const auto& frame : conn.queue) {
    if (frame.pending == pending) {
      found = true;
      break;
    }
  }
  if (!found) return;  // completed already; stale timer
  complete(pending,
           util::Status(util::StatusCode::kTimeout,
                        "tcp-bulk: bundle write to node " +
                            std::to_string(dst) + " timed out"));
  // A frame may be half-written — the stream is unusable; drop the
  // connection, failing whatever else is queued behind it.
  fail_conn(dst, util::StatusCode::kUnavailable,
            "tcp-bulk: connection to node " + std::to_string(dst) +
                " dropped after send timeout");
}

void TcpBulkBackend::fail_conn(net::NodeId dst, util::StatusCode code,
                               const std::string& why) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  MOCHA_DEBUG(kLogComponent) << why;
  reactor_.cancel(conn.connect_timer);
  const bool was_established = conn.connected;
  for (auto& frame : conn.queue) {
    reactor_.cancel(frame.deadline_timer);
    complete(frame.pending, util::Status(code, why));
  }
  reactor_.unwatch_fd(conn.fd);
  ::close(conn.fd);
  lru_.erase(conn.lru_it);
  conns_.erase(it);
  if (was_established) tm_.repairs->add();
  util::MutexLock lock(mu_);
  cached_conns_gauge_ = conns_.size();
}

void TcpBulkBackend::evict_idle_over_cap() {
  while (conns_.size() > opts_.max_cached_connections) {
    // Walk from the LRU tail; only idle connections are evictable, and the
    // MRU entry never is — it is the connection the caller just created or
    // touched, whose frame is enqueued only after ensure_conn returns (so
    // an empty queue there does not mean idle).
    bool evicted = false;
    for (auto lru_it = lru_.rbegin(); lru_it != lru_.rend(); ++lru_it) {
      if (*lru_it == lru_.front()) break;
      const auto it = conns_.find(*lru_it);
      if (it == conns_.end() || !it->second->queue.empty()) continue;
      Conn& conn = *it->second;
      reactor_.cancel(conn.connect_timer);
      reactor_.unwatch_fd(conn.fd);
      close_conn_graceful(conn);
      lru_.erase(conn.lru_it);
      conns_.erase(it);
      evicted = true;
      break;
    }
    if (!evicted) break;  // every entry busy: let the cache run hot
  }
  util::MutexLock lock(mu_);
  cached_conns_gauge_ = conns_.size();
}

void TcpBulkBackend::close_conn_graceful(Conn& conn) {
  // FIN first so the peer's reader sees clean EOF, linger so close() gives
  // the kernel a moment to push the tail instead of discarding it.
  (void)::shutdown(conn.fd, SHUT_WR);
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 1;
  (void)::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(conn.fd);
  conn.fd = -1;
}

bool TcpBulkBackend::drain(std::int64_t timeout_us) {
  auto done_signal = std::make_shared<Pending>();
  const std::int64_t deadline = Clock::monotonic().now_us() + timeout_us;
  reactor_.post([this, done_signal, deadline] {
    draining_ = true;
    drain_tick(done_signal, deadline);
  });
  util::MutexLock lock(done_signal->mu);
  while (!done_signal->done) {
    const std::int64_t now = Clock::monotonic().now_us();
    if (now >= deadline + kReactorGraceUs) return false;
    done_signal->cv.wait_for_us(done_signal->mu,
                                deadline + kReactorGraceUs - now);
  }
  return done_signal->status.is_ok();
}

void TcpBulkBackend::drain_tick(std::shared_ptr<Pending> done_signal,
                                std::int64_t deadline_us) {
  bool busy = false;
  for (const auto& [peer, conn] : conns_) {
    if (!conn->queue.empty()) {
      busy = true;
      break;
    }
  }
  const std::int64_t now = Clock::monotonic().now_us();
  if (busy && now < deadline_us) {
    reactor_.call_after(kDrainTickUs, [this, done_signal, deadline_us] {
      drain_tick(done_signal, deadline_us);
    });
    return;
  }
  for (auto& [peer, conn] : conns_) {
    reactor_.cancel(conn->connect_timer);
    for (auto& frame : conn->queue) {  // only when the deadline cut us short
      reactor_.cancel(frame.deadline_timer);
      complete(frame.pending,
               util::Status(util::StatusCode::kShutdown,
                            "tcp-bulk: drained before the bundle flushed"));
    }
    reactor_.unwatch_fd(conn->fd);
    close_conn_graceful(*conn);
  }
  conns_.clear();
  lru_.clear();
  {
    util::MutexLock lock(mu_);
    cached_conns_gauge_ = 0;
  }
  complete(done_signal,
           busy ? util::Status(util::StatusCode::kTimeout,
                               "tcp-bulk: drain deadline hit with frames "
                               "still queued")
                : util::Status::ok());
}

void TcpBulkBackend::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms us
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    inbound_[fd] = std::move(in);
    reactor_.watch_fd(fd, EPOLLIN, [this, fd](std::uint32_t events) {
      inbound_event(fd, events);
    });
  }
}

void TcpBulkBackend::inbound_event(int fd, std::uint32_t events) {
  const auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  Inbound& in = *it->second;
  const auto close_inbound = [&] {
    reactor_.unwatch_fd(fd);
    ::close(fd);
    inbound_.erase(fd);
  };
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    close_inbound();
    return;
  }
  std::uint8_t chunk[64 * 1024];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      in.buf.insert(in.buf.end(), chunk, chunk + got);
      if (got == static_cast<ssize_t>(sizeof(chunk))) continue;
      break;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_inbound();  // EOF (peer drained/evicted) or hard error
    return;
  }
  std::size_t consumed = 0;
  while (in.buf.size() - consumed >= kFrameHeaderBytes) {
    // Bounds-checked header decode; the size guard above ensures the
    // fixed header reads cannot throw.
    util::WireReader head(
        std::span<const std::uint8_t>(in.buf).subspan(consumed));
    const std::uint32_t magic = head.u32();
    const net::NodeId src = head.u32();
    const net::Port port = head.u16();
    const std::size_t len = head.u32();
    if (magic != kTcpBulkMagic) {
      MOCHA_WARN(kLogComponent) << "bad frame magic on inbound bulk stream";
      close_inbound();
      return;
    }
    if (len > opts_.max_frame_bytes) {
      MOCHA_WARN(kLogComponent)
          << "oversized inbound bulk frame (" << len << " bytes)";
      close_inbound();
      return;
    }
    if (in.buf.size() - consumed < kFrameHeaderBytes + len) break;
    Bundle bundle;
    bundle.src = src;
    bundle.port = port;
    const std::span<const std::uint8_t> body = head.raw(len);
    bundle.payload.assign(body.begin(), body.end());
    consumed += kFrameHeaderBytes + len;
    // Counted before the bundle is visible to recv_bundle().
    tm_.received->add();
    util::MutexLock lock(mu_);
    PortQueue& queue = port_queue(bundle.port);
    queue.bundles.push_back(std::move(bundle));
    queue.cv.notify_all();
  }
  if (consumed > 0) {
    in.buf.erase(in.buf.begin(),
                 in.buf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
}

}  // namespace mocha::live
