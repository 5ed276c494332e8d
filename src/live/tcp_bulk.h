// live::TcpBulkBackend — the paper's hybrid bulk mechanism (§10).
//
// Bulk replica bundles ride kernel SOCK_STREAM while every control message
// stays on the MochaNet UDP endpoint. The win the paper measures is
// kernel-speed fragmentation: beyond a crossover bundle size, TCP's in-kernel
// segmentation + cwnd pacing beat the endpoint's userspace frag/RTO/NACK
// machinery; below it, connection setup and stream framing cost more than
// they save. Connections amortize that setup cost: an LRU cache (keyed by
// peer node, default 8 entries) reuses established streams across transfers,
// evicting only idle connections.
//
// Stream framing (one frame per bundle, little-endian):
//
//     u32 magic "MTB1" | u32 src_node | u16 dst_port | u32 len | len bytes
//
// A magic mismatch or oversized frame closes the stream — there is no
// resync; the sender reconnects and retries via its own fallback path.
//
// Threading: one live::Reactor loop thread owns ALL connection state
// (connect progress, write queues, inbound reassembly) — callers hand work
// in via Reactor::post() and block on a per-send completion record, so the
// connection cache itself needs no lock. The mutex below guards only the
// caller-facing edges: the peer contact table, delivered-bundle port queues,
// and the cached-connection count. Bundle counts live in the metrics
// registry ("bulk.tcp.<node>.*", the loop's own under
// "bulk.tcp.<node>.reactor.").
//
// Typed errors: kUnavailable = no contact / connect refused / peer closed
// or reset the stream before the frame was fully written; kTimeout =
// nonblocking connect or the frame write missed `timeout_us` (reactor-driven
// timers; a stalled peer that accepts but never reads lands here). A frame
// fully handed to the kernel send buffer reports OK — delivery from there is
// TCP's job, mirroring the UDP backend's hand-to-retransmit-machinery
// contract.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <thread>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/transport_backend.h"
#include "net/types.h"
#include "util/analysis_annotations.h"
#include "util/buffer.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct TcpBulkOptions {
  std::size_t max_cached_connections = 8;  // LRU cap (idle entries evicted)
  std::int64_t connect_timeout_us = 2'000'000;
  int listen_backlog = 16;
  // Largest accepted inbound frame; a peer announcing more is corrupt.
  std::size_t max_frame_bytes = 64u << 20;
  // Test hook: when > 0, SO_SNDBUF on outbound connections — shrinks the
  // kernel buffer so a stalled reader turns into a typed send timeout.
  int send_buffer_bytes = 0;
};

// MOCHA_REACTOR_SAFE (class-level): reactor callbacks may capture `this`
// because teardown is ordered — the destructor posts a cleanup callback,
// then stops the reactor and joins the loop thread before members die.
class MOCHA_REACTOR_SAFE TcpBulkBackend final : public TransportBackend {
 public:
  // Binds the bulk listener (port 0 = ephemeral, see contact_port()) and
  // starts the reactor loop thread. Throws std::system_error when the
  // listener cannot be created. `endpoint` supplies peer IPv4 addresses.
  explicit TcpBulkBackend(Endpoint& endpoint, TcpBulkOptions opts = {});
  ~TcpBulkBackend() override;

  TcpBulkBackend(const TcpBulkBackend&) = delete;
  TcpBulkBackend& operator=(const TcpBulkBackend&) = delete;

  BulkBackend kind() const override { return BulkBackend::kTcp; }
  std::uint16_t contact_port() const override { return tcp_port_; }
  void set_peer_contact(net::NodeId peer, std::uint16_t port) override
      EXCLUDES(mu_);
  std::uint16_t peer_contact(net::NodeId peer) const override EXCLUDES(mu_);

  util::Status send_bundle(net::NodeId dst, net::Port port,
                           util::Buffer payload, std::int64_t timeout_us)
      override MOCHA_BLOCKING EXCLUDES(mu_);
  std::optional<Bundle> recv_bundle(net::Port port,
                                    std::int64_t timeout_us) override
      MOCHA_BLOCKING EXCLUDES(mu_);

  // Flushes every queued frame, then closes cached connections cleanly:
  // shutdown(SHUT_WR) so the peer sees FIN, SO_LINGER so close() does not
  // discard the tail — the §10 pre-exit drain mocha_live runs under its
  // shared flush deadline. New sends after drain() fail kUnavailable.
  bool drain(std::int64_t timeout_us) override MOCHA_BLOCKING EXCLUDES(mu_);

  // Number of cached outbound connections (reactor-loop snapshot; test aid).
  std::size_t cached_connections() const;

 private:
  // One blocked send_bundle caller. `done`/`status` are set exactly once —
  // by a reactor callback, or by the caller itself if the reactor misses
  // the grace deadline.
  struct Pending {
    util::Mutex mu;
    util::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    util::Status status GUARDED_BY(mu);
  };
  struct OutFrame {
    util::Buffer bytes;  // full frame, header included
    std::size_t offset = 0;
    std::shared_ptr<Pending> pending;
    Reactor::TimerId deadline_timer = Reactor::kInvalidTimer;
  };
  // Reactor-thread-owned outbound connection (the LRU cache entry).
  struct Conn {
    int fd = -1;
    net::NodeId peer = net::kInvalidNode;
    bool connected = false;
    Reactor::TimerId connect_timer = Reactor::kInvalidTimer;
    std::deque<OutFrame> queue;
    std::list<net::NodeId>::iterator lru_it;
  };
  // Reactor-thread-owned inbound stream reassembly.
  struct Inbound {
    int fd = -1;
    util::Buffer buf;
  };
  struct PortQueue {
    std::deque<Bundle> bundles;
    util::CondVar cv;
  };

  static void complete(const std::shared_ptr<Pending>& pending,
                       util::Status status);

  // All private methods below run on the reactor loop thread only
  // (analyzer-enforced via MOCHA_REACTOR_ONLY).
  void start_send(net::NodeId dst, util::Buffer frame,
                  std::shared_ptr<Pending> pending, std::int64_t timeout_us)
      MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  Conn* ensure_conn(net::NodeId dst, util::Status* error) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void conn_event(net::NodeId dst, std::uint32_t events) MOCHA_REACTOR_ONLY;
  void flush_conn(Conn& conn) MOCHA_REACTOR_ONLY;
  void update_conn_watch(Conn& conn) MOCHA_REACTOR_ONLY;
  void frame_deadline(net::NodeId dst,
                      const std::shared_ptr<Pending>& pending)
      MOCHA_REACTOR_ONLY;
  void fail_conn(net::NodeId dst, util::StatusCode code,
                 const std::string& why) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void evict_idle_over_cap() MOCHA_REACTOR_ONLY;
  void close_conn_graceful(Conn& conn) MOCHA_REACTOR_ONLY;
  void accept_ready() MOCHA_REACTOR_ONLY;
  void inbound_event(int fd, std::uint32_t events) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void drain_tick(std::shared_ptr<Pending> done_signal,
                  std::int64_t deadline_us) MOCHA_REACTOR_ONLY;
  PortQueue& port_queue(net::Port port) REQUIRES(mu_);

  Endpoint& endpoint_;
  TcpBulkOptions opts_;
  Reactor reactor_;
  int listen_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  std::thread loop_thread_;

  mutable util::Mutex mu_;
  BulkCounters tm_;
  std::map<net::NodeId, std::uint16_t> contacts_ GUARDED_BY(mu_);
  std::map<net::Port, std::unique_ptr<PortQueue>> delivered_ GUARDED_BY(mu_);
  std::size_t cached_conns_gauge_ GUARDED_BY(mu_) = 0;

  // Reactor-loop-thread-owned (no lock; see the threading note above).
  std::map<net::NodeId, std::unique_ptr<Conn>> conns_;
  std::list<net::NodeId> lru_;  // front = most recently used
  std::map<int, std::unique_ptr<Inbound>> inbound_;
  bool draining_ = false;
};

}  // namespace mocha::live
