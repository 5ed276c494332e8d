// live::TransportBackend — the pluggable daemon→daemon bulk path (§10).
//
// The paper's hybrid protocol keeps control traffic (grants, introductions,
// directives, shard-map) on the MochaNet UDP library while bulk replica
// payloads may ride a different mechanism. This interface factors the bulk
// hop out of live::DaemonService so the mechanisms are swappable and
// A/B-able per message class, mechanism-A/B style: same send_bundle /
// recv_bundle contract, three data movers behind it —
//
//   kUdp         the MochaNet-UDP fast path (adaptive RTO, NACKs,
//                sendmmsg/recvmmsg batching) — the default, and the
//                negotiation fallback every daemon can always receive on.
//   kTcp         kernel SOCK_STREAM with a per-peer LRU connection cache
//                (live/tcp_bulk.h) — the paper's hybrid bulk mechanism.
//   kBatchedUdp  a raw-speed experiment: one unconnected UDP socket,
//                whole-bundle sendmmsg bursts, recvmmsg drains, and a
//                single probe/NACK repair round per loss — no per-message
//                transport state at all.
//
// Peers advertise which backends they can *receive* on (and the contact
// ports) via the BULK-HELLO handshake (replica/wire.h); a sender uses a
// non-UDP backend toward a peer only after seeing that advertisement, so
// mixed deployments degrade to UDP automatically.
//
// Error typing: send_bundle returns kUnavailable when the peer has no
// usable contact (unknown address, no advertised port, connection refused)
// and kTimeout when the mechanism accepted the bundle but could not hand it
// to the peer within `timeout_us`. The UDP backend returns after handing
// the bundle to the endpoint's retransmit machinery (delivery stays
// asynchronous, exactly the pre-backend behavior).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include <netinet/in.h>

#include "live/endpoint.h"
#include "net/types.h"
#include "util/analysis_annotations.h"
#include "util/buffer.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mocha::live {

enum class BulkBackend : std::uint8_t { kUdp = 0, kTcp = 1, kBatchedUdp = 2 };

// CLI/env spelling: "udp", "tcp", "batched-udp".
const char* bulk_backend_name(BulkBackend kind);
std::optional<BulkBackend> parse_bulk_backend(std::string_view name);
// MOCHA_BULK_BACKEND in the environment, else `fallback`. Unparseable
// values fall back too (a forked test lane must not die on a typo).
BulkBackend bulk_backend_from_env(BulkBackend fallback);
// The kBulkCap* advertisement bit for `kind` (replica/wire.h).
std::uint8_t bulk_backend_cap(BulkBackend kind);

class TransportBackend {
 public:
  struct Bundle {
    net::NodeId src = net::kInvalidNode;
    net::Port port = 0;
    util::Buffer payload;
  };

  struct Stats {
    std::uint64_t bundles_sent = 0;
    std::uint64_t bundles_received = 0;
    std::uint64_t send_failures = 0;
    // Loss repair work: resent fragments (batched-UDP) / reconnects (TCP).
    std::uint64_t repairs = 0;
  };

  virtual ~TransportBackend() = default;

  virtual BulkBackend kind() const = 0;

  // UDP/TCP port peers must dial to deliver bundles to this backend; 0 when
  // inbound bundles ride the shared live::Endpoint (the UDP backend).
  virtual std::uint16_t contact_port() const = 0;

  // Records where `peer` receives this backend's bundles (from its
  // BULK-HELLO advertisement). The peer's IP is always taken from the
  // shared endpoint's address table. Thread-safe.
  virtual void set_peer_contact(net::NodeId peer, std::uint16_t port) = 0;
  virtual std::uint16_t peer_contact(net::NodeId peer) const = 0;

  // Delivers one replica bundle (already framed by the daemon:
  // `u32 lock | u64 version | bundle`) to (dst, port). See the file comment
  // for the per-backend blocking/typing contract. May block up to
  // `timeout_us`; never call from reactor context.
  virtual util::Status send_bundle(net::NodeId dst, net::Port port,
                                   util::Buffer payload,
                                   std::int64_t timeout_us) MOCHA_BLOCKING = 0;

  // Next inbound bundle addressed to `port`; nullopt after `timeout_us`.
  // Single consumer per port (same rule as Endpoint::recv).
  virtual std::optional<Bundle> recv_bundle(
      net::Port port, std::int64_t timeout_us) MOCHA_BLOCKING = 0;

  // Pre-exit drain: block until in-flight sends are flushed and any cached
  // connections are shut down cleanly (FIN + linger, see live/tcp_bulk.h).
  // True when everything drained within `timeout_us`. Idempotent.
  virtual bool drain(std::int64_t timeout_us) MOCHA_BLOCKING = 0;

  virtual Stats stats() const = 0;
};

// Registry handles ("bulk.<backend>.<node>.*") mirroring Stats increments,
// so scraped telemetry snapshots carry the bulk transport counters without
// polling each backend instance. Resolved once at backend construction.
struct BulkCounters {
  Counter* sent = nullptr;
  Counter* received = nullptr;
  Counter* failures = nullptr;
  Counter* repairs = nullptr;
};
BulkCounters resolve_bulk_counters(BulkBackend kind, net::NodeId node);

// The default backend: bulk bundles ride the shared live::Endpoint exactly
// as before the TransportBackend refactor — send() hands delivery to the
// adaptive-RTO retransmit machinery, inbound bundles arrive on the
// endpoint's logical data port.
class UdpBulkBackend final : public TransportBackend {
 public:
  explicit UdpBulkBackend(Endpoint& endpoint)
      : endpoint_(endpoint),
        tm_(resolve_bulk_counters(BulkBackend::kUdp, endpoint.node())) {}

  BulkBackend kind() const override { return BulkBackend::kUdp; }
  std::uint16_t contact_port() const override { return 0; }
  void set_peer_contact(net::NodeId, std::uint16_t) override {}
  std::uint16_t peer_contact(net::NodeId) const override { return 0; }

  util::Status send_bundle(net::NodeId dst, net::Port port,
                           util::Buffer payload,
                           std::int64_t timeout_us) override MOCHA_BLOCKING;
  std::optional<Bundle> recv_bundle(net::Port port,
                                    std::int64_t timeout_us) override
      MOCHA_BLOCKING;
  bool drain(std::int64_t timeout_us) override MOCHA_BLOCKING;
  Stats stats() const override;

 private:
  Endpoint& endpoint_;
  BulkCounters tm_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> failures_{0};
};

struct BatchedUdpOptions {
  std::size_t mtu = 1400;          // datagram budget, header included
  int socket_buffer_bytes = 4 << 20;  // SO_RCVBUF/SO_SNDBUF request
  // Sender probe cadence while a bundle is unacknowledged: each probe asks
  // the receiver which fragments are missing (answered with a NACK listing
  // them, or a DONE). Loss costs one probe round trip, not a full resend.
  std::int64_t probe_interval_us = 20'000;
  // Test-only inbound loss emulation, mirroring EndpointOptions netem (the
  // raw socket bypasses the endpoint's netem front door). The factory seeds
  // it from MOCHA_NETEM_LOSS_PCT so the CI loss lanes cover the repair path.
  double recv_loss_pct = 0.0;
  std::uint64_t netem_seed = 0x62756470u;
};

// The raw-speed experiment: no sequencing, no per-fragment acks, no RTO
// estimation — one sendmmsg burst per bundle, one recvmmsg drain per wakeup
// on the receive side, and a probe/NACK selective repair loop the sender
// drives only while fragments are missing. Reliability is bundle-scoped:
// send_bundle blocks until the receiver confirms reassembly (DONE) or
// `timeout_us` expires.
class BatchedUdpBackend final : public TransportBackend {
 public:
  // `endpoint` supplies peer IPv4 addresses (its envelope-learned table);
  // bundles themselves never touch it. Throws std::system_error when the
  // socket cannot be created.
  BatchedUdpBackend(Endpoint& endpoint, BatchedUdpOptions opts = {});
  ~BatchedUdpBackend() override;

  BatchedUdpBackend(const BatchedUdpBackend&) = delete;
  BatchedUdpBackend& operator=(const BatchedUdpBackend&) = delete;

  BulkBackend kind() const override { return BulkBackend::kBatchedUdp; }
  std::uint16_t contact_port() const override { return budp_port_; }
  void set_peer_contact(net::NodeId peer, std::uint16_t port) override
      EXCLUDES(mu_);
  std::uint16_t peer_contact(net::NodeId peer) const override EXCLUDES(mu_);

  util::Status send_bundle(net::NodeId dst, net::Port port,
                           util::Buffer payload, std::int64_t timeout_us)
      override MOCHA_BLOCKING EXCLUDES(mu_);
  std::optional<Bundle> recv_bundle(net::Port port,
                                    std::int64_t timeout_us) override
      MOCHA_BLOCKING EXCLUDES(mu_);
  bool drain(std::int64_t timeout_us) override MOCHA_BLOCKING;
  Stats stats() const override EXCLUDES(mu_);

 private:
  // One sender-side transfer awaiting its DONE; NACKed fragment indices are
  // handed from the rx thread to the sending thread through `missing`.
  // `frag_count` bounds what a NACK may ask for: the resend path indexes
  // per-fragment headers and payload offsets with these values, so indices
  // from the wire must be validated against it before they are queued.
  struct Waiter {
    bool done = false;
    std::uint32_t frag_count = 0;
    std::vector<std::uint32_t> missing;
    util::CondVar cv;
  };
  struct PortQueue {
    std::deque<Bundle> bundles;
    util::CondVar cv;
  };
  // Receive-side reassembly state — rx-thread-only, no lock.
  struct Reassembly {
    net::NodeId src = 0;
    net::Port port = 0;
    std::uint32_t frag_count = 0;
    std::uint32_t have = 0;
    std::vector<bool> present;
    // Per-fragment chunks, concatenated on completion. Sender and receiver
    // may disagree on mtu, so no fixed stride is assumed.
    std::vector<util::Buffer> chunks;
    sockaddr_in from{};
    std::int64_t last_arrival_us = 0;
  };

  void rx_loop();
  void handle_datagram(const std::uint8_t* data, std::size_t len,
                       const sockaddr_in& from) EXCLUDES(mu_);
  // DONE ignores `arg`/`missing`; PROBE carries frag_count in `arg`;
  // NACK writes `missing` (arg unused).
  void send_control(std::uint8_t type, std::uint64_t xfer, std::uint32_t arg,
                    const std::vector<std::uint32_t>& missing,
                    const sockaddr_in& to);
  PortQueue& port_queue(net::Port port) REQUIRES(mu_);

  Endpoint& endpoint_;
  BatchedUdpOptions opts_;
  std::size_t max_chunk_;
  int sock_ = -1;
  std::uint16_t budp_port_ = 0;
  std::atomic<bool> running_{false};
  std::thread rx_thread_;

  mutable util::Mutex mu_;
  BulkCounters tm_;
  std::map<net::NodeId, std::uint16_t> contacts_ GUARDED_BY(mu_);
  std::map<std::uint64_t, std::shared_ptr<Waiter>> waiters_ GUARDED_BY(mu_);
  std::map<net::Port, std::unique_ptr<PortQueue>> delivered_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  std::uint64_t next_xfer_ GUARDED_BY(mu_) = 1;

  // rx-thread-only.
  std::map<std::pair<net::NodeId, std::uint64_t>, Reassembly> reassembly_;
  std::deque<std::uint64_t> done_order_;  // recently completed xfer ids
  std::map<std::uint64_t, sockaddr_in> done_ids_;
  util::SplitMix64 netem_rng_;
  std::uint64_t netem_dropped_ = 0;
};

// Builds the backend for `kind` over `endpoint`. kUdp costs nothing beyond
// the endpoint itself; kTcp spins up the live/tcp_bulk.h reactor thread;
// kBatchedUdp binds its socket and starts the rx thread (loss emulation
// seeded from MOCHA_NETEM_LOSS_PCT, matching the endpoint's env netem).
std::unique_ptr<TransportBackend> make_bulk_backend(BulkBackend kind,
                                                    Endpoint& endpoint);

}  // namespace mocha::live
