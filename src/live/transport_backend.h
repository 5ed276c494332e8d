// live::TransportBackend — the pluggable daemon→daemon bulk path (§10).
//
// The paper's hybrid protocol keeps control traffic (grants, introductions,
// directives, shard-map) on the MochaNet UDP library while bulk replica
// payloads may ride a different mechanism. This interface factors the bulk
// hop out of live::DaemonService so the mechanisms are swappable and
// A/B-able per message class, mechanism-A/B style: same send_bundle /
// recv_bundle contract, two data movers behind it —
//
//   kUdp  the MochaNet-UDP fast path (adaptive RTO, NACKs,
//         sendmmsg/recvmmsg batching) — the default, and the negotiation
//         fallback every daemon can always receive on.
//   kTcp  kernel SOCK_STREAM with a per-peer LRU connection cache
//         (live/tcp_bulk.h) — the paper's hybrid bulk mechanism.
//
// Peers advertise which backends they can *receive* on (and the TCP
// contact port) via the BULK-HELLO handshake (replica/wire.h); a sender uses a
// non-UDP backend toward a peer only after seeing that advertisement, so
// mixed deployments degrade to UDP automatically.
//
// Error typing: send_bundle returns kUnavailable when the peer has no
// usable contact (unknown address, no advertised port, connection refused)
// and kTimeout when the mechanism accepted the bundle but could not hand it
// to the peer within `timeout_us`. The UDP backend returns after handing
// the bundle to the endpoint's retransmit machinery (delivery stays
// asynchronous, exactly the pre-backend behavior).
//
// Counting: a backend counts its bundles only in the metrics registry,
// under "bulk.<backend>.<node>." (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "live/endpoint.h"
#include "net/types.h"
#include "util/analysis_annotations.h"
#include "util/buffer.h"
#include "util/status.h"

namespace mocha::live {

enum class BulkBackend : std::uint8_t { kUdp = 0, kTcp = 1 };

// CLI/env spelling: "udp", "tcp".
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
};

// Registry handles ("bulk.<backend>.<node>.*"), resolved once at backend
// construction; the only count of a backend's bundles. `repairs` counts
// reconnects (TCP).
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

 private:
  Endpoint& endpoint_;
  BulkCounters tm_;
};

// Builds the backend for `kind` over `endpoint`. kUdp costs nothing beyond
// the endpoint itself; kTcp spins up the live/tcp_bulk.h reactor thread.
std::unique_ptr<TransportBackend> make_bulk_backend(BulkBackend kind,
                                                    Endpoint& endpoint);

}  // namespace mocha::live
