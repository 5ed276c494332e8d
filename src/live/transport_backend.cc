#include "live/transport_backend.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "live/tcp_bulk.h"
#include "replica/wire.h"
#include "util/log.h"

namespace mocha::live {
namespace {

constexpr const char* kLogComponent = "bulk";

}  // namespace

const char* bulk_backend_name(BulkBackend kind) {
  switch (kind) {
    case BulkBackend::kUdp:
      return "udp";
    case BulkBackend::kTcp:
      return "tcp";
  }
  return "udp";
}

std::optional<BulkBackend> parse_bulk_backend(std::string_view name) {
  if (name == "udp") return BulkBackend::kUdp;
  if (name == "tcp") return BulkBackend::kTcp;
  return std::nullopt;
}

BulkBackend bulk_backend_from_env(BulkBackend fallback) {
  const char* v = std::getenv("MOCHA_BULK_BACKEND");
  if (v == nullptr || *v == '\0') return fallback;
  const auto parsed = parse_bulk_backend(v);
  if (!parsed.has_value()) {
    MOCHA_WARN(kLogComponent)
        << "ignoring unknown MOCHA_BULK_BACKEND=" << v << " (want udp|tcp)";
    return fallback;
  }
  return *parsed;
}

BulkCounters resolve_bulk_counters(BulkBackend kind, net::NodeId node) {
  const std::string prefix = std::string("bulk.") + bulk_backend_name(kind) +
                             "." + std::to_string(node) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  BulkCounters tm;
  tm.sent = registry.counter(prefix + "sent");
  tm.received = registry.counter(prefix + "received");
  tm.failures = registry.counter(prefix + "failures");
  tm.repairs = registry.counter(prefix + "repairs");
  return tm;
}

std::uint8_t bulk_backend_cap(BulkBackend kind) {
  switch (kind) {
    case BulkBackend::kUdp:
      return replica::kBulkCapUdp;
    case BulkBackend::kTcp:
      return replica::kBulkCapTcp;
  }
  return replica::kBulkCapUdp;
}

// ---------------------------------------------------------------------------
// UdpBulkBackend

util::Status UdpBulkBackend::send_bundle(net::NodeId dst, net::Port port,
                                         util::Buffer payload,
                                         std::int64_t /*timeout_us*/) {
  try {
    endpoint_.send(dst, port, std::move(payload));
  } catch (const std::logic_error& e) {
    tm_.failures->add();
    return util::Status(util::StatusCode::kUnavailable, e.what());
  }
  tm_.sent->add();
  return util::Status::ok();
}

std::optional<TransportBackend::Bundle> UdpBulkBackend::recv_bundle(
    net::Port port, std::int64_t timeout_us) {
  auto msg = endpoint_.recv_for(port, timeout_us);
  if (!msg.has_value()) return std::nullopt;
  tm_.received->add();
  return Bundle{msg->src, msg->port, std::move(msg->payload)};
}

bool UdpBulkBackend::drain(std::int64_t /*timeout_us*/) {
  // Outbound retransmit state lives in the shared endpoint, which the
  // process flushes once for all traffic classes before exit.
  return true;
}

// ---------------------------------------------------------------------------

std::unique_ptr<TransportBackend> make_bulk_backend(BulkBackend kind,
                                                    Endpoint& endpoint) {
  switch (kind) {
    case BulkBackend::kUdp:
      return std::make_unique<UdpBulkBackend>(endpoint);
    case BulkBackend::kTcp:
      return std::make_unique<TcpBulkBackend>(endpoint);
  }
  return std::make_unique<UdpBulkBackend>(endpoint);
}

}  // namespace mocha::live
