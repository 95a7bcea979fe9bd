// ECMP session transport (paper §3.2, §3.3, §5.3).
//
// Transport is the one place a router's ECMP messages enter and leave
// the wire. It owns everything session-shaped:
//
//   * encode/decode and the control-byte + message-type counters,
//   * per-interface TCP/UDP mode and the UDP soft-state refresh clock,
//   * the neighbor table: liveness from any traffic plus periodic
//     neighbor-discovery queries and keepalive expiry (§3.3),
//   * §5.3 segment batching (TCP mode) via ecmp::Batcher,
//   * the shared control-sequence counter (discovery keepalives and
//     router-initiated counts interleave on one sequence space).
//
// TransportPolicy declares every timer/retry knob the session layer
// uses, once: express::RouterConfig extends it with the router's own
// knobs and hands it down unchanged, so the protocol layers above never
// reach into raw durations.
//
// Module seam: the transport understands neighbors, packets, and
// sessions — never channels. It holds no subscription or counting
// state; protocol reactions (refresh this entry, this neighbor died,
// these channels need re-announcing) flow upward through
// TransportHooks and the Delivery struct, and the layers above decide
// what they mean. This keeps the session machinery reusable by any
// ECMP speaker and testable with scripted packets (see
// tests/test_transport.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ecmp/batcher.hpp"
#include "ecmp/codec.hpp"
#include "ecmp/messages.hpp"
#include "ecmp/session.hpp"
#include "ip/address.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace express::ecmp {

/// Unanswered UDP refresh intervals before a downstream entry expires.
inline constexpr std::uint32_t kUdpRobustness = 2;

/// Period of the neighbor-discovery / keepalive queries (§3.3).
inline constexpr sim::Duration kNeighborQueryInterval = sim::seconds(30);
/// Silence after which a router neighbor's session expires (§3.3).
inline constexpr sim::Duration kNeighborTimeout = sim::seconds(95);

/// Retry/timeout policy for ECMP sessions: every duration the transport
/// (or a layer above, via accessors) uses to arm a timer.
struct TransportPolicy {
  /// Enable periodic neighbor discovery / keepalive queries (§3.3).
  bool neighbor_discovery = false;

  /// UDP-mode soft state: per-channel refresh query interval.
  sim::Duration udp_query_interval = sim::seconds(60);

  /// TCP-mode segment batching (§5.3): coalesce ECMP messages to each
  /// neighbor for up to this window (or until a 1480-byte segment
  /// fills) before transmitting. Unset = one packet per message.
  std::optional<sim::Duration> batch_window;

  /// How long a UDP-mode downstream entry lives without a refresh.
  [[nodiscard]] sim::Duration udp_lifetime() const {
    return udp_query_interval * kUdpRobustness + udp_query_interval / 2;
  }
  /// Reply deadline carried in UDP refresh queries.
  [[nodiscard]] sim::Duration udp_reply_timeout() const {
    return udp_query_interval / 2;
  }
};

struct TransportStats {
  std::uint64_t counts_sent = 0;
  std::uint64_t counts_received = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t queries_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t control_bytes_sent = 0;
  std::uint64_t control_bytes_received = 0;
};

/// Upcalls from the session machinery into the protocol layers.
struct TransportHooks {
  /// One UDP soft-state refresh round is due (fires every
  /// udp_query_interval while any interface runs in UDP mode). Returns
  /// whether UDP soft state remains: when false the refresh clock
  /// stops, so torn-down neighbors (chaos router death) stop leaking
  /// scheduled events and refresh bytes. ensure_udp_refresh() re-arms
  /// it when new soft state appears.
  std::function<bool()> udp_refresh_round;
  /// A neighbor's session expired (keepalive timeout, §3.2/§3.3).
  std::function<void(net::NodeId)> neighbor_died;
};

/// An inbound ECMP packet, decoded and attributed to a live session.
struct Delivery {
  net::NodeId from = net::kInvalidNode;
  /// A previously failed session revived: the peer lost our state, so
  /// the subscription layer must re-announce its channels (§3.2).
  bool reestablished = false;
  std::vector<Message> messages;
};

class Transport {
 public:
  Transport(net::Network& network, net::NodeId node, TransportPolicy policy,
            TransportHooks hooks);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // --- wire I/O ------------------------------------------------------
  /// Send one message to a neighbor (batched in TCP mode when a batch
  /// window is configured). Classifies the message into the sent-side
  /// counters. Unreachable neighbors (partition) are dropped silently
  /// after byte accounting, like a failed TCP write.
  void send(net::NodeId neighbor, const Message& msg);

  /// LAN-wide general query out one multi-access interface (§3.2): one
  /// packet to the all-routers group covers every member on the wire.
  void send_lan_query(std::uint32_t iface, const CountQuery& query);

  /// Unicast one message to a non-adjacent ECMP speaker (e.g. the host
  /// that tunnelled a remote CountQuery here, §2.1). Routed as pure IP
  /// transit: intermediate routers never dispatch it.
  void send_remote(ip::Address dest, const Message& msg);

  /// Account, attribute, and decode an inbound ECMP packet.
  Delivery receive(const net::Packet& packet, std::uint32_t in_iface);

  // --- interface modes (§3.2) ----------------------------------------
  void set_mode(std::uint32_t iface, Mode mode);
  [[nodiscard]] Mode mode(std::uint32_t iface) const;

  /// Re-arm the UDP refresh clock if any interface runs in UDP mode.
  /// Called by the subscription layer when new UDP soft state is
  /// installed after the clock ran dry (see TransportHooks).
  void ensure_udp_refresh();
  /// True while a refresh tick is scheduled (test introspection).
  [[nodiscard]] bool udp_refresh_active() const {
    return udp_refresh_scheduled_;
  }

  // --- sequence numbers ----------------------------------------------
  /// Next value of the shared control-sequence counter (discovery
  /// keepalives and locally initiated counts share one space).
  std::uint32_t next_seq() { return next_seq_++; }

  // --- link timing ---------------------------------------------------
  /// Round-trip time of the link on `iface` (for §3.1 timeout budgets).
  [[nodiscard]] sim::Duration link_rtt(std::uint32_t iface) const;

  // --- introspection -------------------------------------------------
  [[nodiscard]] const TransportPolicy& policy() const { return policy_; }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] TransportStats stats() const { return *stats_; }
  [[nodiscard]] std::uint64_t segments_sent() const {
    return batcher_ ? batcher_->segments_sent() : 0;
  }

 private:
  void transmit(net::NodeId neighbor, std::vector<std::uint8_t> payload);
  void classify_sent(const Message& msg);
  void schedule_udp_refresh();
  void udp_refresh_tick();
  void schedule_neighbor_discovery();
  void neighbor_discovery_tick();

  net::Network* network_;
  net::NodeId node_;
  TransportPolicy policy_;
  TransportHooks hooks_;
  TransportStats* stats_;  ///< registry-owned block
  std::unordered_map<std::uint32_t, Mode> iface_modes_;
  NeighborTable neighbors_;
  std::unique_ptr<Batcher> batcher_;  ///< §5.3 segment coalescing
  std::uint32_t next_seq_ = 1;
  bool udp_refresh_scheduled_ = false;
};

}  // namespace express::ecmp
