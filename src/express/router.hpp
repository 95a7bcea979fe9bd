// The EXPRESS router: thin wiring over the layered ECMP stack.
//
// The router composes four modules, each owning one concern from the
// paper, and implements only the protocol *reactions* that tie them
// together:
//
//   ForwardingPlane    (express/forwarding)      §3.4 data fast path
//   SubscriptionTable  (express/subscription)    §3.2/§3.5 hard state
//   CountingEngine     (express/counting_engine) §3.1 aggregation
//   ecmp::Transport    (ecmp/transport)          §3.2/§3.3/§5.3 sessions
//
// A packet flows: Transport::receive() decodes and attributes it; the
// router dispatches each message; membership transitions go through the
// SubscriptionTable, whose returned effect structs the router turns
// into FIB refreshes (ForwardingPlane), upstream Counts (Transport),
// and observer callbacks; CountQuery rounds live in the CountingEngine,
// which replies through a Transport-backed callback. One channel's
// control state is one Channel record in the table: the router arms its
// §3.2 route-switch hysteresis and §6 drift-recheck timers there, and
// erasing the record cancels both. The modules never include one
// another — the router is the only place their vocabularies meet.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "counting/error_curve.hpp"
#include "ecmp/count_id.hpp"
#include "ecmp/messages.hpp"
#include "ecmp/session.hpp"
#include "ecmp/transport.hpp"
#include "express/counting_engine.hpp"
#include "express/fib.hpp"
#include "express/forwarding.hpp"
#include "express/subscription.hpp"
#include "ip/channel.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace express {

/// A router's knobs: the ECMP session policy it hands its transport
/// (timers, discovery, batching; field docs on TransportPolicy) plus
/// the two the router itself acts on. The router keeps only those two;
/// the policy lives in the transport, read through policy().
struct RouterConfig : ecmp::TransportPolicy {
  /// Delay before acting on an upstream change, to damp route flaps (§3.2).
  sim::Duration route_change_hysteresis = sim::seconds(1);

  /// When set, subscriber counts are maintained proactively (§6):
  /// aggregate changes are pushed upstream per the error-tolerance curve
  /// instead of only at 0 <-> non-zero transitions.
  std::optional<counting::CurveParams> proactive;
};

/// Unified router counters: the subscription, ECMP transport and
/// forwarding views of this router (field docs on the base structs),
/// plus two counters of its own. No field name repeats across bases.
struct RouterStats : SubscriptionStats, ecmp::TransportStats, ForwardingStats {
  std::uint64_t proactive_updates_sent = 0;  ///< from the counting engine
  /// Neighbor-death / dead-child updates skipped because no interface
  /// resolves toward the neighbor any more (net::Topology::reach: a LAN
  /// host behind a dead hub link, a router no longer adjacent).
  /// Previously misattributed to interface 0.
  std::uint64_t unresolved_neighbor_updates = 0;
};

class ExpressRouter final : public net::Node {
 public:
  ExpressRouter(net::Network& network, net::NodeId id, RouterConfig config = {});

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;
  void on_routing_change() override;

  /// Transport mode for an interface (default TCP, §3.2: TCP for core
  /// routers, UDP for edge interfaces with many end hosts).
  void set_interface_mode(std::uint32_t iface, ecmp::Mode mode) {
    transport_.set_mode(iface, mode);
  }
  /// True while the UDP soft-state refresh clock is armed (it runs dry
  /// when no UDP downstream state remains; see TransportHooks).
  [[nodiscard]] bool udp_refresh_active() const {
    return transport_.udp_refresh_active();
  }

  /// Router-initiated count (§3.1): any on-tree router can measure its
  /// subtree without source cooperation, e.g. a transit domain's ingress
  /// counting the links the channel uses inside the domain.
  void initiate_count(const ip::ChannelId& channel, ecmp::CountId count_id,
                      sim::Duration timeout,
                      std::function<void(CountResult)> done);

  // --- Introspection for tests, benches, and operators ---------------
  [[nodiscard]] const Fib& fib() const { return forwarding_.fib(); }
  /// Unified view across the modules; see the per-module accessors for
  /// layer-local counters.
  [[nodiscard]] RouterStats stats() const {
    return RouterStats{table_.stats(), transport_.stats(), forwarding_.stats(),
                       counting_.stats().proactive_updates_sent,
                       own_stats_->unresolved_neighbor_updates};
  }
  /// Copy of the counting engine's registry-bound block.
  [[nodiscard]] CountingStats counting_stats() const {
    return counting_.stats();
  }
  [[nodiscard]] bool on_tree(const ip::ChannelId& channel) const {
    return table_.contains(channel);
  }
  /// Current subscriber-count sum over downstream neighbors (the
  /// router's c_cur in the proactive-counting algorithm).
  [[nodiscard]] std::int64_t subtree_count(const ip::ChannelId& channel) const {
    return table_.subtree_count(channel);
  }
  [[nodiscard]] std::size_t channel_count() const {
    return table_.channel_count();
  }
  /// §5.2 management-level (non-fast-path) state estimate in bytes.
  [[nodiscard]] std::size_t management_state_bytes() const {
    return table_.management_state_bytes() + 32 * counting_.pending_rounds();
  }
  /// Upstream neighbor currently used for a channel, if joined.
  [[nodiscard]] std::optional<net::NodeId> upstream_of(
      const ip::ChannelId& channel) const {
    const Channel* state = table_.find(channel);
    if (state == nullptr || state->upstream == net::kInvalidNode) {
      return std::nullopt;
    }
    return state->upstream;
  }
  /// Raw hard-state membership table (read-only, for the invariant
  /// auditor and tests).
  [[nodiscard]] const SubscriptionTable& subscriptions() const {
    return table_;
  }
  /// Mutable membership state, for *fault injection only*: audit tests
  /// corrupt it deliberately to prove the auditor catches each class of
  /// inconsistency. Protocol code must never use this. Each call notes
  /// the router as changed for the audit's memo, so a mutation must go
  /// through a fresh call after every audit.
  [[nodiscard]] SubscriptionTable& corrupt_subscriptions_for_test() {
    note_state_change();
    return table_;
  }
  /// The §6 proactive-counting curve, when counts are pushed on drift.
  [[nodiscard]] const std::optional<counting::CurveParams>& proactive() const {
    return proactive_;
  }
  /// Route switches currently held back by hysteresis — nonzero means
  /// the RPF invariant is legitimately unsettled (§3.2).
  [[nodiscard]] std::size_t pending_route_switches() const;

 private:
  // --- message handling ----------------------------------------------
  void handle_ecmp(const net::Packet& packet, std::uint32_t in_iface);
  void on_count(const ecmp::Count& msg, net::NodeId from, std::uint32_t iface);
  void on_query(const ecmp::CountQuery& msg, net::NodeId from,
                std::uint32_t iface);
  void on_response(const ecmp::CountResponse& msg, net::NodeId from);
  void on_key_register(const ecmp::KeyRegister& msg, net::NodeId from);

  // --- subscription reactions ----------------------------------------
  void apply_subscriber_count(const ip::ChannelId& channel, net::NodeId from,
                              std::uint32_t iface, std::int64_t count,
                              std::optional<ip::ChannelKey> key);
  void update_upstream(const ip::ChannelId& channel, Channel& state,
                       std::optional<ip::ChannelKey> key_to_forward);
  /// Tear down and drop the channel and its FIB entry. By value: the
  /// caller's id may be the table's own key, which the erase frees.
  void remove_channel(ip::ChannelId channel);
  void refresh_fib(const ip::ChannelId& channel, const Channel& state);
  void notify_total(const ip::ChannelId& channel, const Channel& state) {
    const std::int64_t total = state.subtree_count();
    scope().emit(network().now(), obs::TraceType::kSubscriptionChange,
                 channel.packed(), static_cast<std::uint64_t>(total));
  }
  /// Validation outcome flowing back down (CountResponse from upstream).
  void resolve_validation(const ip::ChannelId& channel, ecmp::Status status);
  /// §3.2: retransmit Counts for every channel upstream through `to`.
  void reannounce_to(net::NodeId to);
  [[nodiscard]] bool at_root(const ip::ChannelId& channel,
                             const Channel& state) const;

  // --- counting reactions --------------------------------------------
  void start_query(const ip::ChannelId& channel, ecmp::CountId count_id,
                   sim::Duration timeout, std::optional<net::NodeId> requester,
                   std::uint32_t query_seq,
                   std::function<void(CountResult)> local_done);
  /// Re-evaluate proactive drift; sends the update Count when due (§6).
  void maybe_send_proactive(const ip::ChannelId& channel);

  // --- transport reactions -------------------------------------------
  void send_count(net::NodeId to, const ip::ChannelId& channel,
                  std::int64_t value, std::optional<ip::ChannelKey> key,
                  ecmp::CountId count_id = ecmp::kSubscriberId,
                  std::uint32_t query_seq = 0) {
    transport_.send(to, ecmp::Count{channel, count_id, value, query_seq, key});
  }
  void send_response(net::NodeId to, const ip::ChannelId& channel,
                     ecmp::Status status) {
    transport_.send(
        to, ecmp::CountResponse{channel, ecmp::kSubscriberId, status});
  }
  void send_query(net::NodeId to, const ip::ChannelId& channel,
                  ecmp::CountId count_id, sim::Duration timeout,
                  std::uint32_t query_seq) {
    transport_.send(to,
                    ecmp::CountQuery{channel, count_id, timeout, query_seq});
  }
  /// One UDP soft-state refresh round; returns whether UDP soft state
  /// remains (false lets the transport's refresh clock run dry).
  bool udp_refresh_round();
  void neighbor_died(net::NodeId neighbor);
  /// Remote CountQuery tunnelled IP-in-IP to this router (§2.1).
  void on_remote_query(const net::Packet& inner);

  // --- route changes --------------------------------------------------
  void execute_route_switch(const ip::ChannelId& channel);

  /// Report a change of the hard state the invariant audit reads (the
  /// table with its pending route switches, the FIB) to the network's
  /// state observer. Bookkeeping only; never called on the data path.
  void note_state_change() const { network().note_state_change(id()); }

  [[nodiscard]] net::NodeId source_node(const ip::ChannelId& channel) const {
    return network().node_of(channel.source).value_or(net::kInvalidNode);
  }

  struct OwnStats {
    std::uint64_t unresolved_neighbor_updates = 0;
  };

  sim::Duration route_change_hysteresis_;
  std::optional<counting::CurveParams> proactive_;
  ForwardingPlane forwarding_;
  SubscriptionTable table_;
  CountingEngine counting_;
  ecmp::Transport transport_;
  /// The router's one counter of its own (registry-owned block); the
  /// rest of RouterStats is assembled from the modules by stats().
  OwnStats* own_stats_;
};

}  // namespace express
