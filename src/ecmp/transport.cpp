#include "ecmp/transport.hpp"

#include <algorithm>
#include <utility>
#include <variant>

namespace express::ecmp {

Transport::Transport(net::Network& network, net::NodeId node,
                     TransportPolicy policy, TransportHooks hooks)
    : network_(&network),
      node_(node),
      policy_(policy),
      hooks_(std::move(hooks)),
      stats_(network.node_scope(node).bind<TransportStats>({
          {&TransportStats::counts_sent, "ecmp.transport.counts_sent"},
          {&TransportStats::counts_received, "ecmp.transport.counts_received"},
          {&TransportStats::queries_sent, "ecmp.transport.queries_sent"},
          {&TransportStats::queries_received,
           "ecmp.transport.queries_received"},
          {&TransportStats::responses_sent, "ecmp.transport.responses_sent"},
          {&TransportStats::responses_received,
           "ecmp.transport.responses_received"},
          {&TransportStats::control_bytes_sent,
           "ecmp.transport.control_bytes_sent"},
          {&TransportStats::control_bytes_received,
           "ecmp.transport.control_bytes_received"},
      })) {
  if (policy_.neighbor_discovery) schedule_neighbor_discovery();
  if (policy_.batch_window) {
    batcher_ = std::make_unique<Batcher>(
        network.scheduler(), *policy_.batch_window,
        [this](net::NodeId neighbor, std::vector<std::uint8_t> payload) {
          transmit(neighbor, std::move(payload));
        });
  }
}

// ---------------------------------------------------------------------
// Wire I/O
// ---------------------------------------------------------------------

void Transport::classify_sent(const Message& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Count>) {
          ++stats_->counts_sent;
        } else if constexpr (std::is_same_v<T, CountQuery>) {
          ++stats_->queries_sent;
        } else if constexpr (std::is_same_v<T, CountResponse>) {
          ++stats_->responses_sent;
        }
        // KeyRegister is host-originated; routers only receive it.
      },
      msg);
}

void Transport::send(net::NodeId neighbor, const Message& msg) {
  classify_sent(msg);
  if (batcher_) {
    // §5.3 TCP mode: coalesce messages per neighbor into segments.
    batcher_->enqueue(neighbor, msg);
    return;
  }
  transmit(neighbor, encode(msg));
}

void Transport::transmit(net::NodeId neighbor,
                         std::vector<std::uint8_t> payload) {
  net::Packet packet;
  packet.src = network_->topology().address(node_);
  packet.dst = network_->topology().address(neighbor);
  packet.protocol = ip::Protocol::kEcmp;
  packet.payload = std::move(payload);
  stats_->control_bytes_sent += packet.payload.size();
  const auto iface = network_->topology().reach(node_, neighbor).iface;
  if (!iface) return;  // unreachable (partition); like a failed TCP write
  network_->send_on_interface(node_, *iface, packet);
}

void Transport::send_lan_query(std::uint32_t iface, const CountQuery& query) {
  net::Packet packet;
  packet.src = network_->topology().address(node_);
  packet.dst = ip::kEcmpAllRouters;  // LAN-wide general query
  packet.protocol = ip::Protocol::kEcmp;
  packet.payload = encode(Message{query});
  stats_->control_bytes_sent += packet.payload.size();
  network_->send_on_interface(node_, iface, packet);
  ++stats_->queries_sent;
}

void Transport::send_remote(ip::Address dest, const Message& msg) {
  classify_sent(msg);
  net::Packet packet;
  packet.src = network_->topology().address(node_);
  packet.dst = dest;
  packet.protocol = ip::Protocol::kEcmp;
  packet.payload = encode(msg);
  stats_->control_bytes_sent += packet.payload.size();
  network_->send_unicast(node_, std::move(packet));
}

Delivery Transport::receive(const net::Packet& packet,
                            std::uint32_t in_iface) {
  Delivery delivery;
  delivery.from = network_->node_of(packet.src).value_or(
      network_->topology().neighbor_via(node_, in_iface));
  stats_->control_bytes_received += packet.payload.size();
  delivery.reestablished =
      neighbors_.heard_from(delivery.from, network_->now());
  delivery.messages = decode_all(packet.payload);
  for (const Message& msg : delivery.messages) {
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, Count>) {
            ++stats_->counts_received;
          } else if constexpr (std::is_same_v<T, CountQuery>) {
            ++stats_->queries_received;
          } else if constexpr (std::is_same_v<T, CountResponse>) {
            ++stats_->responses_received;
          }
        },
        msg);
  }
  return delivery;
}

// ---------------------------------------------------------------------
// Interface modes + UDP refresh clock (§3.2)
// ---------------------------------------------------------------------

void Transport::set_mode(std::uint32_t iface, Mode mode) {
  iface_modes_[iface] = mode;
  if (mode == Mode::kUdp) schedule_udp_refresh();
}

Mode Transport::mode(std::uint32_t iface) const {
  auto it = iface_modes_.find(iface);
  return it == iface_modes_.end() ? Mode::kTcp : it->second;
}

void Transport::schedule_udp_refresh() {
  if (udp_refresh_scheduled_) return;
  udp_refresh_scheduled_ = true;
  // lint: fire-and-forget (self-rearming tick gated by udp_refresh_scheduled_; transport lives as long as its router)
  network_->scheduler().schedule_after(policy_.udp_query_interval,
                                       [this]() { udp_refresh_tick(); });
}

void Transport::udp_refresh_tick() {
  const bool more = hooks_.udp_refresh_round && hooks_.udp_refresh_round();
  if (!more) {
    // No UDP soft state left (all downstream entries expired or their
    // neighbors died): let the clock run dry instead of ticking — and
    // sending refresh queries — forever. ensure_udp_refresh() re-arms
    // it when the next UDP-mode join installs state.
    udp_refresh_scheduled_ = false;
    return;
  }
  // lint: fire-and-forget (self-rearming tick gated by udp_refresh_scheduled_; transport lives as long as its router)
  network_->scheduler().schedule_after(policy_.udp_query_interval,
                                       [this]() { udp_refresh_tick(); });
}

void Transport::ensure_udp_refresh() {
  const bool any_udp =
      std::any_of(iface_modes_.begin(), iface_modes_.end(),
                  [](const auto& kv) { return kv.second == Mode::kUdp; });
  if (any_udp) schedule_udp_refresh();
}

// ---------------------------------------------------------------------
// Neighbor discovery / keepalive (§3.3)
// ---------------------------------------------------------------------

void Transport::schedule_neighbor_discovery() {
  // lint: fire-and-forget (periodic neighbor-discovery tick; transport lives as long as its router)
  network_->scheduler().schedule_after(kNeighborQueryInterval,
                                       [this]() { neighbor_discovery_tick(); });
}

void Transport::neighbor_discovery_tick() {
  // §3.3: periodically multicast a neighbors CountQuery on each
  // interface; on point-to-point links that is a direct query.
  const auto& info = network_->topology().node(node_);
  for (const net::Port& port : info.ports) {
    if (!network_->topology().link(port.link).up) continue;
    const net::NodeId peer = port.peer;
    if (network_->topology().node(peer).kind != net::NodeKind::kRouter) {
      continue;
    }
    CountQuery query;
    query.channel = ip::ChannelId{network_->topology().address(node_),
                                  ip::kEcmpAllRouters};
    query.count_id = kNeighborsId;
    query.timeout = kNeighborQueryInterval;
    query.query_seq = (next_seq_++ & 0xFFFF) | 0x40000000U;
    send(peer, query);
  }
  for (const auto& dead :
       neighbors_.expire(network_->now(), kNeighborTimeout)) {
    // Keepalives cover router-router sessions only: hosts do not answer
    // neighbor queries; their liveness is UDP-mode soft state (§3.2) or
    // link failure.
    if (network_->topology().node(dead.neighbor).kind ==
            net::NodeKind::kRouter &&
        hooks_.neighbor_died) {
      hooks_.neighbor_died(dead.neighbor);
    }
  }
  schedule_neighbor_discovery();
}

sim::Duration Transport::link_rtt(std::uint32_t iface) const {
  const net::LinkId link = network_->topology().port(node_, iface).link;
  return network_->topology().link(link).delay * 2;
}

}  // namespace express::ecmp
