#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace express::net {

namespace {

sim::Duration serialization_delay(std::uint32_t bytes, double bandwidth_bps) {
  if (bandwidth_bps <= 0) return sim::Duration{0};
  const double secs = static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  return sim::seconds_f(secs);
}

}  // namespace

Network::Crossing Network::cross_link(NodeId from, LinkId link,
                                      const Packet& packet, std::uint32_t bytes,
                                      sim::Time earliest) {
  const LinkInfo& l = topology_.link(link);
  if (!l.up) {
    ++stats_->packets_dropped_link_down;
    trace_drop(obs::DropReason::kLinkDown, link);
    return {Crossing::kLinkDown};
  }
  const std::size_t direction = (l.a == from) ? 0 : 1;
  sim::Time& free_at = link_free_[link][direction];
  const sim::Time start = std::max(earliest, free_at);
  const sim::Time done = start + serialization_delay(bytes, l.bandwidth_bps);
  free_at = done;
  LinkStats& ls = *link_stats_[link];
  ++ls.packets;
  ls.bytes += bytes;
  ++stats_->packets_sent;
  stats_->bytes_sent += bytes;
  plane_.trace.emit(start, obs::Entity::link(link), obs::TraceType::kPacketSent,
                    from, bytes);
  if (!impairments_armed_) return {Crossing::kArrives, done + l.delay};
  const auto held = roll_impairment(from, link, packet);
  if (!held) return {Crossing::kLost};  // wire time already consumed
  return {Crossing::kArrives, done + l.delay + *held};
}

void Network::set_link_impairments(LinkId link, const ImpairmentConfig& config) {
  if (impair_cfg_.empty()) {
    impair_cfg_.resize(topology_.link_count());
    impair_gilbert_bad_.resize(topology_.link_count());
  }
  impair_cfg_.at(link) = config;
  impair_gilbert_bad_.at(link) = {};
  impairments_armed_ = false;
  for (const ImpairmentConfig& c : impair_cfg_) {
    if (c.enabled()) {
      impairments_armed_ = true;
      break;
    }
  }
}

void Network::set_default_impairments(const ImpairmentConfig& config) {
  for (LinkId l = 0; l < topology_.link_count(); ++l) {
    set_link_impairments(l, config);
  }
}

void Network::seed_impairments(std::uint64_t seed) {
  impair_rng_.reseed(seed);
  for (auto& state : impair_gilbert_bad_) state = {};
}

std::optional<sim::Duration> Network::roll_impairment(NodeId from, LinkId link,
                                                      const Packet& packet) {
  const ImpairmentConfig& cfg = impair_cfg_[link];
  if (!cfg.enabled()) return sim::Duration{0};
  if (cfg.data_only) {
    const bool data =
        packet.protocol == ip::Protocol::kUdp ||
        (packet.protocol == ip::Protocol::kIpInIp && packet.inner &&
         packet.inner->protocol == ip::Protocol::kUdp);
    if (!data) return sim::Duration{0};
  }
  bool lost = false;
  switch (cfg.loss.kind) {
    case LossModel::Kind::kNone:
      break;
    case LossModel::Kind::kBernoulli:
      lost = impair_rng_.chance(cfg.loss.p);
      break;
    case LossModel::Kind::kGilbert: {
      const std::size_t dir = (topology_.link(link).a == from) ? 0 : 1;
      std::uint8_t& bad = impair_gilbert_bad_[link][dir];
      lost = impair_rng_.chance(bad != 0 ? cfg.loss.gilbert_loss_bad
                                         : cfg.loss.gilbert_loss_good);
      const double flip =
          bad != 0 ? cfg.loss.gilbert_exit_bad : cfg.loss.gilbert_enter_bad;
      if (impair_rng_.chance(flip)) bad = bad != 0 ? 0 : 1;
      break;
    }
  }
  if (lost) {
    ++stats_->packets_dropped_loss;
    plane_.trace.emit(scheduler_.now(), obs::Entity::link(link),
                      obs::TraceType::kPacketLost, from, packet.wire_size());
    return std::nullopt;
  }
  if (cfg.reorder_p > 0.0 && impair_rng_.chance(cfg.reorder_p)) {
    ++stats_->packets_reordered;
    plane_.trace.emit(scheduler_.now(), obs::Entity::link(link),
                      obs::TraceType::kPacketReordered, from,
                      packet.wire_size());
    return cfg.reorder_window;
  }
  return sim::Duration{0};
}

void Network::deliver_packet(NodeId to, const Packet& packet,
                             std::uint32_t iface) {
  // enabled() gate first: the entity lookup and wire_size() walk stay
  // off the per-delivery fast path while tracing is disarmed.
  if (plane_.trace.enabled()) {
    plane_.trace.emit(scheduler_.now(), node_entity(to),
                      obs::TraceType::kPacketDelivered, iface,
                      packet.wire_size());
  }
  if (Node* n = node(to)) n->handle_packet(packet, iface);
}

namespace {

/// True when `b` can share `a`'s packet record: the same header fields,
/// payload buffer and encapsulated packet.
bool same_copy(const Packet& a, const Packet& b) {
  return a.src == b.src && a.dst == b.dst && a.protocol == b.protocol &&
         a.ttl == b.ttl && a.data_bytes == b.data_bytes &&
         a.sequence == b.sequence && a.inner == b.inner &&
         (a.payload.shares_buffer_with(b.payload) ||
          (a.payload.empty() && b.payload.empty()));
}

}  // namespace

void Network::schedule_delivery(sim::Time arrival, NodeId to,
                                std::uint32_t iface, const Packet& packet) {
  const bool joins = fanout_batching_ && open_.head != kNil &&
                     open_.arrival == arrival &&
                     open_.scheduled == scheduler_.scheduled_events();
  std::uint32_t slot = kNil;
  if (joins && same_copy(packets_[open_.tail->packet], packet)) {
    slot = open_.tail->packet;
  } else if (!free_packets_.empty()) {
    slot = free_packets_.back();
    free_packets_.pop_back();
    packets_[slot] = packet;
  } else {
    slot = packets_.push(packet);
  }
  std::uint32_t copy = free_copy_;
  if (copy == kNil) {
    copy = copies_.push({});
  } else {
    free_copy_ = copies_[copy].next;
  }
  InFlight& record = copies_[copy];
  record = InFlight{to, iface, slot};
  peak_in_flight_ = std::max(peak_in_flight_, ++in_flight_);
  if (joins) {
    open_.tail->next = copy;
    open_.tail = &record;
    return;
  }
  // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
  scheduler_.schedule_at(arrival, [this, copy] { deliver_batch(copy); });
  open_ = OpenBatch{arrival, scheduler_.scheduled_events(), copy, &record};
}

void Network::deliver_batch(std::uint32_t head) {
  if (open_.head == head) open_.head = kNil;  // dispatching: closed to joins
  // Records are read by value and freed before each delivery: a handler
  // may send, which reuses them.
  Packet packet;
  std::uint32_t held = kNil;  // the packets_ record `packet` came from
  for (std::uint32_t i = head; i != kNil;) {
    const InFlight copy = copies_[i];
    copies_[i].next = free_copy_;
    free_copy_ = i;
    --in_flight_;
    if (copy.packet != held) {
      held = copy.packet;
      packet = std::move(packets_[held]);
      free_packets_.push_back(held);
    }
    deliver_packet(copy.to, packet, copy.iface);
    i = copy.next;
  }
}

DeliveryPoolStats Network::delivery_pool() const {
  return {in_flight_, peak_in_flight_,
          copies_.bytes() + packets_.bytes() +
              free_packets_.capacity() * sizeof(std::uint32_t)};
}

bool Network::send_on_interface(NodeId from, std::uint32_t iface,
                                const Packet& packet) {
  const Port& port = topology_.port(from, iface);
  const Crossing c =
      cross_link(from, port.link, packet, packet.wire_size(), scheduler_.now());
  if (c.outcome == Crossing::kLinkDown) return false;
  if (c.outcome == Crossing::kArrives) {
    schedule_delivery(c.arrival, port.peer, port.peer_iface, packet);
  }
  return true;
}

void Network::send_to_neighbor(NodeId from, NodeId neighbor,
                               const Packet& packet) {
  auto iface = topology_.interface_to(from, neighbor);
  if (!iface) throw std::logic_error("send_to_neighbor: not adjacent");
  send_on_interface(from, *iface, packet);
}

void Network::send_unicast(NodeId from, Packet packet) {
  const auto dest = node_of(packet.dst);
  if (!dest || (from != *dest && !routing_.next_hop(from, *dest))) {
    ++stats_->packets_dropped_no_route;
    trace_drop(obs::DropReason::kNoRoute, kInvalidLink);
    return;
  }
  if (from == *dest) {
    // Loopback delivery: interface index is irrelevant; use 0.
    schedule_delivery(scheduler_.now(), from, 0, packet);
    return;
  }
  // Walk the next hops (a routed node's next hop is routed too),
  // crossing every link in turn and decrementing TTL per hop; deliver
  // only at the destination.
  const std::uint32_t size = packet.wire_size();
  sim::Time at = scheduler_.now();
  NodeId hop = from;
  std::uint32_t iface = 0;  // arrival interface at `hop`
  while (hop != *dest) {
    if (packet.ttl == 0) {
      ++stats_->packets_dropped_ttl;
      trace_drop(obs::DropReason::kTtlExpired, kInvalidLink);
      return;
    }
    --packet.ttl;
    const NodeId next = routing_.next_hop(hop, *dest).value();
    const Port& port = topology_.port(hop, *topology_.interface_to(hop, next));
    const Crossing c = cross_link(hop, port.link, packet, size, at);
    if (c.outcome != Crossing::kArrives) return;  // upstream stays charged
    at = c.arrival;
    hop = next;
    iface = port.peer_iface;
  }
  schedule_delivery(at, hop, iface, packet);
}

void Network::set_link_up(LinkId link, bool up) {
  topology_.set_link_up(link, up);
  routing_.recompute();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id] != nullptr) nodes_[id]->on_routing_change();
  }
}

std::uint64_t Network::total_link_bytes() const {
  std::uint64_t total = 0;
  for (const LinkStats* ls : link_stats_) total += ls->bytes;
  return total;
}

}  // namespace express::net
