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

sim::Time Network::reserve_link(NodeId from, LinkId link, std::uint32_t bytes,
                                sim::Time earliest) {
  const LinkInfo& l = topology_.link(link);
  const std::size_t direction = (l.a == from) ? 0 : 1;
  sim::Time& free_at = link_free_.at(link)[direction];
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
  return done + l.delay;  // arrival at the peer
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

Network::ImpairmentVerdict Network::roll_impairment(NodeId from, LinkId link,
                                                    const Packet& packet) {
  const ImpairmentConfig& cfg = impair_cfg_[link];
  if (!cfg.enabled()) return ImpairmentVerdict::kDeliver;
  if (cfg.data_only) {
    const bool data =
        packet.protocol == ip::Protocol::kUdp ||
        (packet.protocol == ip::Protocol::kIpInIp && packet.inner &&
         packet.inner->protocol == ip::Protocol::kUdp);
    if (!data) return ImpairmentVerdict::kDeliver;
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
    return ImpairmentVerdict::kDrop;
  }
  if (cfg.reorder_p > 0.0 && impair_rng_.chance(cfg.reorder_p)) {
    ++stats_->packets_reordered;
    plane_.trace.emit(scheduler_.now(), obs::Entity::link(link),
                      obs::TraceType::kPacketReordered, from,
                      packet.wire_size());
    return ImpairmentVerdict::kDelay;
  }
  return ImpairmentVerdict::kDeliver;
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

void Network::transmit(NodeId from, LinkId link, Packet packet) {
  const LinkInfo& l = topology_.link(link);
  if (!l.up) {
    ++stats_->packets_dropped_link_down;
    trace_drop(obs::DropReason::kLinkDown, link);
    return;
  }
  const NodeId to = topology_.peer(link, from);
  sim::Time arrival =
      reserve_link(from, link, packet.wire_size(), scheduler_.now());
  if (impairments_armed_) {
    switch (roll_impairment(from, link, packet)) {
      case ImpairmentVerdict::kDrop:
        return;  // wire time already consumed, copy never arrives
      case ImpairmentVerdict::kDelay:
        arrival += impair_cfg_[link].reorder_window;
        break;
      case ImpairmentVerdict::kDeliver:
        break;
    }
  }
  auto iface_at_peer = topology_.interface_on(to, link);
  // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
  scheduler_.schedule_at(
      arrival, [this, to, iface = *iface_at_peer, p = std::move(packet)]() {
        deliver_packet(to, p, iface);
      });
}

std::uint32_t Network::acquire_fanout_batch() {
  if (!fanout_free_.empty()) {
    const std::uint32_t id = fanout_free_.back();
    fanout_free_.pop_back();
    return id;
  }
  fanout_pool_.emplace_back();
  return static_cast<std::uint32_t>(fanout_pool_.size() - 1);
}

void Network::deliver_fanout_batch(std::uint32_t id) {
  // One local Packet shared COW-style by every delivery (the payload
  // refcount is bumped once here, not once per copy). The pool is
  // re-indexed on every step because a handler may itself replicate
  // and grow the pool — indices stay valid, references do not.
  const Packet packet = fanout_pool_[id].packet;
  for (std::size_t i = 0; i < fanout_pool_[id].targets.size(); ++i) {
    const DeliveryTarget target = fanout_pool_[id].targets[i];
    deliver_packet(target.to, packet, target.iface);
  }
  FanoutBatch& batch = fanout_pool_[id];
  batch.packet = Packet{};
  batch.targets.clear();  // keeps capacity for reuse
  fanout_free_.push_back(id);
}

bool Network::Fanout::add(std::uint32_t iface) {
  Network& net = *net_;
  const LinkId link = net.topology_.node(from_).interfaces.at(iface);
  const LinkInfo& l = net.topology_.link(link);
  if (!l.up) {
    ++net.stats_->packets_dropped_link_down;
    net.trace_drop(obs::DropReason::kLinkDown, link);
    return false;
  }
  const NodeId to = net.topology_.peer(link, from_);
  sim::Time arrival =
      net.reserve_link(from_, link, wire_bytes_, net.scheduler_.now());
  if (net.impairments_armed_) {
    switch (net.roll_impairment(from_, link, packet_)) {
      case ImpairmentVerdict::kDrop:
        return true;  // copy consumed its wire slot but is gone
      case ImpairmentVerdict::kDelay:
        arrival += net.impair_cfg_[link].reorder_window;
        break;
      case ImpairmentVerdict::kDeliver:
        break;
    }
  }
  const DeliveryTarget target{to, *net.topology_.interface_on(to, link)};
  if (!net.fanout_batching_) {
    // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
    net.scheduler_.schedule_at(
        arrival, [n = net_, target, p = packet_]() {
          n->deliver_packet(target.to, p, target.iface);
        });
    return true;
  }
  if (queued_ != 0 && arrival == arrival_) {
    if (batch_ == kNoBatch) {
      batch_ = net.acquire_fanout_batch();
      FanoutBatch& b = net.fanout_pool_[batch_];
      b.packet = packet_;
      b.targets.push_back(first_);
    }
    net.fanout_pool_[batch_].targets.push_back(target);
    ++queued_;
    return true;
  }
  flush();
  arrival_ = arrival;
  first_ = target;
  queued_ = 1;
  return true;
}

void Network::Fanout::flush() {
  if (queued_ == 0) return;
  Network& net = *net_;
  if (batch_ == kNoBatch) {
    // Single copy at this arrival: same event shape as transmit().
    // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
    net.scheduler_.schedule_at(
        arrival_, [n = net_, target = first_, p = packet_]() {
          n->deliver_packet(target.to, p, target.iface);
        });
  } else {
    // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
    net.scheduler_.schedule_at(arrival_, [n = net_, id = batch_]() {
      n->deliver_fanout_batch(id);
    });
    batch_ = kNoBatch;
  }
  queued_ = 0;
}

void Network::send_on_interface(NodeId from, std::uint32_t iface, Packet packet) {
  const LinkId link = topology_.node(from).interfaces.at(iface);
  transmit(from, link, std::move(packet));
}

void Network::send_to_neighbor(NodeId from, NodeId neighbor, Packet packet) {
  auto iface = topology_.interface_to(from, neighbor);
  if (!iface) throw std::logic_error("send_to_neighbor: not adjacent");
  send_on_interface(from, *iface, std::move(packet));
}

void Network::send_unicast(NodeId from, Packet packet) {
  auto dest = node_of(packet.dst);
  if (!dest) {
    ++stats_->packets_dropped_no_route;
    trace_drop(obs::DropReason::kNoRoute, kInvalidLink);
    return;
  }
  if (from == *dest) {
    // Loopback delivery: interface index is irrelevant; use 0.
    // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
    scheduler_.schedule_after(
        sim::Duration{0}, [this, to = from, p = std::move(packet)]() {
          deliver_packet(to, p, 0);
        });
    return;
  }
  // Walk the path, reserving FIFO serialization on every link in turn,
  // decrementing TTL per hop; deliver only at the destination.
  const auto hops = routing_.path(from, *dest);
  if (hops.empty()) {
    ++stats_->packets_dropped_no_route;
    trace_drop(obs::DropReason::kNoRoute, kInvalidLink);
    return;
  }
  const std::uint32_t size = packet.wire_size();
  std::uint8_t ttl = packet.ttl;
  sim::Time at = scheduler_.now();
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (ttl == 0) {
      ++stats_->packets_dropped_ttl;
      trace_drop(obs::DropReason::kTtlExpired, kInvalidLink);
      return;
    }
    --ttl;
    auto iface = topology_.interface_to(hops[i], hops[i + 1]);
    const LinkId link = topology_.node(hops[i]).interfaces.at(*iface);
    if (!topology_.link(link).up) {
      ++stats_->packets_dropped_link_down;
      trace_drop(obs::DropReason::kLinkDown, link);
      return;
    }
    at = reserve_link(hops[i], link, size, at);
    if (impairments_armed_) {
      switch (roll_impairment(hops[i], link, packet)) {
        case ImpairmentVerdict::kDrop:
          return;  // lost mid-path; upstream links already charged
        case ImpairmentVerdict::kDelay:
          at += impair_cfg_[link].reorder_window;
          break;
        case ImpairmentVerdict::kDeliver:
          break;
      }
    }
  }
  packet.ttl = ttl;
  const NodeId to = *dest;
  const NodeId prev = hops[hops.size() - 2];
  auto iface_at_dest = topology_.interface_to(to, prev);
  // lint: fire-and-forget (in-flight packet delivery; the scheduler owns the event)
  scheduler_.schedule_at(
      at, [this, to, iface = iface_at_dest.value_or(0),
           p = std::move(packet)]() { deliver_packet(to, p, iface); });
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
