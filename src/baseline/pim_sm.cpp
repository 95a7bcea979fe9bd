#include "baseline/pim_sm.hpp"

#include <limits>
#include <memory>

#include "net/replicate.hpp"
#include "obs/obs.hpp"

namespace express::baseline {

PimSmRouter::PimSmRouter(net::Network& network, net::NodeId id,
                         PimConfig config)
    : GroupRouter(network, id, ip::Protocol::kPim), config_(config) {
  stats_ = scope().bind<PimStats>({
      {&PimStats::joins_star_g, "baseline.pim.joins_star_g"},
      {&PimStats::joins_sg, "baseline.pim.joins_sg"},
      {&PimStats::prunes, "baseline.pim.prunes"},
      {&PimStats::registers_sent, "baseline.pim.registers_sent"},
      {&PimStats::registers_decapsulated,
       "baseline.pim.registers_decapsulated"},
      {&PimStats::register_stops, "baseline.pim.register_stops"},
      {&PimStats::data_copies_sent, "baseline.pim.data_copies_sent"},
      {&PimStats::drops, "baseline.pim.drops"},
  });
}

std::optional<net::NodeId> PimSmRouter::toward(ip::Address addr) const {
  auto node = network().node_of(addr);
  if (!node) return std::nullopt;
  return network().routing().next_hop(id(), *node);
}

std::optional<std::uint32_t> PimSmRouter::rpf_iface_toward(
    ip::Address addr) const {
  auto node = network().node_of(addr);
  if (!node) return std::nullopt;
  return network().routing().rpf_interface(id(), *node);
}

void PimSmRouter::handle_packet(const net::Packet& packet,
                                std::uint32_t in_iface) {
  if (packet.protocol == ip::Protocol::kPim ||
      packet.protocol == ip::Protocol::kIgmp) {
    for (const Msg& msg : decode_all(packet.payload)) {
      on_control(msg, in_iface);
    }
    return;
  }
  if (packet.protocol == ip::Protocol::kIpInIp && packet.dst == address()) {
    on_register(packet);
    return;
  }
  if (packet.protocol == ip::Protocol::kUdp && packet.dst.is_multicast()) {
    on_data(packet, in_iface);
  }
}

void PimSmRouter::join_shared_tree(ip::Address group) {
  StarG& state = star_g_[group];
  if (state.joined_upstream || is_rp()) return;
  auto up = toward(config_.rp);
  if (!up || network().topology().node(*up).kind != net::NodeKind::kRouter) {
    return;
  }
  Msg join;
  join.type = MsgType::kJoinStarG;
  join.group = group;
  send_control(*up, join);
  ++stats_->joins_star_g;
  state.joined_upstream = true;
}

void PimSmRouter::join_source_tree(const ip::ChannelId& sg) {
  Sg& state = sg_[sg];
  if (state.joined_upstream) return;
  auto src_node = network().node_of(sg.source);
  if (!src_node) return;
  auto up = network().routing().rpf_neighbor(id(), *src_node);
  if (!up || network().topology().node(*up).kind != net::NodeKind::kRouter) {
    state.joined_upstream = true;  // source is directly attached
    return;
  }
  Msg join;
  join.type = MsgType::kJoinSG;
  join.group = sg.dest;
  join.source = sg.source;
  send_control(*up, join);
  ++stats_->joins_sg;
  state.joined_upstream = true;
}

void PimSmRouter::on_control(const Msg& msg, std::uint32_t in_iface) {
  switch (msg.type) {
    case MsgType::kMembershipReport:
      members_[msg.group].set(in_iface);
      star_g_[msg.group].oifs.set(in_iface);
      join_shared_tree(msg.group);
      return;
    case MsgType::kLeaveGroup:
      if (auto member = members_.find(msg.group); member != members_.end()) {
        member->second.clear(in_iface);
        if (member->second.empty()) members_.erase(member);
      }
      drop_shared_branch(msg.group, in_iface);
      return;
    case MsgType::kJoinStarG:
      star_g_[msg.group].oifs.set(in_iface);
      join_shared_tree(msg.group);
      return;
    case MsgType::kPruneStarG:
      drop_shared_branch(msg.group, in_iface);
      return;
    case MsgType::kJoinSG:
      sg_[ip::ChannelId{msg.source, msg.group}].oifs.set(in_iface);
      join_source_tree(ip::ChannelId{msg.source, msg.group});
      return;
    case MsgType::kPruneSG:
      // RPT-prune: stop sending this source's packets down that branch
      // of the shared tree (the receiver switched to the SPT).
      rpt_pruned_[ip::ChannelId{msg.source, msg.group}].set(in_iface);
      return;
    case MsgType::kRegisterStop:
      register_stopped_.insert(ip::ChannelId{msg.source, msg.group});
      ++stats_->register_stops;
      return;
    case MsgType::kGraft:
      // DVMRP-only message; PIM-SM re-joins instead of grafting.
      return;
  }
}

void PimSmRouter::drop_shared_branch(ip::Address group,
                                     std::uint32_t iface) {
  auto it = star_g_.find(group);
  if (it == star_g_.end()) return;
  it->second.oifs.clear(iface);
  if (!it->second.oifs.empty()) return;
  // Only a non-RP router ever joins upstream (join_shared_tree).
  if (it->second.joined_upstream) {
    if (auto up = toward(config_.rp)) {
      Msg prune;
      prune.type = MsgType::kPruneStarG;
      prune.group = group;
      send_control(*up, prune);
      ++stats_->prunes;
    }
  }
  star_g_.erase(it);
}

void PimSmRouter::deliver(const net::Packet& packet,
                          const net::InterfaceSet& oifs,
                          std::uint32_t in_iface) {
  net::ReplicateOptions opts;
  opts.exclude_iface = in_iface;
  opts.skip_down_links = true;
  stats_->data_copies_sent +=
      net::replicate(network(), id(), packet, oifs, opts);
}

void PimSmRouter::maybe_spt_switchover(const net::Packet& packet) {
  if (!config_.spt_switchover) return;
  const ip::ChannelId sg{packet.src, packet.dst};
  if (switched_.contains(sg)) return;
  auto member = members_.find(packet.dst);
  if (member == members_.end() || member->second.empty()) return;
  switched_.insert(sg);
  // Join the source tree with our member interfaces as the initial oifs.
  sg_[sg].oifs |= member->second;
  join_source_tree(sg);
  // RPT-prune this source off the shared tree.
  if (auto up = toward(config_.rp)) {
    if (network().topology().node(*up).kind == net::NodeKind::kRouter) {
      Msg prune;
      prune.type = MsgType::kPruneSG;
      prune.group = packet.dst;
      prune.source = packet.src;
      send_control(*up, prune);
      ++stats_->prunes;
    }
  }
}

const net::InterfaceSet& PimSmRouter::inherited_oifs(const ip::ChannelId& sg,
                                                     const Sg* source_tree) {
  // RPT-prunes remove only the shared-tree contribution: an interface
  // that explicitly (S,G)-joined keeps receiving.
  oifs_.reset();
  if (auto star = star_g_.find(sg.dest); star != star_g_.end()) {
    oifs_ |= star->second.oifs;
  }
  if (auto pruned = rpt_pruned_.find(sg); pruned != rpt_pruned_.end()) {
    oifs_ -= pruned->second;
  }
  if (source_tree != nullptr) oifs_ |= source_tree->oifs;
  return oifs_;
}

void PimSmRouter::on_data(const net::Packet& packet, std::uint32_t in_iface) {
  const ip::ChannelId sg{packet.src, packet.dst};

  // Directly attached source: first-hop duties.
  auto src_node = network().node_of(packet.src);
  const bool source_attached =
      src_node && iface_is_host(in_iface) &&
      network().topology().neighbor_via(id(), in_iface) == *src_node;

  if (source_attached) {
    // Install (S,G) register state so copies of this flow returning
    // from the RP fail the more-specific iif check and are dropped.
    Sg& state = sg_[sg];
    state.joined_upstream = true;  // the source is adjacent
    deliver(packet, inherited_oifs(sg, &state), in_iface);
    if (!is_rp() && !register_stopped_.contains(sg)) {
      // Register triangle: encapsulate to the RP.
      net::Packet outer;
      outer.src = address();
      outer.dst = config_.rp;
      outer.protocol = ip::Protocol::kIpInIp;
      outer.inner = std::make_shared<net::Packet>(packet);
      ++stats_->registers_sent;
      network().send_unicast(id(), std::move(outer));
    }
    return;
  }

  // Longest-match: when (S,G) state exists it governs exclusively; a
  // packet failing its iif check is dropped, never re-routed via (*,G).
  if (auto it = sg_.find(sg); it != sg_.end()) {
    auto rpf = rpf_iface_toward(packet.src);
    if (!rpf || *rpf != in_iface) {
      ++stats_->drops;
      scope().emit(network().now(), obs::TraceType::kPacketDropped,
                   static_cast<std::uint64_t>(obs::DropReason::kRpfFail),
                   packet.wire_size());
      return;
    }
    deliver(packet, inherited_oifs(sg, &it->second), in_iface);
    it->second.native_seen = true;
    if (is_rp() && it->second.registering_router != ip::Address{}) {
      // Native (S,G) reached the RP: tell the first hop to stop
      // registering.
      Msg stop;
      stop.type = MsgType::kRegisterStop;
      stop.group = packet.dst;
      stop.source = packet.src;
      net::Packet out;
      out.src = address();
      out.dst = it->second.registering_router;
      out.protocol = ip::Protocol::kPim;
      out.payload = encode(stop);
      network().send_unicast(id(), std::move(out));
      it->second.registering_router = ip::Address{};
    }
    maybe_spt_switchover(packet);
    return;
  }

  // Shared tree (no (S,G) entry): iif must face the RP.
  if (star_g_.contains(packet.dst)) {
    auto rpf = rpf_iface_toward(config_.rp);
    if ((rpf && *rpf == in_iface) || is_rp()) {
      deliver(packet, inherited_oifs(sg, nullptr), in_iface);
      maybe_spt_switchover(packet);
      return;
    }
  }
  ++stats_->drops;
  scope().emit(network().now(), obs::TraceType::kPacketDropped,
               static_cast<std::uint64_t>(obs::DropReason::kNoRoute),
               packet.wire_size());
}

void PimSmRouter::on_register(const net::Packet& packet) {
  if (!is_rp() || !packet.inner) return;
  ++stats_->registers_decapsulated;
  const net::Packet& inner = *packet.inner;
  const ip::ChannelId sg{inner.src, inner.dst};

  // SPT bit: once native (S,G) data flows, register copies are
  // duplicates — drop them (the RegisterStop is already on its way).
  if (auto existing = sg_.find(sg);
      existing != sg_.end() && existing->second.native_seen) {
    existing->second.registering_router = packet.src;
    return;
  }

  // Forward the decapsulated packet down the shared tree only: the
  // (S,G) branches being built get native data, not register copies.
  if (star_g_.contains(inner.dst)) {
    // No meaningful in_iface for a decapsulated packet.
    deliver(inner, inherited_oifs(sg, nullptr),
            std::numeric_limits<std::uint32_t>::max());
  }

  // Build the native path: join toward the source, remember who to stop.
  Sg& state = sg_[sg];
  state.registering_router = packet.src;
  join_source_tree(sg);
}

}  // namespace express::baseline
