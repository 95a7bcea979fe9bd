#include "baseline/cbt.hpp"

#include <limits>
#include <memory>

#include "net/replicate.hpp"
#include "obs/obs.hpp"

namespace express::baseline {

CbtRouter::CbtRouter(net::Network& network, net::NodeId id, CbtConfig config)
    : GroupRouter(network, id, ip::Protocol::kCbt), config_(config) {
  stats_ = scope().bind<CbtStats>({
      {&CbtStats::joins_sent, "baseline.cbt.joins_sent"},
      {&CbtStats::prunes_sent, "baseline.cbt.prunes_sent"},
      {&CbtStats::data_copies_sent, "baseline.cbt.data_copies_sent"},
      {&CbtStats::encapsulated_to_core, "baseline.cbt.encapsulated_to_core"},
      {&CbtStats::decapsulated_at_core, "baseline.cbt.decapsulated_at_core"},
      {&CbtStats::drops, "baseline.cbt.drops"},
  });
}

void CbtRouter::handle_packet(const net::Packet& packet,
                              std::uint32_t in_iface) {
  if (packet.protocol == ip::Protocol::kCbt ||
      packet.protocol == ip::Protocol::kIgmp) {
    for (const Msg& msg : decode_all(packet.payload)) {
      on_control(msg, in_iface);
    }
    return;
  }
  if (packet.protocol == ip::Protocol::kIpInIp && packet.dst == address()) {
    // Off-tree sender's encapsulated packet reaching the core.
    if (!is_core() || !packet.inner) return;
    ++stats_->decapsulated_at_core;
    inject(*packet.inner, std::numeric_limits<std::uint32_t>::max());
    return;
  }
  if (packet.protocol == ip::Protocol::kUdp && packet.dst.is_multicast()) {
    on_data(packet, in_iface);
  }
}

void CbtRouter::join_toward_core(ip::Address group) {
  Tree& tree = trees_[group];
  if (tree.has_upstream || is_core()) return;
  auto core_node = network().node_of(config_.core);
  if (!core_node) return;
  auto up = network().routing().rpf_neighbor(id(), *core_node);
  if (!up || network().topology().node(*up).kind != net::NodeKind::kRouter) {
    return;
  }
  auto iface = network().topology().interface_to(id(), *up);
  if (!iface) return;
  tree.upstream_iface = *iface;
  tree.has_upstream = true;
  tree.ifaces.set(*iface);  // bidirectional: the upstream is a tree link
  Msg join;
  join.type = MsgType::kJoinStarG;
  join.group = group;
  send_control(*up, join);
  ++stats_->joins_sent;
}

void CbtRouter::on_control(const Msg& msg, std::uint32_t in_iface) {
  // CBT speaks only the IGMP/join/quit subset of the shared baseline
  // MsgType vocabulary; PIM/DVMRP frames are ignorable noise.
  // lint: partial-switch (CBT-relevant subset; rest intentionally ignored)
  switch (msg.type) {
    case MsgType::kMembershipReport:
    case MsgType::kJoinStarG:
      trees_[msg.group].ifaces.set(in_iface);
      join_toward_core(msg.group);
      return;
    case MsgType::kLeaveGroup:
    case MsgType::kPruneStarG: {
      auto it = trees_.find(msg.group);
      if (it == trees_.end()) return;
      Tree& tree = it->second;
      tree.ifaces.clear(in_iface);
      // If only the upstream link remains, the branch is dead: prune up.
      const bool only_upstream =
          tree.has_upstream && tree.ifaces.count() == 1 &&
          tree.ifaces.test(tree.upstream_iface);
      if (tree.ifaces.empty() || only_upstream) {
        if (tree.has_upstream) {
          const net::NodeId up =
              network().topology().neighbor_via(id(), tree.upstream_iface);
          Msg prune;
          prune.type = MsgType::kPruneStarG;
          prune.group = msg.group;
          send_control(up, prune);
          ++stats_->prunes_sent;
        }
        trees_.erase(it);
      }
      return;
    }
    default:
      return;
  }
}

void CbtRouter::inject(const net::Packet& packet, std::uint32_t except_iface) {
  auto it = trees_.find(packet.dst);
  if (it == trees_.end()) {
    ++stats_->drops;
    scope().emit(network().now(), obs::TraceType::kPacketDropped,
                 static_cast<std::uint64_t>(obs::DropReason::kNoRoute),
                 packet.wire_size());
    return;
  }
  net::ReplicateOptions opts;
  opts.exclude_iface = except_iface;
  opts.skip_down_links = true;
  stats_->data_copies_sent +=
      net::replicate(network(), id(), packet, it->second.ifaces, opts);
}

void CbtRouter::on_data(const net::Packet& packet, std::uint32_t in_iface) {
  auto it = trees_.find(packet.dst);
  const bool arrival_on_tree =
      it != trees_.end() && it->second.ifaces.test(in_iface);
  if (arrival_on_tree) {
    // Bidirectional forwarding: everywhere except where it came from.
    inject(packet, in_iface);
    return;
  }
  // Off-tree or non-member sender: the first-hop router tunnels the
  // packet to the core, which injects it into the tree.
  if (!iface_is_host(in_iface)) {
    ++stats_->drops;
    scope().emit(network().now(), obs::TraceType::kPacketDropped,
                 static_cast<std::uint64_t>(obs::DropReason::kRpfFail),
                 packet.wire_size());
    return;
  }
  if (is_core()) {
    inject(packet, in_iface);
    return;
  }
  net::Packet outer;
  outer.src = address();
  outer.dst = config_.core;
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::make_shared<net::Packet>(packet);
  ++stats_->encapsulated_to_core;
  network().send_unicast(id(), std::move(outer));
}

}  // namespace express::baseline
