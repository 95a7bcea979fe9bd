#include "baseline/dvmrp.hpp"

#include "net/replicate.hpp"
#include "obs/obs.hpp"

namespace express::baseline {

DvmrpRouter::DvmrpRouter(net::Network& network, net::NodeId id,
                         DvmrpConfig config)
    : GroupRouter(network, id, ip::Protocol::kIgmp), config_(config) {
  stats_ = scope().bind<DvmrpStats>({
      {&DvmrpStats::data_packets_forwarded,
       "baseline.dvmrp.data_packets_forwarded"},
      {&DvmrpStats::data_copies_sent, "baseline.dvmrp.data_copies_sent"},
      {&DvmrpStats::flood_copies, "baseline.dvmrp.flood_copies"},
      {&DvmrpStats::rpf_drops, "baseline.dvmrp.rpf_drops"},
      {&DvmrpStats::prunes_sent, "baseline.dvmrp.prunes_sent"},
      {&DvmrpStats::prunes_received, "baseline.dvmrp.prunes_received"},
      {&DvmrpStats::grafts_sent, "baseline.dvmrp.grafts_sent"},
      {&DvmrpStats::grafts_received, "baseline.dvmrp.grafts_received"},
  });
}

void DvmrpRouter::handle_packet(const net::Packet& packet,
                                std::uint32_t in_iface) {
  if (packet.protocol == ip::Protocol::kIgmp) {
    for (const Msg& msg : decode_all(packet.payload)) {
      on_control(msg, in_iface);
    }
    return;
  }
  if (packet.protocol == ip::Protocol::kUdp && packet.dst.is_multicast()) {
    forward_data(packet, in_iface);
  }
}

void DvmrpRouter::on_control(const Msg& msg, std::uint32_t in_iface) {
  // DVMRP speaks only the IGMP/prune/graft subset of the shared
  // baseline MsgType vocabulary; PIM/CBT frames are ignorable noise.
  // lint: partial-switch (DVMRP-relevant subset; rest intentionally ignored)
  switch (msg.type) {
    case MsgType::kMembershipReport: {
      members_[msg.group].set(in_iface);
      // Graft back any branches we pruned for this group (§ DVMRP).
      for (auto& [channel, state] : sg_) {
        if (channel.dest != msg.group || !state.prune_sent_upstream) continue;
        state.prune_sent_upstream = false;
        if (auto src = network().node_of(channel.source)) {
          if (auto up = network().routing().rpf_neighbor(id(), *src)) {
            Msg graft;
            graft.type = MsgType::kGraft;
            graft.group = msg.group;
            graft.source = channel.source;
            send_control(*up, graft);
            ++stats_->grafts_sent;
          }
        }
      }
      return;
    }
    case MsgType::kLeaveGroup: {
      auto it = members_.find(msg.group);
      if (it != members_.end()) {
        it->second.clear(in_iface);
        if (it->second.empty()) members_.erase(it);
      }
      return;
    }
    case MsgType::kPruneSG: {
      ++stats_->prunes_received;
      const ip::ChannelId key{msg.source, msg.group};
      sg_[key].pruned_until[in_iface] =
          network().now() + sim::milliseconds(msg.holdtime_ms);
      return;
    }
    case MsgType::kGraft: {
      ++stats_->grafts_received;
      const ip::ChannelId key{msg.source, msg.group};
      auto it = sg_.find(key);
      if (it == sg_.end()) return;
      it->second.pruned_until.erase(in_iface);
      if (it->second.prune_sent_upstream) {
        it->second.prune_sent_upstream = false;
        if (auto src = network().node_of(msg.source)) {
          if (auto up = network().routing().rpf_neighbor(id(), *src)) {
            Msg graft = msg;
            send_control(*up, graft);
            ++stats_->grafts_sent;
          }
        }
      }
      return;
    }
    default:
      return;  // not a DVMRP message
  }
}

void DvmrpRouter::forward_data(const net::Packet& packet,
                               std::uint32_t in_iface) {
  auto src_node = network().node_of(packet.src);
  if (!src_node) return;
  auto rpf = network().routing().rpf_interface(id(), *src_node);
  if (!rpf || *rpf != in_iface) {
    ++stats_->rpf_drops;
    scope().emit(network().now(), obs::TraceType::kPacketDropped,
                 static_cast<std::uint64_t>(obs::DropReason::kRpfFail),
                 packet.wire_size());
    return;
  }

  const ip::ChannelId key{packet.src, packet.dst};
  SgState& state = sg_[key];  // broadcast-and-prune state at *every* router
  const sim::Time now = network().now();

  // Expire stale prunes lazily: flooding resumes after prune_lifetime.
  std::erase_if(state.pruned_until,
                [&](const auto& kv) { return kv.second <= now; });

  oifs_.reset();
  const auto iface_count = network().topology().interface_count(id());
  for (std::uint32_t iface = 0; iface < iface_count; ++iface) {
    if (iface == in_iface) continue;
    const net::LinkId link = network().topology().port(id(), iface).link;
    if (!network().topology().link(link).up) continue;
    if (iface_is_host(iface)) {
      auto member = members_.find(packet.dst);
      if (member != members_.end() && member->second.test(iface)) {
        oifs_.set(iface);
      }
      continue;
    }
    if (state.pruned_until.contains(iface)) continue;
    oifs_.set(iface);
    ++stats_->flood_copies;
  }

  if (oifs_.empty()) {
    // Leaf with no interest: prune toward the source (once per lifetime).
    if (!state.prune_sent_upstream || state.prune_expiry <= now) {
      auto up = network().routing().rpf_neighbor(id(), *src_node);
      if (up && network().topology().node(*up).kind == net::NodeKind::kRouter) {
        Msg prune;
        prune.type = MsgType::kPruneSG;
        prune.group = packet.dst;
        prune.source = packet.src;
        prune.holdtime_ms = static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                config_.prune_lifetime)
                .count());
        send_control(*up, prune);
        ++stats_->prunes_sent;
        state.prune_sent_upstream = true;
        state.prune_expiry = now + config_.prune_lifetime;
      }
    }
    return;
  }

  ++stats_->data_packets_forwarded;
  // Link state was already checked while building `oifs_`.
  stats_->data_copies_sent += net::replicate(network(), id(), packet, oifs_);
}

}  // namespace express::baseline
