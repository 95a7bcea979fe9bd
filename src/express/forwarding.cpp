#include "express/forwarding.hpp"

namespace express {

bool ForwardingPlane::forward(const net::Packet& packet,
                              std::uint32_t in_iface) {
  const ip::ChannelId channel{packet.src, packet.dst};
  const net::InterfaceSet* oifs = fib_.lookup(channel, in_iface);
  if (oifs == nullptr) {
    // Counted by the FIB; classify the drop for the trace.
    scope().emit(network_->now(), obs::TraceType::kPacketDropped,
                 static_cast<std::uint64_t>(
                     fib_.find(channel) == nullptr
                         ? obs::DropReason::kNoFibEntry
                         : obs::DropReason::kRpfFail),
                 channel.packed());
    return false;
  }
  ++stats_->data_packets_forwarded;
  net::ReplicateOptions opts;
  opts.exclude_iface = in_iface;
  stats_->data_copies_sent +=
      net::replicate(*network_, node_, packet, *oifs, opts);
  return true;
}

bool ForwardingPlane::relay_subcast(const net::Packet& packet) {
  if (!packet.inner) return false;
  const ip::ChannelId channel{packet.inner->src, packet.inner->dst};
  const FibEntry* entry = fib_.find(channel);
  if (entry == nullptr) return false;  // not an on-channel router
  ++stats_->subcasts_relayed;
  net::ReplicateOptions opts;
  opts.decrement_ttl = false;  // the inner packet starts fresh here
  stats_->data_copies_sent +=
      net::replicate(*network_, node_, *packet.inner, entry->oifs, opts);
  return true;
}

}  // namespace express
