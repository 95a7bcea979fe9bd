// The shared packet-replication primitive.
//
// Every multicast data plane in this repo — the EXPRESS fast path, the
// PIM-SM/DVMRP/CBT baselines, and the L2 LAN hub — reduces to the same
// inner loop: copy one packet out a set of interfaces, with protocol-
// specific knobs for TTL handling, arrival-interface exclusion, and
// dead-link suppression. Before this header each protocol carried its
// own copy of that loop; now they all call replicate() and differ only
// in the ReplicateOptions they pass. The copies are cheap: a copy in
// flight is a 16-byte delivery record, and copies identical to the one
// before them in their delivery batch share its packet record (header,
// copy-on-write payload and all), so one tree level of a data packet
// costs one scheduler event and one packet record however many routers
// send it.
//
// Module seam: this layer knows nothing about channels, groups, FIBs,
// or membership — callers resolve "which interfaces" (that is routing
// policy); replicate() owns only "emit copies out these interfaces"
// (that is the wire).
#pragma once

#include <cstdint>
#include <optional>

#include "net/interface_set.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"

namespace express::net {

struct ReplicateOptions {
  /// Never send back out the arrival interface (RPF split-horizon).
  std::optional<std::uint32_t> exclude_iface;
  /// L3 forwarding decrements TTL and drops expired packets; an L2
  /// repeater (LanHub) copies frames unmodified.
  bool decrement_ttl = true;
  /// Skip interfaces whose link is administratively down. The EXPRESS
  /// fast path leaves this off (the Network drops and counts such
  /// packets itself); the baselines check before copying, as they did
  /// historically, so their copy counters exclude dead links.
  bool skip_down_links = false;
};

/// Copy `packet` from node `node` out every interface in `oifs`
/// (ascending order), applying `opts`. Returns the number of copies
/// actually transmitted.
///
/// TTL is applied once up front (every copy gets the same decremented
/// value the per-copy loop used to compute), and each copy goes through
/// Network::send_on_interface like any other. Copies that arrive at the
/// same instant, from this node or from every other node of a tree
/// level, share one delivery event and one packet record (see the
/// network.hpp header).
inline std::size_t replicate(Network& network, NodeId node,
                             const Packet& packet, const InterfaceSet& oifs,
                             const ReplicateOptions& opts = {}) {
  Packet master = packet;
  if (opts.decrement_ttl) {
    if (master.ttl == 0) return 0;  // expired: zero copies, as before
    --master.ttl;
  }
  std::size_t copies = 0;
  oifs.for_each([&](std::uint32_t iface) {
    if (opts.exclude_iface && iface == *opts.exclude_iface) return;
    if (opts.skip_down_links) {
      const LinkId link = network.topology().port(node, iface).link;
      if (!network.topology().link(link).up) return;
    }
    if (network.send_on_interface(node, iface, master)) ++copies;
  });
  return copies;
}

/// Replicate out *all* of `node`'s interfaces (subject to `opts`) — the
/// L2 repeater shape, avoiding an InterfaceSet allocation per frame.
inline std::size_t replicate_all(Network& network, NodeId node,
                                 const Packet& packet,
                                 const ReplicateOptions& opts = {}) {
  Packet master = packet;
  if (opts.decrement_ttl) {
    if (master.ttl == 0) return 0;
    --master.ttl;
  }
  std::size_t copies = 0;
  const auto ports = network.topology().interface_count(node);
  for (std::uint32_t iface = 0; iface < ports; ++iface) {
    if (opts.exclude_iface && iface == *opts.exclude_iface) continue;
    if (opts.skip_down_links) {
      const LinkId link = network.topology().port(node, iface).link;
      if (!network.topology().link(link).up) continue;
    }
    if (network.send_on_interface(node, iface, master)) ++copies;
  }
  return copies;
}

}  // namespace express::net
