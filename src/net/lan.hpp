// Multi-access LAN segments.
//
// The paper's edge picture is a router port with *many* end hosts on a
// shared wire (§3.2's UDP mode "is intended for use in edge routers,
// with many neighboring end hosts"; §3.3's queries are multicast on the
// LAN). A LanHub models the wire at layer 2: every frame received on
// one port is repeated out all other ports, unmodified (no TTL
// decrement, no addressing). Attach hosts and one router to a hub and
// the router sees them all through a single interface.
//
// Constraints (asserted by construction, documented here): hubs are
// leaves of the router topology — no hub-to-hub links (no L2 loops),
// and one router per segment. Topology::reach relies on them: it
// resolves a host on a segment through the router's port to the hub,
// since the hub is then the only way to the host.
#pragma once

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/replicate.hpp"
#include "sim/time.hpp"

namespace express::net {

class LanHub : public Node {
 public:
  LanHub(Network& network, NodeId id) : Node(network, id) {}

  void handle_packet(const Packet& packet, std::uint32_t in_iface) override {
    ReplicateOptions opts;
    opts.exclude_iface = in_iface;
    opts.decrement_ttl = false;  // L2 repeat: no TTL change
    replicate_all(network(), id(), packet, opts);
  }
};

/// Build a LAN segment: a hub node attached to `router`, with
/// `host_count` hosts on the wire. Returns {hub, hosts...}. The caller
/// attaches LanHub / host node types after constructing the Network.
struct LanSegment {
  NodeId hub = kInvalidNode;
  std::vector<NodeId> hosts;
};

inline LanSegment add_lan_segment(Topology& topology, NodeId router,
                                  std::uint32_t host_count,
                                  sim::Duration delay = sim::microseconds(50),
                                  double bandwidth_bps = 100e6) {
  LanSegment segment;
  segment.hub = topology.add_node(NodeKind::kLanHub);
  topology.add_link(router, segment.hub, delay, 1, bandwidth_bps);
  for (std::uint32_t h = 0; h < host_count; ++h) {
    const NodeId host = topology.add_host();
    topology.add_link(segment.hub, host, delay, 1, bandwidth_bps);
    segment.hosts.push_back(host);
  }
  return segment;
}

}  // namespace express::net
