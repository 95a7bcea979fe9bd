// What the group-model routers (PIM-SM, CBT, DVMRP) share besides the
// wire format: a node that sends baseline control messages to adjacent
// routers under its protocol's IP number, and tells host-facing
// interfaces from router links. Each protocol computes its own outgoing
// net::InterfaceSet and replicates through net::replicate, as EXPRESS
// does; only the control plumbing lives here.
#pragma once

#include <cstdint>
#include <utility>

#include "baseline/wire.hpp"
#include "ip/header.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace express::baseline {

class GroupRouter : public net::Node {
 protected:
  GroupRouter(net::Network& network, net::NodeId id, ip::Protocol control)
      : net::Node(network, id), control_(control) {}

  /// Send `msg` to the adjacent `neighbor`.
  void send_control(net::NodeId neighbor, const Msg& msg) {
    net::Packet packet;
    packet.src = address();
    packet.dst = network().topology().address(neighbor);
    packet.protocol = control_;
    packet.payload = encode(msg);
    network().send_to_neighbor(id(), neighbor, packet);
  }

  /// True when interface `iface` leads to a host.
  [[nodiscard]] bool iface_is_host(std::uint32_t iface) const {
    const net::NodeId peer = network().topology().neighbor_via(id(), iface);
    return network().topology().node(peer).kind == net::NodeKind::kHost;
  }

 private:
  ip::Protocol control_;
};

}  // namespace express::baseline
