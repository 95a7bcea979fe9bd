// Protocol node base class.
//
// Every simulated element that receives packets — EXPRESS routers and
// hosts, PIM/CBT/DVMRP baseline routers, session relays — derives from
// Node and is attached to a Network, which invokes handle_packet() with
// the arrival interface. The arrival interface is semantically important:
// the EXPRESS fast path drops channel packets whose incoming interface
// does not match the FIB entry's RPF interface (paper §3.4).
#pragma once

#include <cstdint>

#include "ip/address.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"

namespace express::net {

class Network;

class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] ip::Address address() const { return Topology::address(id_); }

  /// Deliver a packet that arrived on `in_interface` of this node.
  virtual void handle_packet(const Packet& packet, std::uint32_t in_interface) = 0;

  /// Called after the network recomputes unicast routing (link up/down).
  /// Routers use this to re-join channels over new paths (paper §3.2).
  virtual void on_routing_change() {}

  /// The fabric this node is attached to (middleware layered on a host,
  /// like the session relay, needs the scheduler and topology).
  [[nodiscard]] Network& network() const { return *network_; }

  /// The obs scope this node registers and traces through: derived from
  /// (network, id) on each call, never stored (Network::node_scope).
  [[nodiscard]] obs::Scope scope() const;

 protected:
  Node(Network& network, NodeId id);

 private:
  Network* network_;
  NodeId id_;
};

}  // namespace express::net
