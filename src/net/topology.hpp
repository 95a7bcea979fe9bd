// Network topology: nodes, point-to-point links, and interfaces.
//
// The topology is the static (but failure-aware) graph underneath the
// simulation. Nodes are routers or hosts; links are bidirectional with a
// propagation delay, a bandwidth, and a routing cost. Each endpoint of a
// link occupies one interface slot on its node — interface indices are
// what EXPRESS FIB entries and per-interface subscriber counts key on.
// Each slot is one Port record naming the link, the node on its far
// side and the interface the link occupies there, so a link crossing or
// a neighbour lookup reads one entry instead of chasing the link table.
// A node's unicast address follows from its id (kNodeAddressBase + id),
// so it is not stored, and resolving an address back to its node is
// arithmetic, not a lookup. A node record holds only its kind, its
// domain and its ports (32 bytes). reach() is the control planes' one
// answer to "which interface leads to this neighbour, and does a write
// through it arrive now?".
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "ip/address.hpp"
#include "sim/time.hpp"

namespace express::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kInvalidLink = std::numeric_limits<LinkId>::max();

/// Node `id` has the unicast address kNodeAddressBase + id: node 0 is
/// 10.0.0.1.
inline constexpr std::uint32_t kNodeAddressBase = 0x0A000001U;

enum class NodeKind : std::uint8_t {
  kRouter,
  kHost,
  kLanHub,  ///< layer-2 repeater for multi-access segments (net/lan.hpp)
};

/// One interface of a node: the link it attaches to and that link's
/// far end. add_link writes both ends' records; they never change.
struct Port {
  LinkId link = kInvalidLink;
  NodeId peer = kInvalidNode;       ///< the node on the far side
  std::uint32_t peer_iface = 0;     ///< the link's interface index at peer
};

struct NodeInfo {
  NodeKind kind = NodeKind::kRouter;
  std::uint16_t domain = 0;     ///< administrative domain (settlements)
  std::vector<Port> ports;      ///< interface i is ports[i]
};
// Every node pays this; the audit and routing walk nodes by this stride.
static_assert(sizeof(NodeInfo) == 32, "NodeInfo is kind + domain + ports");

struct LinkInfo {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  sim::Duration delay = sim::milliseconds(1);
  double bandwidth_bps = 100e6;  ///< used for serialization delay + accounting
  std::uint32_t cost = 1;        ///< unicast routing metric
  bool up = true;
};

/// How a node reaches a neighbour (Topology::reach).
struct Reach {
  /// The interface toward the neighbour; nullopt when none leads there.
  std::optional<std::uint32_t> iface;
  /// Every link on the way is up: a write through iface arrives now.
  bool up = false;
};

/// Mutable graph of nodes and links.
class Topology {
 public:
  /// Add a node; returns its id. Its address is address(id).
  NodeId add_node(NodeKind kind);

  NodeId add_router() { return add_node(NodeKind::kRouter); }
  NodeId add_host() { return add_node(NodeKind::kHost); }

  /// Connect two nodes; returns the link id. Each call consumes one new
  /// interface slot on both endpoints. Throws std::invalid_argument, and
  /// changes nothing, for an unknown endpoint, a == b or cost == 0:
  /// routing relies on the remaining distance strictly falling per hop.
  LinkId add_link(NodeId a, NodeId b,
                  sim::Duration delay = sim::milliseconds(1),
                  std::uint32_t cost = 1, double bandwidth_bps = 100e6);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const NodeInfo& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const LinkInfo& link(LinkId id) const { return links_.at(id); }

  /// Mark a link up/down (failure injection). Routing must be recomputed
  /// by the owner afterwards.
  void set_link_up(LinkId id, bool up) { links_.at(id).up = up; }

  /// Assign a node to an administrative domain (default 0). Used by
  /// domain-scoped network-layer counts (transit settlements).
  void set_domain(NodeId id, std::uint16_t domain) {
    nodes_.at(id).domain = domain;
  }

  /// The node on the far side of `link` from `from`.
  [[nodiscard]] NodeId peer(LinkId link, NodeId from) const;

  /// The interface index on `node` that attaches to `link`, or nullopt.
  /// Scans the node's port records.
  [[nodiscard]] std::optional<std::uint32_t> interface_on(NodeId node,
                                                          LinkId link) const;

  /// The interface index on `node` leading directly to `neighbor`. Among
  /// parallel links it prefers an up link, then the lower cost, then the
  /// lower index: the link unicast routing relaxes toward that neighbor.
  /// Scans the node's port records and reads the link table only for
  /// ports whose peer is `neighbor`.
  [[nodiscard]] std::optional<std::uint32_t> interface_to(
      NodeId node, NodeId neighbor) const {
    const std::vector<Port>& ports = nodes_.at(node).ports;
    const auto rank = [&](std::uint32_t i) {  // up first, then cheaper
      const LinkInfo& l = links_[ports[i].link];
      return std::pair(!l.up, l.cost);
    };
    std::optional<std::uint32_t> best;
    for (std::uint32_t i = 0; i < ports.size(); ++i) {
      if (ports[i].peer != neighbor) continue;
      if (!best || rank(i) < rank(*best)) best = i;
    }
    return best;
  }

  /// Interface `iface` of `node`; throws std::out_of_range for either.
  [[nodiscard]] const Port& port(NodeId node, std::uint32_t iface) const {
    return nodes_.at(node).ports.at(iface);
  }

  /// The neighbor reached through interface `iface` of `node`.
  [[nodiscard]] NodeId neighbor_via(NodeId node, std::uint32_t iface) const {
    return port(node, iface).peer;
  }

  /// How `node` reaches `neighbor`. An adjacent neighbor resolves
  /// through interface_to, also over a down link (up is then false). A
  /// host whose only link goes to a LAN hub adjacent to `node` resolves
  /// through `node`'s port to that hub, but only while both the
  /// node-hub and hub-host links are up. Anything else is unreachable.
  /// Relies on net/lan.hpp's constraints (a hub is a leaf with one
  /// router), which make the hub the only way to its hosts.
  [[nodiscard]] Reach reach(NodeId node, NodeId neighbor) const {
    // Inline, as interface_to is: the audit and the FIB refresh ask
    // once per tree edge.
    if (const auto iface = interface_to(node, neighbor)) {
      return {iface, links_[nodes_[node].ports[*iface].link].up};
    }
    return reach_through_hub(node, neighbor);
  }

  /// All live neighbors of `node`.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;

  /// The unicast address of node `id`: node 0 is 10.0.0.1.
  [[nodiscard]] static constexpr ip::Address address(NodeId id) {
    return ip::Address{kNodeAddressBase + id};
  }

  /// The node whose unicast address is `addr`, or nullopt: the inverse
  /// of address(), O(1).
  [[nodiscard]] std::optional<NodeId> find_by_address(ip::Address addr) const {
    const std::uint32_t id = addr.value() - kNodeAddressBase;
    if (id >= nodes_.size()) return std::nullopt;
    return static_cast<NodeId>(id);
  }

  [[nodiscard]] std::uint32_t interface_count(NodeId node) const {
    return static_cast<std::uint32_t>(nodes_.at(node).ports.size());
  }

 private:
  /// reach() for a neighbor no port leads to directly.
  [[nodiscard]] Reach reach_through_hub(NodeId node, NodeId neighbor) const;

  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
};

}  // namespace express::net
