// Unicast routing: link-state shortest paths over the topology.
//
// ECMP's tree-building leg is deliberately thin: subscriptions are routed
// toward the source with reverse-path forwarding on whatever the unicast
// routing protocol already computed (paper §3: "the RPF routing component
// of ECMP relies on, and scales with, existing unicast topology
// information"). This class is that existing information: for each
// destination, the next hop of every node toward it, which is what a
// converged link-state IGP leaves in each router's forwarding table.
// Equal-cost paths break toward the smaller first hop.
//
// What is cached: one next-hop tree per destination, built on the first
// query toward that destination by a single Dijkstra run *from* it (links
// are undirected, so that gives every node's distance to it). RPF only
// ever routes toward channel sources, and unicast sends only toward their
// destinations, so a simulation builds few trees, and a host is a
// Dijkstra root only when something routes to it. Resolving a neighbour
// (an adjacent node, or a host behind an adjacent LAN hub) asks for no
// tree: Topology::reach answers it from the port records. `recompute()`
// drops every tree; the next query rebuilds the one it needs from the
// topology as it then stands. Path metrics (cost, hop count, delay) are
// not stored; they are summed along the next-hop walk, over the link
// that Topology::interface_to picks at each hop.
//
// The cache is filled from const queries, so one instance must not be
// queried from two threads at once.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace express::net {

class UnicastRouting {
 public:
  explicit UnicastRouting(const Topology& topo) : topo_(&topo) { recompute(); }

  /// Drop every cached tree; call after any link up/down change or added
  /// node (building a tree over nodes added since throws
  /// std::logic_error). Incremented `version()` lets protocol code detect
  /// staleness.
  void recompute();

  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Next hop from `from` toward `to`; nullopt when unreachable or equal.
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId from, NodeId to) const;

  /// Total path cost (0 for from == to), or nullopt when unreachable.
  [[nodiscard]] std::optional<std::uint32_t> cost(NodeId from, NodeId to) const;

  /// Hop count of the shortest path (by cost), or nullopt when unreachable.
  [[nodiscard]] std::optional<std::uint32_t> hop_count(NodeId from, NodeId to) const;

  /// Propagation delay summed along the path, or nullopt when unreachable.
  [[nodiscard]] std::optional<sim::Duration> path_delay(NodeId from, NodeId to) const;

  /// Full node sequence from `from` to `to` inclusive; empty when
  /// unreachable. For from == to returns {from}.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  /// Reverse-path-forwarding neighbor: the neighbor of `node` on the
  /// shortest path toward `source`. This is where a router sends joins,
  /// and the only interface from which it accepts channel data.
  [[nodiscard]] std::optional<NodeId> rpf_neighbor(NodeId node, NodeId source) const {
    return next_hop(node, source);
  }

  /// Interface index of the RPF neighbor on `node`.
  [[nodiscard]] std::optional<std::uint32_t> rpf_interface(NodeId node,
                                                           NodeId source) const;

 private:
  /// Call visit(hop, link) for each hop of the next-hop walk from `from`
  /// to `to`; false when `to` is unreachable.
  template <typename Visit>
  bool walk(NodeId from, NodeId to, Visit visit) const;

  /// The next-hop tree toward `dest`, built on first use.
  const std::vector<NodeId>& tree(NodeId dest) const;

  const Topology* topo_;
  std::uint64_t version_ = 0;
  std::size_t n_ = 0;  ///< node count at the last recompute()
  /// trees_[dest][v]: v's next hop toward dest, kInvalidNode when
  /// unreachable or v == dest; empty until a query toward dest.
  mutable std::vector<std::vector<NodeId>> trees_;
};

}  // namespace express::net
