#include "net/routing.hpp"

#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace express::net {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
}  // namespace

void UnicastRouting::recompute() {
  n_ = topo_->node_count();
  trees_.assign(n_, {});
  ++version_;
}

const std::vector<NodeId>& UnicastRouting::tree(NodeId dest) const {
  std::vector<NodeId>& hop = trees_[dest];
  if (!hop.empty()) return hop;
  if (topo_->node_count() != n_) {
    throw std::logic_error("UnicastRouting: nodes added without recompute()");
  }
  // Links are undirected, so the distances from dest are the distances
  // to it.
  std::vector<std::uint32_t> dist(n_, kUnreachable);
  dist[dest] = 0;
  using QItem = std::pair<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  queue.emplace(0, dest);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // superseded entry
    for (const Port& p : topo_->node(u).ports) {
      const LinkInfo& l = topo_->link(p.link);
      const NodeId v = p.peer;
      if (l.up && d + l.cost < dist[v]) {
        dist[v] = d + l.cost;
        queue.emplace(dist[v], v);
      }
    }
  }
  // v's next hop is its smallest-id neighbor on some shortest path: an up
  // link to u with cost + dist[u] == dist[v]. Equal cost thus breaks
  // toward the smaller first hop, and since costs are positive the
  // remaining distance strictly falls at every hop of a walk.
  hop.assign(n_, kInvalidNode);
  for (NodeId v = 0; v < n_; ++v) {
    if (v == dest || dist[v] == kUnreachable) continue;
    for (const Port& p : topo_->node(v).ports) {
      const LinkInfo& l = topo_->link(p.link);
      const NodeId u = p.peer;
      if (l.up && dist[u] + l.cost == dist[v] && u < hop[v]) hop[v] = u;
    }
  }
  return hop;
}

std::optional<NodeId> UnicastRouting::next_hop(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) throw std::out_of_range("next_hop: node id");
  const NodeId hop = tree(to)[from];
  if (hop == kInvalidNode) return std::nullopt;
  return hop;
}

template <typename Visit>
bool UnicastRouting::walk(NodeId from, NodeId to, Visit visit) const {
  // Bounded by node count: each next hop strictly reduces remaining cost.
  for (std::size_t hops = 0; from != to; ++hops) {
    const auto nh = next_hop(from, to);
    if (!nh || hops == n_) return false;
    const auto iface = topo_->interface_to(from, *nh);
    visit(*nh, topo_->link(topo_->port(from, *iface).link));
    from = *nh;
  }
  return true;
}

std::optional<std::uint32_t> UnicastRouting::cost(NodeId from, NodeId to) const {
  std::uint32_t total = 0;
  if (!walk(from, to, [&](NodeId, const LinkInfo& l) { total += l.cost; })) {
    return std::nullopt;
  }
  return total;
}

std::optional<std::uint32_t> UnicastRouting::hop_count(NodeId from,
                                                       NodeId to) const {
  std::uint32_t hops = 0;
  if (!walk(from, to, [&](NodeId, const LinkInfo&) { ++hops; })) {
    return std::nullopt;
  }
  return hops;
}

std::optional<sim::Duration> UnicastRouting::path_delay(NodeId from,
                                                        NodeId to) const {
  sim::Duration total{0};
  if (!walk(from, to, [&](NodeId, const LinkInfo& l) { total += l.delay; })) {
    return std::nullopt;
  }
  return total;
}

std::vector<NodeId> UnicastRouting::path(NodeId from, NodeId to) const {
  std::vector<NodeId> out{from};
  if (!walk(from, to,
            [&](NodeId hop, const LinkInfo&) { out.push_back(hop); })) {
    return {};
  }
  return out;
}

std::optional<std::uint32_t> UnicastRouting::rpf_interface(NodeId node,
                                                           NodeId source) const {
  auto nh = rpf_neighbor(node, source);
  if (!nh) return std::nullopt;
  return topo_->interface_to(node, *nh);
}

}  // namespace express::net
