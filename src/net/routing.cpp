#include "net/routing.hpp"

#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace express::net {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
}  // namespace

void UnicastRouting::recompute() {
  n_ = topo_->node_count();
  next_hop_.assign(n_ * n_, kInvalidNode);
  // Scratch reused across origins: only the first hops are kept.
  std::vector<std::uint32_t> dist;
  std::vector<bool> done;
  for (NodeId origin = 0; origin < n_; ++origin) dijkstra(origin, dist, done);
  ++version_;
}

void UnicastRouting::dijkstra(NodeId origin, std::vector<std::uint32_t>& dist,
                              std::vector<bool>& done) {
  NodeId* first_hop = next_hop_.data() + origin * n_;
  dist.assign(n_, kUnreachable);
  done.assign(n_, false);
  dist[origin] = 0;

  // (cost, tie-break node id) — deterministic shortest-path trees so that
  // repeated runs build identical multicast trees.
  using QItem = std::tuple<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  queue.emplace(0, origin);

  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (done[u]) continue;
    done[u] = true;
    for (LinkId lid : topo_->node(u).interfaces) {
      const LinkInfo& l = topo_->link(lid);
      if (!l.up) continue;
      const NodeId v = topo_->peer(lid, u);
      if (v == origin) continue;  // its entry stays kInvalidNode
      const std::uint32_t nd = d + l.cost;
      const NodeId via = (u == origin) ? v : first_hop[u];
      // Strictly-better cost wins; equal cost prefers the numerically
      // smaller first hop so ties break deterministically.
      if (nd < dist[v] || (nd == dist[v] && via < first_hop[v])) {
        dist[v] = nd;
        first_hop[v] = via;
        queue.emplace(nd, v);
      }
    }
  }
}

std::optional<NodeId> UnicastRouting::next_hop(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) throw std::out_of_range("next_hop: node id");
  const NodeId hop = next_hop_[from * n_ + to];
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
    visit(*nh, topo_->link(topo_->node(from).interfaces[*iface]));
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
