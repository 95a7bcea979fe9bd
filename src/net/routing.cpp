#include "net/routing.hpp"

#include <queue>
#include <tuple>

namespace express::net {

void UnicastRouting::recompute() {
  const std::size_t n = topo_->node_count();
  tables_.assign(n, std::vector<Entry>(n));
  for (NodeId origin = 0; origin < n; ++origin) dijkstra(origin);
  ++version_;
}

void UnicastRouting::dijkstra(NodeId origin) {
  auto& table = tables_[origin];
  table[origin] = Entry{0, origin, 0, 0};

  // (cost, tie-break node id) — deterministic shortest-path trees so that
  // repeated runs build identical multicast trees.
  using QItem = std::tuple<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  queue.emplace(0, origin);

  std::vector<bool> done(topo_->node_count(), false);
  while (!queue.empty()) {
    auto [dist, u] = queue.top();
    queue.pop();
    if (done[u]) continue;
    done[u] = true;
    for (LinkId lid : topo_->node(u).interfaces) {
      const LinkInfo& l = topo_->link(lid);
      if (!l.up) continue;
      const NodeId v = topo_->peer(lid, u);
      const std::uint32_t nd = dist + l.cost;
      Entry& ev = table[v];
      const NodeId via = (u == origin) ? v : table[u].first_hop;
      // Strictly-better cost wins; equal cost prefers the numerically
      // smaller first hop so ties break deterministically.
      if (nd < ev.cost ||
          (nd == ev.cost && via < ev.first_hop)) {
        ev.cost = nd;
        ev.first_hop = via;
        ev.hops = table[u].hops + 1;
        ev.delay_ns = table[u].delay_ns + l.delay.count();
        queue.emplace(nd, v);
      }
    }
  }
}

std::optional<NodeId> UnicastRouting::next_hop(NodeId from, NodeId to) const {
  if (from == to) return std::nullopt;
  // Use the table rooted at `from` for correctness under asymmetric costs.
  const Entry& f = tables_.at(from).at(to);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.first_hop;
}

std::optional<std::uint32_t> UnicastRouting::cost(NodeId from, NodeId to) const {
  const Entry& f = tables_.at(from).at(to);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.cost;
}

std::optional<std::uint32_t> UnicastRouting::hop_count(NodeId from,
                                                       NodeId to) const {
  const Entry& f = tables_.at(from).at(to);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.hops;
}

std::optional<sim::Duration> UnicastRouting::path_delay(NodeId from,
                                                        NodeId to) const {
  const Entry& f = tables_.at(from).at(to);
  if (f.cost == kUnreachable) return std::nullopt;
  return sim::Duration{f.delay_ns};
}

std::vector<NodeId> UnicastRouting::path(NodeId from, NodeId to) const {
  std::vector<NodeId> out;
  if (from == to) return {from};
  if (!cost(from, to)) return out;
  out.push_back(from);
  NodeId cur = from;
  // Bounded by node count: each next_hop strictly reduces remaining cost.
  for (std::size_t guard = 0; guard <= topo_->node_count(); ++guard) {
    auto nh = next_hop(cur, to);
    if (!nh) return {};
    out.push_back(*nh);
    if (*nh == to) return out;
    cur = *nh;
  }
  return {};  // should be unreachable; defensive against table corruption
}

std::optional<std::uint32_t> UnicastRouting::rpf_interface(NodeId node,
                                                           NodeId source) const {
  auto nh = rpf_neighbor(node, source);
  if (!nh) return std::nullopt;
  return topo_->interface_to(node, *nh);
}

}  // namespace express::net
