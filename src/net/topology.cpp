#include "net/topology.hpp"

#include <stdexcept>

namespace express::net {

NodeId Topology::add_node(NodeKind kind) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{kind, 0, {}});
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, sim::Duration delay,
                          std::uint32_t cost, double bandwidth_bps) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("add_link: no such node");
  }
  if (a == b) throw std::invalid_argument("add_link: self-loop");
  if (cost == 0) throw std::invalid_argument("add_link: zero cost");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(LinkInfo{a, b, delay, bandwidth_bps, cost, true});
  std::vector<Port>& at_a = nodes_[a].ports;
  std::vector<Port>& at_b = nodes_[b].ports;
  const auto iface_a = static_cast<std::uint32_t>(at_a.size());
  const auto iface_b = static_cast<std::uint32_t>(at_b.size());
  at_a.push_back(Port{id, b, iface_b});
  at_b.push_back(Port{id, a, iface_a});
  return id;
}

NodeId Topology::peer(LinkId link, NodeId from) const {
  const LinkInfo& l = links_.at(link);
  return l.a == from ? l.b : l.a;
}

std::optional<std::uint32_t> Topology::interface_on(NodeId node,
                                                    LinkId link) const {
  if (node >= nodes_.size()) return std::nullopt;
  const std::vector<Port>& ports = nodes_[node].ports;
  for (std::uint32_t i = 0; i < ports.size(); ++i) {
    if (ports[i].link == link) return i;
  }
  return std::nullopt;
}

Reach Topology::reach_through_hub(NodeId node, NodeId neighbor) const {
  const NodeInfo& far = nodes_.at(neighbor);
  if (far.kind != NodeKind::kHost || far.ports.size() != 1) return {};
  const Port& wire = far.ports.front();
  if (nodes_[wire.peer].kind != NodeKind::kLanHub || !links_[wire.link].up) {
    return {};
  }
  auto iface = interface_to(node, wire.peer);
  if (!iface || !links_[port(node, *iface).link].up) return {};
  return {iface, true};
}

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  std::vector<NodeId> out;
  for (const Port& p : nodes_.at(node).ports) {
    if (links_[p.link].up) out.push_back(p.peer);
  }
  return out;
}

}  // namespace express::net
