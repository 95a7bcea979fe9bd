#include "net/topology.hpp"

#include <stdexcept>
#include <utility>

namespace express::net {

NodeId Topology::add_node(NodeKind kind, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  NodeInfo info;
  info.kind = kind;
  info.name = name.empty() ? ("n" + std::to_string(id)) : std::move(name);
  info.address = ip::Address{kNodeAddressBase + id};
  nodes_.push_back(std::move(info));
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

std::optional<std::uint32_t> Topology::interface_to(NodeId node,
                                                    NodeId neighbor) const {
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

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  std::vector<NodeId> out;
  for (const Port& p : nodes_.at(node).ports) {
    if (links_[p.link].up) out.push_back(p.peer);
  }
  return out;
}

}  // namespace express::net
