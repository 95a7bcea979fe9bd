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
  link_ifaces_.push_back(
      {static_cast<std::uint32_t>(nodes_[a].interfaces.size()),
       static_cast<std::uint32_t>(nodes_[b].interfaces.size())});
  nodes_[a].interfaces.push_back(id);
  nodes_[b].interfaces.push_back(id);
  return id;
}

NodeId Topology::peer(LinkId link, NodeId from) const {
  const LinkInfo& l = links_.at(link);
  return l.a == from ? l.b : l.a;
}

std::optional<std::uint32_t> Topology::interface_on(NodeId node,
                                                    LinkId link) const {
  if (link >= links_.size()) return std::nullopt;
  if (links_[link].a == node) return link_ifaces_[link][0];
  if (links_[link].b == node) return link_ifaces_[link][1];
  return std::nullopt;
}

std::optional<std::uint32_t> Topology::interface_to(NodeId node,
                                                    NodeId neighbor) const {
  const auto& ifaces = nodes_.at(node).interfaces;
  const auto rank = [&](std::uint32_t i) {  // up first, then cheaper
    return std::pair(!links_[ifaces[i]].up, links_[ifaces[i]].cost);
  };
  std::optional<std::uint32_t> best;
  for (std::uint32_t i = 0; i < ifaces.size(); ++i) {
    if (peer(ifaces[i], node) != neighbor) continue;
    if (!best || rank(i) < rank(*best)) best = i;
  }
  return best;
}

NodeId Topology::neighbor_via(NodeId node, std::uint32_t iface) const {
  return peer(nodes_.at(node).interfaces.at(iface), node);
}

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  std::vector<NodeId> out;
  for (LinkId l : nodes_.at(node).interfaces) {
    if (links_.at(l).up) out.push_back(peer(l, node));
  }
  return out;
}

}  // namespace express::net
