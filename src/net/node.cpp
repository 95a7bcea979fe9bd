#include "net/node.hpp"

#include "net/network.hpp"

namespace express::net {

Node::Node(Network& network, NodeId id) : network_(&network), id_(id) {}

obs::Scope Node::scope() const { return network_->node_scope(id_); }

}  // namespace express::net
