#include "net/node.hpp"

#include "net/network.hpp"

namespace express::net {

Node::Node(Network& network, NodeId id) : network_(&network), id_(id) {}

}  // namespace express::net
