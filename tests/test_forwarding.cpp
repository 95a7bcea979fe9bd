// Unit tests for the EXPRESS data plane (express/forwarding): the
// EXPRESS fast path (§3.4), subcast relay (§2.1), and the raw
// replication primitive (net::replicate) the baseline protocols call.
#include <gtest/gtest.h>

#include <vector>

#include "express/forwarding.hpp"
#include "net/network.hpp"
#include "net/replicate.hpp"

namespace express {
namespace {

/// Records every delivered packet with its TTL.
class Recorder : public net::Node {
 public:
  Recorder(net::Network& network, net::NodeId id) : net::Node(network, id) {}
  void handle_packet(const net::Packet& packet, std::uint32_t) override {
    sequences.push_back(packet.sequence);
    ttls.push_back(packet.ttl);
  }
  std::vector<std::uint64_t> sequences;
  std::vector<std::uint8_t> ttls;
};

/// One center router with three recorder neighbors on ifaces 0, 1, 2.
struct Star {
  Star() {
    net::Topology topo;
    center = topo.add_router();
    for (int i = 0; i < 3; ++i) {
      const net::NodeId n = topo.add_router();
      links.push_back(topo.add_link(center, n, sim::milliseconds(1)));
      neighbor_ids.push_back(n);
    }
    network = std::make_unique<net::Network>(std::move(topo));
    for (net::NodeId n : neighbor_ids) {
      neighbors.push_back(&network->attach<Recorder>(n));
    }
    plane = std::make_unique<ForwardingPlane>(*network, center);
  }

  net::NodeId center = net::kInvalidNode;
  std::vector<net::NodeId> neighbor_ids;
  std::vector<net::LinkId> links;
  std::unique_ptr<net::Network> network;
  std::vector<Recorder*> neighbors;
  std::unique_ptr<ForwardingPlane> plane;
};

const ip::ChannelId kChannel{ip::Address(10, 0, 0, 1),
                             ip::Address::single_source(42)};

net::Packet data_packet(std::uint64_t seq, std::uint8_t ttl = 64) {
  net::Packet p;
  p.src = kChannel.source;
  p.dst = kChannel.dest;
  p.protocol = ip::Protocol::kUdp;
  p.data_bytes = 100;
  p.sequence = seq;
  p.ttl = ttl;
  return p;
}

TEST(ForwardingPlane, ForwardReplicatesToOifsMinusArrival) {
  Star star;
  FibEntry& entry = star.plane->fib().upsert(kChannel);
  entry.iif = 0;
  entry.oifs.set(0);
  entry.oifs.set(1);
  entry.oifs.set(2);

  EXPECT_TRUE(star.plane->forward(data_packet(7), /*in_iface=*/0));
  star.network->run();

  // The arrival interface is excluded; the other two each get a copy
  // with the TTL decremented.
  EXPECT_TRUE(star.neighbors[0]->sequences.empty());
  ASSERT_EQ(star.neighbors[1]->sequences.size(), 1u);
  ASSERT_EQ(star.neighbors[2]->sequences.size(), 1u);
  EXPECT_EQ(star.neighbors[1]->ttls[0], 63u);
  EXPECT_EQ(star.plane->stats().data_packets_forwarded, 1u);
  EXPECT_EQ(star.plane->stats().data_copies_sent, 2u);
}

TEST(ForwardingPlane, RpfFailureDropsWithoutCopies) {
  Star star;
  FibEntry& entry = star.plane->fib().upsert(kChannel);
  entry.iif = 0;
  entry.oifs.set(1);

  EXPECT_FALSE(star.plane->forward(data_packet(1), /*in_iface=*/2));
  star.network->run();

  EXPECT_EQ(star.plane->fib().stats().rpf_drops, 1u);
  EXPECT_EQ(star.plane->stats().data_packets_forwarded, 0u);
  EXPECT_EQ(star.plane->stats().data_copies_sent, 0u);
  for (const Recorder* r : star.neighbors) {
    EXPECT_TRUE(r->sequences.empty());
  }
}

TEST(ForwardingPlane, NoEntryIsCountedAndDropped) {
  Star star;
  EXPECT_FALSE(star.plane->forward(data_packet(1), 0));
  EXPECT_EQ(star.plane->fib().stats().no_entry_drops, 1u);
}

TEST(ForwardingPlane, ExpiredTtlSendsNoCopies) {
  Star star;
  FibEntry& entry = star.plane->fib().upsert(kChannel);
  entry.iif = 0;
  entry.oifs.set(1);
  entry.oifs.set(2);

  // The lookup hits, but every copy dies in the TTL check.
  EXPECT_TRUE(star.plane->forward(data_packet(1, /*ttl=*/0), 0));
  star.network->run();
  EXPECT_EQ(star.plane->stats().data_copies_sent, 0u);
  EXPECT_TRUE(star.neighbors[1]->sequences.empty());
}

TEST(ForwardingPlane, SubcastRelaysInnerWithoutTtlDecrement) {
  Star star;
  FibEntry& entry = star.plane->fib().upsert(kChannel);
  entry.iif = 0;
  entry.oifs.set(1);
  entry.oifs.set(2);

  net::Packet outer;
  outer.src = kChannel.source;
  outer.dst = ip::Address(10, 0, 0, 99);
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::make_shared<net::Packet>(data_packet(5, 17));

  EXPECT_TRUE(star.plane->relay_subcast(outer));
  star.network->run();

  // §2.1: the decapsulated packet starts fresh at the relay — full
  // outgoing set, no arrival exclusion, TTL untouched.
  ASSERT_EQ(star.neighbors[1]->sequences.size(), 1u);
  ASSERT_EQ(star.neighbors[2]->sequences.size(), 1u);
  EXPECT_EQ(star.neighbors[1]->ttls[0], 17u);
  EXPECT_EQ(star.plane->stats().subcasts_relayed, 1u);
}

TEST(ForwardingPlane, SubcastOffChannelRouterRefuses) {
  Star star;
  net::Packet outer;
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::make_shared<net::Packet>(data_packet(5));
  EXPECT_FALSE(star.plane->relay_subcast(outer));
  EXPECT_EQ(star.plane->stats().subcasts_relayed, 0u);
}

TEST(Replicate, HonorsExclusionAndDownLinks) {
  // The baselines' call: their own outgoing set, arrival excluded, dead
  // links skipped before copying.
  Star star;
  net::InterfaceSet oifs;
  oifs.set(0);
  oifs.set(1);
  oifs.set(2);

  star.network->set_link_up(star.links[1], false);
  net::ReplicateOptions opts;
  opts.exclude_iface = 0;
  opts.skip_down_links = true;
  EXPECT_EQ(net::replicate(*star.network, star.center, data_packet(9), oifs,
                           opts),
            1u);
  star.network->run();

  // iface 0 excluded, iface 1 down: only iface 2 receives.
  EXPECT_TRUE(star.neighbors[0]->sequences.empty());
  EXPECT_TRUE(star.neighbors[1]->sequences.empty());
  ASSERT_EQ(star.neighbors[2]->sequences.size(), 1u);
  // Skipped before copying, not sent and dropped by the link.
  EXPECT_EQ(star.network->stats().packets_dropped_link_down, 0u);
}

}  // namespace
}  // namespace express
