// Multi-access LAN segments: many hosts behind one router interface,
// ECMP control on the well-known address, UDP-mode general queries with
// no report suppression, and shared-wire data delivery.
#include <gtest/gtest.h>

#include <optional>

#include "express/host.hpp"
#include "express/router.hpp"
#include "net/lan.hpp"
#include "net/network.hpp"
#include "testbed/delivery_log.hpp"

namespace express::test {
namespace {

// core --- edge ===[hub]=== h0 h1 h2 h3    ;  src host on core.
struct LanNet {
  explicit LanNet(RouterConfig config = {}, std::uint32_t lan_hosts = 4) {
    net::Topology topo;
    core_id = topo.add_router("core");
    edge_id = topo.add_router("edge");
    topo.add_link(core_id, edge_id, sim::milliseconds(1));
    src_id = topo.add_host("src");
    topo.add_link(core_id, src_id, sim::milliseconds(1));
    segment = net::add_lan_segment(topo, edge_id, lan_hosts);
    network = std::make_unique<net::Network>(std::move(topo));
    core = &network->attach<ExpressRouter>(core_id, config);
    edge = &network->attach<ExpressRouter>(edge_id, config);
    network->attach<net::LanHub>(segment.hub);
    source = &network->attach<ExpressHost>(src_id);
    for (net::NodeId h : segment.hosts) {
      hosts.push_back(&network->attach<ExpressHost>(h));
    }
  }
  void run_for(sim::Duration d) { network->run_until(network->now() + d); }

  net::NodeId core_id{}, edge_id{}, src_id{};
  net::LanSegment segment;
  std::unique_ptr<net::Network> network;
  ExpressRouter *core{}, *edge{};
  ExpressHost* source{};
  std::vector<ExpressHost*> hosts;
};

TEST(Lan, SubscribeAndReceiveThroughSharedSegment) {
  LanNet lan;
  const ip::ChannelId ch = lan.source->allocate_channel();
  lan.hosts[0]->new_subscription(ch);
  lan.hosts[2]->new_subscription(ch);
  lan.run_for(sim::seconds(1));

  // The edge router tracks each LAN member separately, all behind one
  // interface.
  EXPECT_EQ(lan.edge->subtree_count(ch), 2);
  EXPECT_EQ(lan.edge->fib().size(), 1u);

  lan.source->send(ch, 600, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.hosts[0]->stats().data_received, 1u);
  EXPECT_EQ(lan.hosts[2]->stats().data_received, 1u);
  // Non-members saw the frame on the wire but the "NIC" filtered it:
  // no app delivery, no unwanted-data violation.
  EXPECT_EQ(lan.hosts[1]->stats().data_received, 0u);
  EXPECT_EQ(lan.hosts[1]->stats().unwanted_data, 0u);
}

TEST(Lan, OneCopyOnTheWirePerPacket) {
  // The LAN's whole point: 4 subscribers, but the router transmits one
  // copy onto the segment (the hub repeats it at layer 2).
  LanNet lan;
  const ip::ChannelId ch = lan.source->allocate_channel();
  for (auto* h : lan.hosts) h->new_subscription(ch);
  lan.run_for(sim::seconds(1));
  const auto copies_before = lan.edge->stats().data_copies_sent;
  lan.source->send(ch, 600, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.edge->stats().data_copies_sent, copies_before + 1);
  for (auto* h : lan.hosts) {
    EXPECT_EQ(h->stats().data_received, 1u);
  }
}

TEST(Lan, UdpGeneralQueryGetsAnswerFromEveryMember) {
  RouterConfig config;
  config.udp_query_interval = sim::seconds(3);
  LanNet lan(config);
  const ip::ChannelId ch = lan.source->allocate_channel();
  // The edge's LAN interface is its second (index 1: 0=core, 1=hub).
  lan.edge->set_interface_mode(1, ecmp::Mode::kUdp);
  for (auto* h : lan.hosts) h->new_subscription(ch);
  lan.run_for(sim::seconds(1));

  const auto queries_before = lan.edge->stats().queries_sent;
  lan.run_for(sim::seconds(3));  // one refresh round
  // One general query on the wire...
  EXPECT_EQ(lan.edge->stats().queries_sent, queries_before + 1);
  // ...answered by all four members (§3.2: no report suppression).
  std::uint64_t answered = 0;
  for (auto* h : lan.hosts) answered += h->stats().queries_answered;
  EXPECT_EQ(answered, 4u);
  EXPECT_TRUE(lan.edge->on_tree(ch));
}

TEST(Lan, SilentLanMemberExpiresIndividually) {
  RouterConfig config;
  config.udp_query_interval = sim::seconds(2);
  config.udp_robustness = 2;
  LanNet lan(config);
  const ip::ChannelId ch = lan.source->allocate_channel();
  lan.edge->set_interface_mode(1, ecmp::Mode::kUdp);
  for (auto* h : lan.hosts) h->new_subscription(ch);
  lan.run_for(sim::seconds(1));
  ASSERT_EQ(lan.edge->subtree_count(ch), 4);

  lan.hosts[3]->set_silent(true);  // crashes without leaving
  lan.run_for(sim::seconds(15));
  EXPECT_EQ(lan.edge->subtree_count(ch), 3);  // only the dead one aged out
  EXPECT_TRUE(lan.edge->on_tree(ch));

  lan.source->send(ch, 100, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.hosts[0]->stats().data_received, 1u);
}

TEST(Lan, DeadHostLinkIsSkippedNotMisattributed) {
  // Cut a LAN member's drop cable. The dead-child cleanup in
  // on_routing_change cannot resolve an interface toward the host (it
  // sits behind the hub and has no route), so it must *skip* the update
  // and count it — the old code fell back to interface 0 and zeroed the
  // subscription, permanently cutting the member off even after the
  // wire healed (UDP refresh never re-queries a removed channel).
  RouterConfig config;
  config.udp_query_interval = sim::seconds(5);
  config.udp_robustness = 2;
  LanNet lan(config);
  const ip::ChannelId ch = lan.source->allocate_channel();
  lan.edge->set_interface_mode(1, ecmp::Mode::kUdp);
  lan.hosts[1]->new_subscription(ch);  // the only subscriber
  lan.run_for(sim::seconds(1));
  ASSERT_EQ(lan.edge->subtree_count(ch), 1);

  const net::NodeId victim = lan.segment.hosts[1];
  auto hub_iface = lan.network->topology().interface_to(lan.segment.hub, victim);
  ASSERT_TRUE(hub_iface.has_value());
  const net::LinkId drop =
      lan.network->topology().node(lan.segment.hub).interfaces.at(*hub_iface);

  lan.network->set_link_up(drop, false);
  lan.run_for(sim::milliseconds(500));
  EXPECT_EQ(lan.edge->stats().unresolved_neighbor_updates, 1u);
  EXPECT_EQ(lan.edge->subtree_count(ch), 1);  // hard state intact
  EXPECT_TRUE(lan.edge->on_tree(ch));

  // Heal inside the soft-state lifetime: the member receives again
  // without rejoining.
  lan.network->set_link_up(drop, true);
  lan.run_for(sim::milliseconds(500));
  lan.source->send(ch, 100, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.hosts[1]->stats().data_received, 1u);
}

TEST(Lan, SameSegmentSourceReachesNeighborsViaTheWire) {
  // A host on the LAN sources a channel; a subscriber on the same wire
  // hears the transmission directly (hub broadcast), and the router
  // does not echo it back onto the segment.
  LanNet lan;
  ExpressHost& speaker = *lan.hosts[0];
  const ip::ChannelId ch = speaker.allocate_channel();
  DeliveryLog log;
  lan.hosts[1]->set_data_handler(log.handler());
  lan.hosts[1]->new_subscription(ch);
  lan.run_for(sim::seconds(1));
  const auto edge_copies = lan.edge->stats().data_copies_sent;
  speaker.send(ch, 300, 5);
  lan.run_for(sim::seconds(1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sequence, 5u);
  // The router forwarded nothing back onto its incoming interface.
  EXPECT_EQ(lan.edge->stats().data_copies_sent, edge_copies);
}

TEST(Lan, CountQueryAggregatesOverSegmentMembers) {
  LanNet lan;
  const ip::ChannelId ch = lan.source->allocate_channel();
  for (auto* h : lan.hosts) h->new_subscription(ch);
  lan.run_for(sim::seconds(1));
  std::optional<CountResult> result;
  lan.source->count_query(ch, ecmp::kSubscriberId, sim::seconds(3),
                          [&](CountResult r) { result = r; });
  lan.run_for(sim::seconds(8));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, 4);
  EXPECT_TRUE(result->complete);
}

TEST(Lan, AuthenticatedChannelWorksAcrossSegment) {
  LanNet lan;
  const ip::ChannelId ch = lan.source->allocate_channel();
  lan.source->channel_key(ch, 0xFACEULL);
  lan.run_for(sim::seconds(1));
  std::optional<ecmp::Status> good, bad;
  lan.hosts[0]->new_subscription(ch, 0xFACEULL,
                                 [&](ecmp::Status s) { good = s; });
  lan.hosts[1]->new_subscription(ch, std::nullopt,
                                 [&](ecmp::Status s) { bad = s; });
  lan.run_for(sim::seconds(2));
  ASSERT_TRUE(good && bad);
  EXPECT_EQ(*good, ecmp::Status::kOk);
  EXPECT_EQ(*bad, ecmp::Status::kInvalidKey);
  lan.source->send(ch, 100, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.hosts[0]->stats().data_received, 1u);
  EXPECT_EQ(lan.hosts[1]->stats().data_received, 0u);
}

TEST(Lan, LeaveFromOneMemberKeepsOthersReceiving) {
  LanNet lan;
  const ip::ChannelId ch = lan.source->allocate_channel();
  lan.hosts[0]->new_subscription(ch);
  lan.hosts[1]->new_subscription(ch);
  lan.run_for(sim::seconds(1));
  lan.hosts[0]->delete_subscription(ch);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.edge->subtree_count(ch), 1);
  lan.source->send(ch, 100, 1);
  lan.run_for(sim::seconds(1));
  EXPECT_EQ(lan.hosts[0]->stats().data_received, 0u);
  EXPECT_EQ(lan.hosts[1]->stats().data_received, 1u);

  lan.hosts[1]->delete_subscription(ch);
  lan.run_for(sim::seconds(1));
  EXPECT_FALSE(lan.edge->on_tree(ch));
  EXPECT_FALSE(lan.core->on_tree(ch));
}

}  // namespace
}  // namespace express::test
