// Topology-change handling (§3.2): when unicast routing moves, a router
// sends a current Count to the new upstream and a zero Count to the old
// one, with hysteresis against route flaps; TCP-mode failure handling
// subtracts a dead neighbor's counts.
#include <gtest/gtest.h>

#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "testbed/delivery_log.hpp"

namespace express::test {
namespace {

// src -- rA -- rB -- rD -- recv     (top path, cost 1+1)
//          \-- rC --/               (bottom path, cost 2+2: backup)
struct DiamondNet {
  DiamondNet() {
    net::Topology topo;
    ra = topo.add_router("rA");
    rb = topo.add_router("rB");
    rc = topo.add_router("rC");
    rd = topo.add_router("rD");
    src_node = topo.add_host("src");
    recv_node = topo.add_host("recv");
    topo.add_link(ra, src_node, sim::milliseconds(1));
    link_ab = topo.add_link(ra, rb, sim::milliseconds(1), 1);
    link_bd = topo.add_link(rb, rd, sim::milliseconds(1), 1);
    link_ac = topo.add_link(ra, rc, sim::milliseconds(1), 2);
    link_cd = topo.add_link(rc, rd, sim::milliseconds(1), 2);
    topo.add_link(rd, recv_node, sim::milliseconds(1));
    network = std::make_unique<net::Network>(std::move(topo));
    RouterConfig config;
    config.route_change_hysteresis = sim::milliseconds(500);
    router_a = &network->attach<ExpressRouter>(ra, config);
    router_b = &network->attach<ExpressRouter>(rb, config);
    router_c = &network->attach<ExpressRouter>(rc, config);
    router_d = &network->attach<ExpressRouter>(rd, config);
    source = &network->attach<ExpressHost>(src_node);
    receiver = &network->attach<ExpressHost>(recv_node);
  }

  void run_for(sim::Duration d) { network->run_until(network->now() + d); }

  net::NodeId ra{}, rb{}, rc{}, rd{}, src_node{}, recv_node{};
  net::LinkId link_ab{}, link_bd{}, link_ac{}, link_cd{};
  std::unique_ptr<net::Network> network;
  ExpressRouter *router_a{}, *router_b{}, *router_c{}, *router_d{};
  ExpressHost *source{}, *receiver{};
};

TEST(Failover, RejoinsViaAlternatePathAfterLinkFailure) {
  DiamondNet d;
  const ip::ChannelId ch = d.source->allocate_channel();
  DeliveryLog log;
  d.receiver->set_data_handler(log.handler());
  d.receiver->new_subscription(ch);
  d.run_for(sim::seconds(1));

  // Tree uses the cheap top path through rB.
  EXPECT_TRUE(d.router_b->on_tree(ch));
  EXPECT_FALSE(d.router_c->on_tree(ch));
  EXPECT_EQ(d.router_d->upstream_of(ch), d.rb);

  d.source->send(ch, 100, 1);
  d.run_for(sim::seconds(1));
  ASSERT_EQ(d.receiver->stats().data_received, 1u);

  // Cut rB--rD. After hysteresis, rD re-joins through rC; rB prunes.
  d.network->set_link_up(d.link_bd, false);
  d.run_for(sim::seconds(2));
  EXPECT_EQ(d.router_d->upstream_of(ch), d.rc);
  EXPECT_TRUE(d.router_c->on_tree(ch));
  EXPECT_FALSE(d.router_b->on_tree(ch));  // pruned via dead-link cleanup

  d.source->send(ch, 100, 2);
  d.run_for(sim::seconds(1));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].sequence, 2u);
}

TEST(Failover, HysteresisSuppressesRouteFlap) {
  DiamondNet d;
  const ip::ChannelId ch = d.source->allocate_channel();
  d.receiver->new_subscription(ch);
  d.run_for(sim::seconds(1));
  const auto prunes_before = d.router_d->stats().prunes_sent;

  // Flap: down and back up within the 500 ms hysteresis window.
  d.network->set_link_up(d.link_bd, false);
  d.run_for(sim::milliseconds(100));
  d.network->set_link_up(d.link_bd, true);
  d.run_for(sim::seconds(2));

  // rD never switched away from rB and sent no prune.
  EXPECT_EQ(d.router_d->upstream_of(ch), d.rb);
  EXPECT_EQ(d.router_d->stats().prunes_sent, prunes_before);
  EXPECT_FALSE(d.router_c->on_tree(ch));

  d.source->send(ch, 100, 1);
  d.run_for(sim::seconds(1));
  EXPECT_EQ(d.receiver->stats().data_received, 1u);
}

TEST(Failover, RecoveryPrefersBetterPathAgain) {
  DiamondNet d;
  const ip::ChannelId ch = d.source->allocate_channel();
  d.receiver->new_subscription(ch);
  d.run_for(sim::seconds(1));

  d.network->set_link_up(d.link_bd, false);
  d.run_for(sim::seconds(2));
  ASSERT_EQ(d.router_d->upstream_of(ch), d.rc);

  // Restore: routing prefers rB again; rD switches back, rC prunes.
  d.network->set_link_up(d.link_bd, true);
  d.run_for(sim::seconds(2));
  EXPECT_EQ(d.router_d->upstream_of(ch), d.rb);
  EXPECT_FALSE(d.router_c->on_tree(ch));
  EXPECT_TRUE(d.router_b->on_tree(ch));

  d.source->send(ch, 100, 3);
  d.run_for(sim::seconds(1));
  ASSERT_EQ(d.receiver->stats().data_received, 1u);
}

TEST(Failover, SourceLinkFailureStopsDeliveryCleanly) {
  DiamondNet d;
  const ip::ChannelId ch = d.source->allocate_channel();
  d.receiver->new_subscription(ch);
  d.run_for(sim::seconds(1));

  // Cut the receiver's access link: rD loses its only subscriber.
  const auto iface = d.network->topology().interface_to(d.rd, d.recv_node);
  ASSERT_TRUE(iface.has_value());
  const net::LinkId access =
      d.network->topology().node(d.rd).interfaces[*iface];
  d.network->set_link_up(access, false);
  d.run_for(sim::seconds(2));

  // The dead-neighbor cleanup propagates prunes to the root.
  EXPECT_FALSE(d.router_d->on_tree(ch));
  EXPECT_FALSE(d.router_b->on_tree(ch));
  EXPECT_FALSE(d.router_a->on_tree(ch));
}

}  // namespace
}  // namespace express::test
