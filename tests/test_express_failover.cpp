// Topology-change handling (§3.2): when unicast routing moves, a router
// sends a current Count to the new upstream and a zero Count to the old
// one, with hysteresis against route flaps; TCP-mode failure handling
// subtracts a dead neighbor's counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/invariants.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "helpers.hpp"
#include "net/network.hpp"
#include "testbed/delivery_log.hpp"

namespace express::test {
namespace {

RouterConfig diamond_config() {
  RouterConfig config;
  config.route_change_hysteresis = sim::milliseconds(500);
  return config;
}

// src -- rA -- rB -- rD -- recv     (top path, cost 1+1)
//          \-- rC --/               (bottom path, cost 2+2: backup)
// `receivers` hosts hang off rD, each on its own link; `receiver` is
// the first.
struct DiamondNet {
  explicit DiamondNet(RouterConfig config = diamond_config(),
                      std::uint32_t receivers = 1) {
    net::Topology topo;
    ra = topo.add_router();
    rb = topo.add_router();
    rc = topo.add_router();
    rd = topo.add_router();
    src_node = topo.add_host();
    recv_node = topo.add_host();
    topo.add_link(ra, src_node, sim::milliseconds(1));
    link_ab = topo.add_link(ra, rb, sim::milliseconds(1), 1);
    link_bd = topo.add_link(rb, rd, sim::milliseconds(1), 1);
    link_ac = topo.add_link(ra, rc, sim::milliseconds(1), 2);
    link_cd = topo.add_link(rc, rd, sim::milliseconds(1), 2);
    recv_links.push_back(topo.add_link(rd, recv_node, sim::milliseconds(1)));
    std::vector<net::NodeId> hosts{recv_node};
    for (std::uint32_t i = 1; i < receivers; ++i) {
      hosts.push_back(topo.add_host());
      recv_links.push_back(
          topo.add_link(rd, hosts.back(), sim::milliseconds(1)));
    }
    network = std::make_unique<net::Network>(std::move(topo));
    router_a = &network->attach<ExpressRouter>(ra, config);
    router_b = &network->attach<ExpressRouter>(rb, config);
    router_c = &network->attach<ExpressRouter>(rc, config);
    router_d = &network->attach<ExpressRouter>(rd, config);
    source = &network->attach<ExpressHost>(src_node);
    for (net::NodeId host : hosts) {
      this->receivers.push_back(&network->attach<ExpressHost>(host));
    }
    receiver = this->receivers.front();
  }

  void run_for(sim::Duration d) { network->run_until(network->now() + d); }

  net::NodeId ra{}, rb{}, rc{}, rd{}, src_node{}, recv_node{};
  net::LinkId link_ab{}, link_bd{}, link_ac{}, link_cd{};
  std::vector<net::LinkId> recv_links;  ///< rD -- receivers[i]
  std::unique_ptr<net::Network> network;
  ExpressRouter *router_a{}, *router_b{}, *router_c{}, *router_d{};
  ExpressHost *source{}, *receiver{};
  std::vector<ExpressHost*> receivers;
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
  const net::LinkId access = d.network->topology().port(d.rd, *iface).link;
  d.network->set_link_up(access, false);
  d.run_for(sim::seconds(2));

  // The dead-neighbor cleanup propagates prunes to the root.
  EXPECT_FALSE(d.router_d->on_tree(ch));
  EXPECT_FALSE(d.router_b->on_tree(ch));
  EXPECT_FALSE(d.router_a->on_tree(ch));
}

// A channel torn down while both of its timers are pending — the §3.2
// hysteresis switch and the §6 drift recheck — cancels exactly those
// two, and neither fires afterwards.
TEST(Failover, TeardownCancelsPendingSwitchAndDriftRecheck) {
  RouterConfig config = diamond_config();
  config.proactive = counting::CurveParams{0.3, 60.0, 4.0};
  DiamondNet d(config, 10);
  const ip::ChannelId ch = d.source->allocate_channel();
  for (ExpressHost* host : d.receivers) host->new_subscription(ch);
  d.run_for(sim::seconds(70));  // past tau: every drift has gone up

  // The first leave goes up at once (the last update is older than
  // tau); the second, 100 ms later, is drift the curve holds (8 of 9
  // advertised, ~11 %), so rD arms a recheck instead.
  d.receivers[0]->delete_subscription(ch);
  d.run_for(sim::milliseconds(100));
  d.receivers[1]->delete_subscription(ch);
  d.run_for(sim::milliseconds(100));
  const Channel* state = d.router_d->subscriptions().find(ch);
  ASSERT_NE(state, nullptr);
  ASSERT_NE(state->proactive, nullptr);
  ASSERT_TRUE(state->proactive->recheck.pending());

  // Losing rB holds the switch to rC back for the hysteresis.
  const sim::Time switch_due =
      d.network->now() + config.route_change_hysteresis;
  d.network->set_link_up(d.link_bd, false);
  ASSERT_EQ(d.router_d->pending_route_switches(), 1u);
  ASSERT_TRUE(state->proactive->recheck.pending());
  const std::uint64_t updates =
      d.router_d->counting_stats().proactive_updates_sent;

  // The remaining members leave; the step that removes the channel
  // cancels its two timers and nothing else.
  for (std::size_t i = 2; i < d.receivers.size(); ++i) {
    d.receivers[i]->delete_subscription(ch);
  }
  EXPECT_EQ(cancelled_by_teardown(*d.network, *d.router_d, ch), 2u);
  EXPECT_FALSE(d.router_d->on_tree(ch));
  EXPECT_EQ(d.router_d->pending_route_switches(), 0u);

  // Nothing is left to fire: the queue drains before the switch would
  // have run, and rD never re-joins through rC.
  d.network->run();
  EXPECT_LT(d.network->now(), switch_due);
  EXPECT_EQ(d.router_d->counting_stats().proactive_updates_sent, updates);
  EXPECT_FALSE(d.router_c->on_tree(ch));
}

// One routing change that both removes a channel from rD's table and
// re-announces the channels on either side of it: the dead-child pass
// prunes and erases b, then the upstream sweep re-announces a and c. A
// re-announce runs only while members remain, so it never empties the
// channel it serves; this is the removal on_routing_change can reach.
TEST(Failover, RoutingChangeSweepReannouncesAroundARemovedChannel) {
  DiamondNet d(diamond_config(), 2);
  const ip::ChannelId a = d.source->allocate_channel();
  const ip::ChannelId b = d.source->allocate_channel();
  const ip::ChannelId c = d.source->allocate_channel();
  ASSERT_TRUE(a < b && b < c);
  d.receivers[0]->new_subscription(a);
  d.receivers[1]->new_subscription(b);
  d.receivers[0]->new_subscription(c);
  d.run_for(sim::seconds(1));

  // Fault injection: rD's advertisements of a and c are void, as after
  // a connection reset whose re-announce has not run yet.
  SubscriptionTable& table = d.router_d->corrupt_subscriptions_for_test();
  table.find(a)->advertised_upstream = 0;
  table.find(c)->advertised_upstream = 0;
  const SubscriptionStats before = d.router_d->stats();

  // b's only member drops off: the dead-child pass prunes and removes
  // b, then the sweep re-announces a and c to rB.
  d.network->set_link_up(d.recv_links[1], false);
  const SubscriptionStats after = d.router_d->stats();
  EXPECT_EQ(after.prunes_sent - before.prunes_sent, 1u);
  EXPECT_EQ(after.joins_sent - before.joins_sent, 2u);
  EXPECT_FALSE(d.router_d->on_tree(b));
  EXPECT_EQ(d.router_d->fib().find(b), nullptr);
  EXPECT_EQ(d.router_d->subscriptions().find(a)->advertised_upstream, 1);
  EXPECT_EQ(d.router_d->subscriptions().find(c)->advertised_upstream, 1);

  d.run_for(sim::seconds(1));
  EXPECT_FALSE(d.router_b->on_tree(b));
  EXPECT_EQ(d.router_b->subtree_count(a), 1);
  EXPECT_EQ(d.router_b->subtree_count(c), 1);
  const audit::AuditReport report = audit::InvariantAuditor(*d.network).run();
  EXPECT_TRUE(report.clean()) << report.to_string();
  d.source->send(a, 100, 1);
  d.source->send(c, 100, 2);
  d.run_for(sim::seconds(1));
  EXPECT_EQ(d.receivers[0]->stats().data_received, 2u);
}

}  // namespace
}  // namespace express::test
