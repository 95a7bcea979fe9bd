// ECMP UDP mode (§3.2): soft state with periodic CountQuery refreshes,
// no report suppression, explicit leave triggering a re-query, and
// expiry of members that die silently.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_star;

RouterConfig udp_config() {
  RouterConfig config;
  config.udp_query_interval = sim::seconds(2);
  return config;
}

// Star with 1-hop chains: edge router r_i has iface 0 toward the root
// and iface 1 toward its host.
class UdpModeTest : public ::testing::Test {
 protected:
  UdpModeTest() : sim_(make_star(2, 1), udp_config()) {
    channel_ = sim_.source().allocate_channel();
    // routers: [root, r0_0, r1_0]; host-facing iface on the edges is 1.
    sim_.router(1).set_interface_mode(1, ecmp::Mode::kUdp);
    sim_.router(2).set_interface_mode(1, ecmp::Mode::kUdp);
  }
  Testbed sim_;
  ip::ChannelId channel_;
};

TEST_F(UdpModeTest, RefreshQueriesKeepSubscriptionAlive) {
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(sim_.router(1).on_tree(channel_));

  // Run well past several refresh intervals: the host answers each
  // query, so the subscription must survive.
  sim_.run_for(sim::seconds(20));
  EXPECT_TRUE(sim_.router(1).on_tree(channel_));
  EXPECT_GT(sim_.receiver(0).stats().queries_answered, 5u);

  sim_.source().send(channel_, 100, 1);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(0).stats().data_received, 1u);
}

TEST_F(UdpModeTest, SilentHostExpiresAndTreePrunes) {
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(sim_.source_router().on_tree(channel_));

  // The host crashes without unsubscribing: refresh queries go
  // unanswered, the soft state expires, and the branch prunes.
  sim_.receiver(0).set_silent(true);
  sim_.run_for(sim::seconds(20));
  EXPECT_FALSE(sim_.router(1).on_tree(channel_));
  EXPECT_FALSE(sim_.source_router().on_tree(channel_));
}

TEST_F(UdpModeTest, ExplicitLeaveTriggersReQuery) {
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  const auto queries_before = sim_.router(1).stats().queries_sent;

  // IGMPv2-style: a zero Count makes the router immediately re-query
  // the interface before the next periodic round.
  sim_.receiver(0).delete_subscription(channel_);
  sim_.run_for(sim::milliseconds(200));
  EXPECT_GT(sim_.router(1).stats().queries_sent, queries_before);
  EXPECT_FALSE(sim_.router(1).on_tree(channel_));
}

TEST_F(UdpModeTest, NoReportSuppression) {
  // §3.2: "Unlike IGMPv2, but like the proposed IGMPv3, there is no
  // report suppression" — every queried member answers, so the router
  // keeps an exact per-interface count. With one host per interface the
  // observable effect is the exact count surviving refresh rounds.
  sim_.receiver(0).new_subscription(channel_);
  sim_.receiver(0).new_subscription(channel_);  // two local apps
  sim_.run_for(sim::seconds(10));
  EXPECT_EQ(sim_.router(1).subtree_count(channel_), 2);
}

TEST_F(UdpModeTest, RefreshClockRunsDryAfterSilentExpiry) {
  // Regression: the periodic refresh used to re-arm unconditionally,
  // querying dead neighbors forever. Once the silent host's soft state
  // expires and the branch prunes, the refresh clock must run dry —
  // zero post-death refresh sends.
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(sim_.router(1).on_tree(channel_));
  ASSERT_TRUE(sim_.router(1).udp_refresh_active());

  sim_.receiver(0).set_silent(true);
  sim_.run_for(sim::seconds(20));  // expiry (robustness x interval) + prune
  ASSERT_FALSE(sim_.router(1).on_tree(channel_));
  EXPECT_FALSE(sim_.router(1).udp_refresh_active());

  const auto queries_after_death = sim_.router(1).stats().queries_sent;
  sim_.run_for(sim::seconds(20));
  EXPECT_EQ(sim_.router(1).stats().queries_sent, queries_after_death);
}

TEST_F(UdpModeTest, RefreshClockRunsDryAfterExplicitLeave) {
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(sim_.router(1).udp_refresh_active());

  sim_.receiver(0).delete_subscription(channel_);
  sim_.run_for(sim::seconds(5));  // leave re-query resolves, state drains
  EXPECT_FALSE(sim_.router(1).on_tree(channel_));
  EXPECT_FALSE(sim_.router(1).udp_refresh_active());

  const auto queries_after_leave = sim_.router(1).stats().queries_sent;
  sim_.run_for(sim::seconds(20));
  EXPECT_EQ(sim_.router(1).stats().queries_sent, queries_after_leave);

  // A fresh join re-arms the clock.
  sim_.receiver(0).new_subscription(channel_);
  sim_.run_for(sim::seconds(1));
  EXPECT_TRUE(sim_.router(1).udp_refresh_active());
}

TEST_F(UdpModeTest, TcpInterfacesAreUnaffected) {
  // receiver(1) hangs off router(2); its router-facing side and the
  // core stay in (default) TCP mode: no periodic per-channel queries
  // should hit a TCP-mode subscription's host beyond the initial round.
  ExpressRouter& tcp_edge = sim_.router(2);
  tcp_edge.set_interface_mode(1, ecmp::Mode::kTcp);
  sim_.receiver(1).new_subscription(channel_);
  sim_.run_for(sim::seconds(20));
  EXPECT_TRUE(tcp_edge.on_tree(channel_));
  EXPECT_EQ(sim_.receiver(1).stats().queries_answered, 0u);
  sim_.source().send(channel_, 100, 1);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(1).stats().data_received, 1u);
}

}  // namespace
}  // namespace express::test
