// Workload generators: topology shapes, churn schedules and the Fig. 8
// scenario.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/routing.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::workload {
namespace {

TEST(TopoGen, StarShape) {
  auto g = make_star(5, 2);
  EXPECT_EQ(g.receiver_hosts.size(), 5u);
  EXPECT_EQ(g.routers.size(), 1u + 5 * 2);  // root + 2 per arm
  EXPECT_NE(g.source_host, net::kInvalidNode);
  // Every receiver is source_router-rooted at distance hops+... source
  // to receiver: src-root (1) + 2 routers + host link = 4 hops.
  net::UnicastRouting routing(g.topology);
  for (net::NodeId r : g.receiver_hosts) {
    EXPECT_EQ(routing.hop_count(g.source_host, r), 4u);
  }
}

TEST(TopoGen, KaryTreeShape) {
  auto g = make_kary_tree(2, 3);
  EXPECT_EQ(g.routers.size(), 15u);          // 1 + 2 + 4 + 8
  EXPECT_EQ(g.receiver_hosts.size(), 8u);    // one per leaf
  net::UnicastRouting routing(g.topology);
  for (net::NodeId r : g.receiver_hosts) {
    // src - root - d1 - d2 - leaf - host = 5 hops.
    EXPECT_EQ(routing.hop_count(g.source_host, r), 5u);
  }
}

TEST(TopoGen, LineMatchesPaperDiameter) {
  auto g = make_line(25);
  EXPECT_EQ(g.routers.size(), 25u);
  net::UnicastRouting routing(g.topology);
  // Source to the single receiver crosses all 25 routers + host links.
  EXPECT_EQ(routing.hop_count(g.source_host, g.receiver_hosts[0]), 26u);
}

TEST(TopoGen, TransitStubIsConnected) {
  sim::Rng rng(17);
  auto g = make_transit_stub(6, 3, 4, rng);
  EXPECT_EQ(g.receiver_hosts.size(), 6u * 3 * 4);
  net::UnicastRouting routing(g.topology);
  for (net::NodeId r : g.receiver_hosts) {
    EXPECT_TRUE(routing.cost(g.source_host, r).has_value())
        << "unreachable receiver " << r;
  }
}

TEST(TopoGen, TransitStubIsDeterministicPerSeed) {
  sim::Rng rng_a(5), rng_b(5);
  auto a = make_transit_stub(4, 2, 2, rng_a);
  auto b = make_transit_stub(4, 2, 2, rng_b);
  EXPECT_EQ(a.topology.node_count(), b.topology.node_count());
  EXPECT_EQ(a.topology.link_count(), b.topology.link_count());
}

TEST(Churn, PoissonEventsAreSortedAndPaired) {
  sim::Rng rng(7);
  auto events = poisson_churn(50, sim::seconds(600), sim::seconds(120),
                              sim::seconds(60), rng);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const ChurnEvent& a, const ChurnEvent& b) {
                               return a.at < b.at;
                             }));
  // Per-host join/leave alternation starting with a join.
  std::vector<int> state(50, 0);
  for (const auto& e : events) {
    if (e.join) {
      EXPECT_EQ(state[e.host_index], 0) << "double join";
      state[e.host_index] = 1;
    } else {
      EXPECT_EQ(state[e.host_index], 1) << "leave without join";
      state[e.host_index] = 0;
    }
  }
  // Everyone ends unsubscribed.
  for (int s : state) EXPECT_EQ(s, 0);
}

TEST(Churn, Fig8ScheduleMatchesPaperShape) {
  sim::Rng rng(11);
  Fig8Params params;
  auto events = fig8_schedule(params, rng);
  // 250 joins + 250 leaves.
  EXPECT_EQ(events.size(), 500u);

  std::int64_t current = 0, peak = 0;
  std::int64_t at_150 = -1, at_250 = -1, at_299 = -1;
  for (const auto& e : events) {
    current += e.join ? 1 : -1;
    peak = std::max(peak, current);
    if (e.at <= sim::seconds(150)) at_150 = current;
    if (e.at <= sim::seconds(250)) at_250 = current;
    if (e.at <= sim::seconds(299)) at_299 = current;
  }
  EXPECT_EQ(peak, 250);          // all subscribed at the peak
  EXPECT_EQ(current, 0);         // all unsubscribed at the end
  EXPECT_GT(at_150, 120);        // initial burst + some trickle
  EXPECT_LT(at_150, 250);        // trickle not finished at t=150
  EXPECT_EQ(at_250, 250);        // second burst done before t=250
  EXPECT_EQ(at_299, 250);        // quiet until t=300
  // No event in the quiet window (250, 300).
  for (const auto& e : events) {
    EXPECT_FALSE(e.at > sim::seconds(206) && e.at < sim::seconds(300))
        << "event inside the quiet period at " << sim::to_seconds(e.at);
  }
}

}  // namespace
}  // namespace express::workload
