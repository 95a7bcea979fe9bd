// Advanced integration: multiple channels and sources, ECMP segment
// batching, subcast edge cases, TTL, and in-flight count queries.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "helpers.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_kary_tree;
using workload::make_line;
using workload::make_star;

TEST(MultiChannel, ChannelsFromOneSourceAreIndependent) {
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId news = sim.source().allocate_channel();
  const ip::ChannelId sports = sim.source().allocate_channel();
  DeliveryLog log;
  sim.receiver(0).set_data_handler(log.handler());
  sim.receiver(0).new_subscription(news);
  sim.receiver(0).new_subscription(sports);
  sim.receiver(1).new_subscription(sports);
  sim.run_for(sim::seconds(1));

  sim.receiver(0).delete_subscription(news);
  sim.run_for(sim::seconds(1));

  sim.source().send(news, 100, 1);
  sim.source().send(sports, 100, 2);
  sim.run_for(sim::seconds(1));
  // receiver 0 kept sports, dropped news.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].channel, sports);
  ASSERT_EQ(sim.receiver(1).stats().data_received, 1u);
}

TEST(MultiChannel, TwoSourcesBuildDisjointTrees) {
  Testbed sim(make_kary_tree(2, 3));
  // receiver(7) doubles as a second broadcaster.
  ExpressHost& a = sim.source();
  ExpressHost& b = sim.receiver(7);
  const ip::ChannelId cha = a.allocate_channel();
  const ip::ChannelId chb = b.allocate_channel();

  DeliveryLog log0;
  DeliveryLog log1;
  sim.receiver(0).set_data_handler(log0.handler());
  sim.receiver(1).set_data_handler(log1.handler());
  sim.receiver(0).new_subscription(cha);
  sim.receiver(1).new_subscription(chb);
  sim.run_for(sim::seconds(1));
  a.send(cha, 100, 1);
  b.send(chb, 100, 2);
  sim.run_for(sim::seconds(1));

  ASSERT_EQ(log0.size(), 1u);
  EXPECT_EQ(log0[0].channel, cha);
  ASSERT_EQ(log1.size(), 1u);
  EXPECT_EQ(log1[0].channel, chb);

  // FIB entries are keyed by the full (S,E): trees never interfere,
  // and each router's entries belong to channels it actually serves.
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    for (const auto& [channel, entry] : sim.router(i).fib().entries()) {
      EXPECT_TRUE(channel == cha || channel == chb);
    }
  }
}

TEST(Batching, SegmentCoalescingReducesPackets) {
  auto run = [](std::optional<sim::Duration> window) {
    RouterConfig config;
    config.batch_window = window;
    Testbed sim(make_kary_tree(2, 3, {}, 4), config);  // 32 hosts
    // Many channels churned at once: lots of simultaneous upstream
    // Counts, the §5.3 segment-packing scenario.
    std::vector<ip::ChannelId> channels;
    for (int c = 0; c < 20; ++c) {
      channels.push_back(sim.source().allocate_channel());
    }
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      for (const auto& ch : channels) sim.receiver(i).new_subscription(ch);
    }
    sim.run_for(sim::seconds(2));
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      for (const auto& ch : channels) sim.receiver(i).delete_subscription(ch);
    }
    sim.run_for(sim::seconds(2));
    return std::pair<std::uint64_t, std::size_t>(
        sim.net().stats().packets_sent, sim.total_fib_entries());
  };

  const auto [packets_plain, state_plain] = run(std::nullopt);
  const auto [packets_batched, state_batched] = run(sim::milliseconds(5));
  // Same protocol outcome (full teardown), far fewer packets.
  EXPECT_EQ(state_plain, 0u);
  EXPECT_EQ(state_batched, 0u);
  EXPECT_LT(packets_batched, packets_plain);
  EXPECT_LT(static_cast<double>(packets_batched),
            0.7 * static_cast<double>(packets_plain));
}

TEST(Batching, DataStillFlowsWithBatchingEnabled) {
  RouterConfig config;
  config.batch_window = sim::milliseconds(5);
  Testbed sim(make_kary_tree(2, 2), config);
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));
  sim.source().send(ch, 800, 1);
  sim.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    EXPECT_EQ(sim.receiver(i).stats().data_received, 1u) << i;
  }

  // Counting also works across batched segments.
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(5),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(Subcast, ViaOffTreeRouterIsDropped) {
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);  // left side only
  sim.run_for(sim::seconds(1));

  // Relay through the *right* depth-1 router, which is off the tree:
  // no FIB entry, packet silently discarded (counted at the router).
  ExpressRouter& off_tree = sim.router(2);
  ASSERT_FALSE(off_tree.on_tree(ch));
  sim.source().subcast(ch, sim.net().topology().address(off_tree.id()),
                       500, 7);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);
  EXPECT_EQ(off_tree.stats().subcasts_relayed, 0u);
}

TEST(Subcast, RootRelayReachesEverySubscriber) {
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));
  sim.source().subcast(
      ch, sim.net().topology().address(sim.source_router().id()), 500, 9);
  sim.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    EXPECT_EQ(sim.receiver(i).stats().data_received, 1u) << i;
  }
}

TEST(Ttl, DataDiesOnAbsurdlyLongPaths) {
  // 70 routers; default TTL 64: the packet must be dropped in transit
  // and never delivered, without disturbing protocol state.
  Testbed sim(make_line(70));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(sim.source_router().on_tree(ch));  // joins are per-hop, fine
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(5));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);
}

TEST(Counting, QueryDuringChurnStaysWithinBounds) {
  Testbed sim(make_kary_tree(2, 3));
  const ip::ChannelId ch = sim.source().allocate_channel();
  // Half join now, half join while the query is in flight.
  for (std::size_t i = 0; i < 4; ++i) sim.receiver(i).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(5),
                           [&](CountResult r) { result = r; });
  for (std::size_t i = 4; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->count, 4);
  EXPECT_LE(result->count, static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(Counting, WeightedTreeSizeUsesLinkCosts) {
  // Line with cost-1 core links and a cost-1 host link: subscribing the
  // single receiver makes the weighted subtree size equal the link
  // count; doubling costs doubles it.
  for (std::uint32_t cost : {1u, 2u}) {
    net::Topology topo;
    const auto r0 = topo.add_router();
    const auto r1 = topo.add_router();
    const auto src = topo.add_host();
    const auto dst = topo.add_host();
    topo.add_link(r0, src, sim::milliseconds(1), 1);
    topo.add_link(r0, r1, sim::milliseconds(1), cost);
    topo.add_link(r1, dst, sim::milliseconds(1), cost);
    net::Network network(std::move(topo));
    auto& router0 = network.attach<ExpressRouter>(r0);
    network.attach<ExpressRouter>(r1);
    auto& source = network.attach<ExpressHost>(src);
    auto& sink = network.attach<ExpressHost>(dst);
    const ip::ChannelId ch = source.allocate_channel();
    sink.new_subscription(ch);
    network.run_until(sim::seconds(1));

    std::optional<CountResult> weighted;
    router0.initiate_count(ch, ecmp::kWeightedTreeSizeId, sim::seconds(2),
                           [&](CountResult r) { weighted = r; });
    network.run_until(sim::seconds(10));
    ASSERT_TRUE(weighted.has_value());
    EXPECT_EQ(weighted->count, static_cast<std::int64_t>(2 * cost));
  }
}

TEST(Counting, DomainScopedLinkCountStopsAtBoundary) {
  // §3.1's settlement example: a transit domain's ingress counts the
  // tree links used *within its domain*; the query never leaks into the
  // neighbor ISP.
  net::Topology topo;
  // src -- r0 -- r1 | r2 -- r3 -- recv   (domain A: r0,r1; B: r2,r3)
  const auto r0 = topo.add_router();
  const auto r1 = topo.add_router();
  const auto r2 = topo.add_router();
  const auto r3 = topo.add_router();
  const auto src = topo.add_host();
  const auto dst = topo.add_host();
  topo.add_link(r0, src);
  topo.add_link(r0, r1);
  topo.add_link(r1, r2);
  topo.add_link(r2, r3);
  topo.add_link(r3, dst);
  topo.set_domain(r0, 1);
  topo.set_domain(r1, 1);
  topo.set_domain(r2, 2);
  topo.set_domain(r3, 2);
  topo.set_domain(dst, 2);  // the receiver's access link belongs to B
  topo.set_domain(src, 1);

  net::Network network(std::move(topo));
  auto& ingress_a = network.attach<ExpressRouter>(r0);
  network.attach<ExpressRouter>(r1);
  auto& ingress_b = network.attach<ExpressRouter>(r2);
  auto& egress_b = network.attach<ExpressRouter>(r3);
  auto& source = network.attach<ExpressHost>(src);
  auto& sink = network.attach<ExpressHost>(dst);
  (void)egress_b;

  const ip::ChannelId ch = source.allocate_channel();
  sink.new_subscription(ch);
  network.run_until(sim::seconds(1));

  // Domain B's ingress: links within B are r2-r3 and r3-recv.
  std::optional<CountResult> b_links;
  ingress_b.initiate_count(ch, ecmp::kDomainLinkCountId, sim::seconds(2),
                           [&](CountResult r) { b_links = r; });
  network.run_until(sim::seconds(5));
  ASSERT_TRUE(b_links.has_value());
  EXPECT_EQ(b_links->count, 2);

  // Domain A's head-end: only r0-r1 is intra-A (r1-r2 crosses).
  std::optional<CountResult> a_links;
  ingress_a.initiate_count(ch, ecmp::kDomainLinkCountId, sim::seconds(2),
                           [&](CountResult r) { a_links = r; });
  network.run_until(sim::seconds(10));
  ASSERT_TRUE(a_links.has_value());
  EXPECT_EQ(a_links->count, 1);

  // Unscoped link count from A's head-end sees the whole tree (4 links
  // downstream of r0).
  std::optional<CountResult> all_links;
  ingress_a.initiate_count(ch, ecmp::kLinkCountId, sim::seconds(2),
                           [&](CountResult r) { all_links = r; });
  network.run_until(sim::seconds(15));
  ASSERT_TRUE(all_links.has_value());
  EXPECT_EQ(all_links->count, 4);
}

TEST(Discovery, NeighborQueriesFlowAndSessionsStayAlive) {
  // §3.3: periodic neighbors CountQuery on router-router links; the
  // replies keep sessions alive in the NeighborTable.
  RouterConfig config;
  config.neighbor_discovery = true;
  Testbed sim(make_kary_tree(2, 2), config);
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  // Seven discovery rounds, over twice the keepalive timeout: a session
  // the replies did not refresh would have expired.
  sim.run_for(7 * ecmp::kNeighborQueryInterval + sim::seconds(5));
  ASSERT_GT(sim.net().now(), 2 * ecmp::kNeighborTimeout);

  // Queries were exchanged continuously and nothing expired: the
  // subscription and tree survive untouched.
  EXPECT_GT(sim.source_router().stats().queries_sent, 10u);
  EXPECT_TRUE(sim.source_router().on_tree(ch));
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);
}

TEST(Scale, FiveHundredReceiversEndToEnd) {
  // Smoke test at a few hundred hosts: tree builds, data fans out to
  // everyone exactly once, count is exact, teardown leaves nothing.
  sim::Rng rng(99);
  Testbed sim(workload::make_transit_stub(8, 4, 16, rng));  // 512 hosts
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(5));
  sim.source().send(ch, 1000, 1);
  sim.run_for(sim::seconds(5));
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    delivered += sim.receiver(i).stats().data_received;
  }
  EXPECT_EQ(delivered, sim.receiver_count());

  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(10),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(20));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, static_cast<std::int64_t>(sim.receiver_count()));

  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).delete_subscription(ch);
  }
  sim.run_for(sim::seconds(5));
  EXPECT_EQ(sim.total_fib_entries(), 0u);
}

TEST(Counting, LocalRangeCountsAreNotForwardedToHosts) {
  Testbed sim(make_star(2, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  const auto answered_before = sim.receiver(0).stats().queries_answered;

  // A locally-defined countId (0x1000 range) must stop at routers.
  std::optional<CountResult> result;
  sim.source_router().initiate_count(ch, 0x1234, sim::seconds(2),
                                     [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(sim.receiver(0).stats().queries_answered, answered_before);
}

}  // namespace
}  // namespace express::test
