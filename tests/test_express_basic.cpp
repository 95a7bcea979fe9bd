// Integration tests: the EXPRESS channel model end to end on small
// simulated networks — subscription builds the tree, data follows it,
// the single-source property holds, and counting aggregates correctly.
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

TEST(ExpressBasic, SubscribeThenReceive) {
  Testbed sim(make_star(4, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();

  std::vector<DeliveryLog> logs(sim.receiver_count());
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).set_data_handler(logs[i].handler());
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));

  sim.source().send(ch, 1000, /*sequence=*/1);
  sim.source().send(ch, 1000, /*sequence=*/2);
  sim.run_for(sim::seconds(1));

  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    const DeliveryLog& d = logs[i];
    ASSERT_EQ(d.size(), 2u) << "receiver " << i;
    EXPECT_EQ(d[0].sequence, 1u);
    EXPECT_EQ(d[1].sequence, 2u);
    EXPECT_EQ(d[0].channel, ch);
    EXPECT_EQ(d[0].bytes, 1000u);
  }
}

TEST(ExpressBasic, NoSubscribersNoDelivery) {
  Testbed sim(make_star(3, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.source().send(ch, 500, 1);
  sim.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    EXPECT_EQ(sim.receiver(i).stats().data_received, 0u);
  }
  // §3.4: the packet is counted and dropped at the first-hop router.
  EXPECT_EQ(sim.source_router().fib().stats().no_entry_drops, 1u);
}

TEST(ExpressBasic, OnlySubscribersReceive) {
  Testbed sim(make_star(6, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.receiver(3).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.source().send(ch, 100, 7);
  sim.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    const std::size_t expected = (i == 0 || i == 3) ? 1u : 0u;
    EXPECT_EQ(sim.receiver(i).stats().data_received, expected)
        << "receiver " << i;
    EXPECT_EQ(sim.receiver(i).stats().unwanted_data, 0u);
  }
}

TEST(ExpressBasic, UnsubscribeStopsDelivery) {
  Testbed sim(make_line(5));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.receiver(0).stats().data_received, 1u);

  sim.receiver(0).delete_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.source().send(ch, 100, 2);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);  // nothing new

  // The leave propagated: no router still carries channel state.
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    EXPECT_FALSE(sim.router(i).on_tree(ch)) << "router " << i;
    EXPECT_EQ(sim.router(i).fib().size(), 0u);
  }
}

TEST(ExpressBasic, ChannelsWithSameDestAreUnrelated) {
  // §2 / Fig. 1: (S,E) and (S',E) are different channels.
  Testbed sim(make_star(2, 1));
  ExpressHost& other_source = sim.receiver(1);  // acts as S'
  const ip::ChannelId ch{sim.source().address(), ip::Address::single_source(9)};
  const ip::ChannelId other{other_source.address(), ip::Address::single_source(9)};
  ASSERT_EQ(ch.dest, other.dest);

  DeliveryLog log;
  sim.receiver(0).set_data_handler(log.handler());
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  other_source.send(other, 100, 55);  // same E, different S
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);

  sim.source().send(ch, 100, 56);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sequence, 56u);
}

TEST(ExpressBasic, UnauthorizedSenderCannotInject) {
  // §1 problem three: a third party sending to the channel's E must not
  // reach subscribers. The injected traffic dies at the first router
  // whose FIB has no ((S'', E)) entry.
  Testbed sim(make_star(3, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < 2; ++i) sim.receiver(i).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  // receiver(2) plays the attacker: blast the Super Bowl address.
  ExpressHost& attacker = sim.receiver(2);
  const ip::ChannelId forged{attacker.address(), ch.dest};
  attacker.send(forged, 4000, 666);
  sim.run_for(sim::seconds(1));

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sim.receiver(i).stats().data_received, 0u);
    EXPECT_EQ(sim.receiver(i).stats().unwanted_data, 0u);
  }
}

TEST(ExpressBasic, JoinSplicesAtNearestOnTreeRouter) {
  // Fig. 3: a join travels only until it reaches a router already on
  // the distribution tree.
  Testbed sim(make_kary_tree(2, 3));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  const auto joins_before = sim.source_router().stats().counts_received;

  // Receiver 1 shares the depth-2 parent with receiver 0: its join must
  // splice there and never reach the root.
  sim.receiver(1).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.source_router().stats().counts_received, joins_before);

  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);
  EXPECT_EQ(sim.receiver(1).stats().data_received, 1u);
}

TEST(ExpressBasic, FibStateMatchesTreeShape) {
  // A binary tree, all 8 leaves subscribed: every router is on the tree
  // exactly once -> FIB entries == router count.
  Testbed sim(make_kary_tree(2, 3));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.total_fib_entries(), sim.router_count());
  // Without proactive counting the root holds only join-time counts
  // (here: 1 from each of its two children); the precise total comes
  // from a CountQuery (§3.1).
  EXPECT_EQ(sim.source_router().subtree_count(ch), 2);
  std::optional<CountResult> polled;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(5),
                           [&](CountResult r) { polled = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->count, static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(ExpressBasic, SubscriberCountQuery) {
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));

  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(5),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(result->count, static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(ExpressBasic, CountQueryOnEmptyChannelIsZero) {
  Testbed sim(make_star(2, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(2),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, 0);
}

TEST(ExpressBasic, AppDefinedVoteCollection) {
  // §2.2.1: an Internet TV station polls its subscribers; app-defined
  // countIds reach the applications, which may answer or abstain.
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  const ecmp::CountId vote = ecmp::kAppRangeBegin + 1;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
    if (i % 2 == 0) {
      sim.receiver(i).set_count_handler(vote, [] { return std::int64_t{1}; });
    }
    // odd receivers: no handler -> abstain.
  }
  sim.run_for(sim::seconds(1));

  std::optional<CountResult> result;
  sim.source().count_query(ch, vote, sim::seconds(5),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, 2);  // receivers 0 and 2 of 4 voted yes
}

TEST(ExpressBasic, NetworkLayerLinkCount) {
  // §3.1: a router-initiated query counting tree links; on a binary
  // tree with all 4 leaves subscribed the tree has 6 router-router
  // links + 4 host links + 1 source link is NOT counted (upstream).
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));

  std::optional<CountResult> result;
  sim.source_router().initiate_count(ch, ecmp::kLinkCountId, sim::seconds(5),
                                     [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  // Links: root->2 children (2) + 4 (depth2) + 4 host links = 10.
  EXPECT_EQ(result->count, 10);

  std::optional<CountResult> routers;
  sim.source_router().initiate_count(ch, ecmp::kRouterCountId, sim::seconds(5),
                                     [&](CountResult r) { routers = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(routers.has_value());
  EXPECT_EQ(routers->count, 7);  // 1 + 2 + 4 on-tree routers
}

TEST(ExpressBasic, SubcastReachesOnlySubtree) {
  // §2.1: the source unicasts an encapsulated packet to an on-channel
  // router, which forwards it to the downstream subscribers only.
  Testbed sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(1));

  // Router index 1 is the left depth-1 router: its subtree is
  // receivers 0 and 1 (leaves of the left half).
  ExpressRouter& mid = sim.router(1);
  ASSERT_TRUE(mid.on_tree(ch));
  sim.source().subcast(ch, sim.net().topology().address(mid.id()), 800, 99);
  sim.run_for(sim::seconds(1));

  int delivered = 0;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    delivered += static_cast<int>(sim.receiver(i).stats().data_received);
  }
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(mid.stats().subcasts_relayed, 1u);
}

TEST(ExpressBasic, SubcastFromNonSourceIsDropped) {
  Testbed sim(make_star(2, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  // receiver(1) attempts to subcast on a channel it does not own.
  ExpressHost& intruder = sim.receiver(1);
  const ip::ChannelId forged{intruder.address(), ch.dest};
  intruder.subcast(forged,
                   sim.net().topology().address(sim.source_router().id()), 800,
                   13);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);
}

TEST(ExpressBasic, ChannelAllocationIsLocalAndUnique) {
  Testbed sim(make_star(1, 1));
  std::set<ip::ChannelId> seen;
  for (int i = 0; i < 1000; ++i) {
    const ip::ChannelId ch = sim.source().allocate_channel();
    EXPECT_TRUE(ch.valid());
    EXPECT_EQ(ch.source, sim.source().address());
    EXPECT_TRUE(seen.insert(ch).second) << "duplicate at " << i;
  }
}

TEST(ExpressBasic, SourceCannotSendToForeignChannel) {
  Testbed sim(make_star(1, 1));
  const ip::ChannelId foreign{sim.receiver(0).address(),
                              ip::Address::single_source(1)};
  EXPECT_THROW(sim.source().send(foreign, 10, 1), std::logic_error);
}

TEST(ExpressBasic, MultipleLocalAppsShareOneSubscription) {
  Testbed sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.receiver(0).new_subscription(ch);  // second app on the same host
  sim.run_for(sim::seconds(1));
  // The edge router's per-interface count is exact (2 local apps);
  // without proactive counting the root holds the join-time value
  // (precise root counts come from CountQuery, §3.1).
  ExpressRouter& edge = sim.router(1);
  EXPECT_EQ(edge.subtree_count(ch), 2);
  EXPECT_EQ(sim.source_router().subtree_count(ch), 1);

  std::optional<CountResult> polled;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(2),
                           [&](CountResult r) { polled = r; });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->count, 2);

  sim.receiver(0).delete_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.source().send(ch, 10, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);  // still subscribed

  sim.receiver(0).delete_subscription(ch);
  sim.run_for(sim::seconds(1));
  EXPECT_FALSE(sim.source_router().on_tree(ch));
}

}  // namespace
}  // namespace express::test
