// Proactive counting end to end (§6): routers push Count updates
// upstream per the error-tolerance curve, so the root's estimate tracks
// the true membership without polling.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_kary_tree;

RouterConfig proactive_config(double alpha, double tau_seconds = 5.0) {
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, tau_seconds, alpha};
  return config;
}

// While the upstream has not validated a router's join, drift is held
// and re-checked every 100 ms; the first recheck after the verdict
// sends it. A router without a curve keeps no proactive record and
// never pushes drift, and tearing a channel down cancels its recheck.
TEST(Proactive, HoldsUntilValidatedThenRechecks) {
  // Source router -> leaf router with two hosts; the 200 ms link delays
  // the verdict on the leaf's join until ~400 ms.
  workload::LinkParams slow;
  slow.core_delay = sim::milliseconds(200);
  ExpressNetwork sim(make_kary_tree(1, 1, slow, 2), proactive_config(4.0));
  ExpressRouter& leaf = sim.router(1);
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.receiver(1).new_subscription(ch);
  sim.run_for(sim::milliseconds(50));

  // Unvalidated upstream: the drift (2 members, 1 advertised) is not
  // sent now; a recheck is armed instead.
  const Channel* state = leaf.subscriptions().find(ch);
  ASSERT_NE(state, nullptr);
  ASSERT_NE(state->proactive, nullptr);
  EXPECT_FALSE(state->validated_upstream);
  EXPECT_TRUE(state->proactive->recheck.pending());
  EXPECT_EQ(leaf.counting_stats().proactive_updates_sent, 0u);
  sim.run_for(sim::seconds(1));
  EXPECT_TRUE(state->validated_upstream);
  EXPECT_EQ(leaf.counting_stats().proactive_updates_sent, 1u);
  EXPECT_EQ(sim.source_router().subtree_count(ch), 2);

  // A router without proactive state never pushes the drift: the root
  // keeps the join's count.
  ExpressNetwork plain(make_kary_tree(1, 1, slow, 2));
  const ip::ChannelId plain_ch = plain.source().allocate_channel();
  plain.receiver(0).new_subscription(plain_ch);
  plain.receiver(1).new_subscription(plain_ch);
  plain.run_for(sim::seconds(2));
  const Channel* plain_state = plain.router(1).subscriptions().find(plain_ch);
  ASSERT_NE(plain_state, nullptr);
  EXPECT_EQ(plain_state->proactive, nullptr);
  EXPECT_EQ(plain.router(1).counting_stats().proactive_updates_sent, 0u);
  EXPECT_EQ(plain.source_router().subtree_count(plain_ch), 1);

  // Teardown cancels the recheck timer: on a fresh channel whose drift
  // is held, the step that removes it cancels exactly that one timer.
  const ip::ChannelId held = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(held);
  sim.receiver(1).new_subscription(held);
  sim.run_for(sim::milliseconds(50));
  const Channel* held_state = leaf.subscriptions().find(held);
  ASSERT_NE(held_state, nullptr);
  ASSERT_TRUE(held_state->proactive->recheck.pending());
  sim.receiver(0).delete_subscription(held);
  sim.receiver(1).delete_subscription(held);
  EXPECT_EQ(cancelled_by_teardown(sim.net(), leaf, held), 1u);
  EXPECT_FALSE(leaf.on_tree(held));
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(leaf.counting_stats().proactive_updates_sent, 1u);
}

TEST(Proactive, RootConvergesWithinTau) {
  ExpressNetwork sim(make_kary_tree(2, 3), proactive_config(4.0));
  const ip::ChannelId ch = sim.source().allocate_channel();
  // Staggered joins: 8 receivers, one every 100 ms.
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.net().scheduler().schedule_at(
        sim::milliseconds(static_cast<std::int64_t>(100 * i)),
        [&sim, &ch, i]() { sim.receiver(i).new_subscription(ch); });
  }
  sim.run_for(sim::seconds(1));
  // After a quiet period of at least tau, every pending drift has been
  // flushed: the root's estimate equals the true membership.
  sim.run_for(sim::seconds(6));
  EXPECT_EQ(sim.source_router().subtree_count(ch),
            static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(Proactive, TracksDeparturesToo) {
  ExpressNetwork sim(make_kary_tree(2, 3), proactive_config(4.0));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(7));
  ASSERT_EQ(sim.source_router().subtree_count(ch), 8);

  for (std::size_t i = 0; i < 5; ++i) {
    sim.receiver(i).delete_subscription(ch);
  }
  sim.run_for(sim::seconds(7));
  EXPECT_EQ(sim.source_router().subtree_count(ch), 3);
}

TEST(Proactive, LargeChangesPropagateQuickly) {
  // A burst that doubles the membership exceeds e_max and must reach
  // the root in network time, not curve time.
  ExpressNetwork sim(make_kary_tree(2, 3), proactive_config(4.0, 60.0));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.source_router().subtree_count(ch), 1);

  for (std::size_t i = 1; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  // Well under tau = 60 s, yet the estimate is already close: every
  // router saw a > e_max relative jump and pushed immediately.
  sim.run_for(sim::seconds(2));
  EXPECT_GE(sim.source_router().subtree_count(ch), 6);
}

TEST(Proactive, TighterAlphaSendsMoreUpdates) {
  // Fig. 8's tradeoff: alpha = 4 tracks more closely and costs more
  // messages than alpha = 2.5 on the same workload.
  auto run = [](double alpha) {
    ExpressNetwork sim(make_kary_tree(2, 3), proactive_config(alpha, 30.0));
    const ip::ChannelId ch = sim.source().allocate_channel();
    sim::Rng rng(99);
    // Slow trickle of many small changes (25 app-level subscriptions
    // per host) so relative errors stay below e_max and the curve, not
    // the immediate-send path, governs.
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      for (int k = 0; k < 25; ++k) {
        const auto join_at = sim::seconds_f(rng.uniform() * 60);
        const auto leave_at = sim::seconds_f(60 + rng.uniform() * 60);
        sim.net().scheduler().schedule_at(join_at, [&sim, &ch, i]() {
          sim.receiver(i).new_subscription(ch);
        });
        sim.net().scheduler().schedule_at(leave_at, [&sim, &ch, i]() {
          sim.receiver(i).delete_subscription(ch);
        });
      }
    }
    sim.run_for(sim::seconds(150));
    std::uint64_t updates = 0;
    for (std::size_t i = 0; i < sim.router_count(); ++i) {
      updates += sim.router(i).stats().proactive_updates_sent;
    }
    return updates;
  };
  const std::uint64_t tight = run(4.0);
  const std::uint64_t loose = run(2.5);
  EXPECT_GT(tight, loose);
}

TEST(Proactive, QuiescentChannelSendsNothing) {
  ExpressNetwork sim(make_kary_tree(2, 2), proactive_config(4.0));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(10));  // converged and quiet
  std::uint64_t counts_before = 0;
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    counts_before += sim.router(i).stats().counts_sent;
  }
  sim.run_for(sim::seconds(60));  // long quiet period
  std::uint64_t counts_after = 0;
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    counts_after += sim.router(i).stats().counts_sent;
  }
  // No drift -> no proactive traffic at all.
  EXPECT_EQ(counts_after, counts_before);
}

}  // namespace
}  // namespace express::test
