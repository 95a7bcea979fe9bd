// Unit tests for the subscription hard state (§3.2, §3.5): membership
// transitions, upstream join/prune planning, and the K(S,E)
// authentication cache — all exercised without a running simulation,
// which is the point of the module seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "express/subscription.hpp"
#include "net/network.hpp"

namespace express {
namespace {

const ip::ChannelId kCh{ip::Address(10, 0, 0, 1),
                        ip::Address::single_source(1)};
constexpr ip::ChannelKey kKeyA = 0xAAAA;
constexpr ip::ChannelKey kKeyB = 0xBBBB;
constexpr ip::ChannelKey kKeyC = 0xCCCC;
constexpr net::NodeId kChild1 = 11;
constexpr net::NodeId kChild2 = 12;
constexpr net::NodeId kUpstream = 20;

TEST(Subscription, JoinAndLeaveLifecycle) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  EXPECT_TRUE(created);

  bool is_new = false;
  table.apply_join(state, kChild1, 3, std::nullopt, /*decidable=*/true,
                   sim::Time{0}, is_new);
  EXPECT_TRUE(is_new);
  EXPECT_EQ(table.subtree_count(kCh), 3);
  EXPECT_EQ(table.stats().subscribe_events, 1u);

  // A count update on the same session is not a new subscribe event.
  table.apply_join(state, kChild1, 5, std::nullopt, true, sim::Time{0}, is_new);
  EXPECT_FALSE(is_new);
  EXPECT_EQ(table.subtree_count(kCh), 5);
  EXPECT_EQ(table.stats().subscribe_events, 1u);

  EXPECT_TRUE(table.remove_downstream(state, kChild1));
  EXPECT_FALSE(table.remove_downstream(state, kChild1));
  EXPECT_EQ(table.stats().unsubscribe_events, 1u);
  EXPECT_EQ(table.subtree_count(kCh), 0);
}

TEST(Subscription, RegisteredKeyDecidesLocally) {
  SubscriptionTable table;
  table.register_key(kCh, kKeyA);
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);

  bool decidable = false;
  EXPECT_TRUE(table.key_acceptable(kCh, state, kKeyA, /*at_root=*/true,
                                   decidable));
  EXPECT_TRUE(decidable);
  EXPECT_FALSE(table.key_acceptable(kCh, state, kKeyB, true, decidable));
  EXPECT_TRUE(decidable);
  EXPECT_FALSE(table.key_acceptable(kCh, state, std::nullopt, true, decidable));

  // A locally decided rejection on a just-created channel removes it.
  table.reject_join(kCh, /*created=*/true);
  EXPECT_FALSE(table.contains(kCh));
  EXPECT_EQ(table.stats().auth_rejects, 1u);
}

TEST(Subscription, ValidatedKeyIsCachedThenEvictedWithChannel) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);

  // Not at the root and nothing cached: the join is tentatively
  // accepted and must go upstream carrying its key.
  bool decidable = true;
  EXPECT_TRUE(table.key_acceptable(kCh, state, kKeyA, /*at_root=*/false,
                                   decidable));
  EXPECT_FALSE(decidable);
  bool is_new = false;
  table.apply_join(state, kChild1, 1, kKeyA, decidable, sim::Time{0}, is_new);

  const UpstreamPlan plan = table.plan_upstream_update(
      state, kKeyA, /*upstream_is_router=*/true);
  EXPECT_EQ(plan.send, UpstreamSend::kJoin);
  ASSERT_TRUE(plan.key.has_value());
  EXPECT_EQ(*plan.key, kKeyA);

  // The upstream accepts: the forwarded key becomes the cached K(S,E)
  // and the pending child is acknowledged.
  const VerdictEffects ok = table.apply_upstream_verdict(kCh, true);
  ASSERT_EQ(ok.accept.size(), 1u);
  EXPECT_EQ(ok.accept[0], kChild1);
  ASSERT_TRUE(state.cached_key.has_value());
  EXPECT_EQ(*state.cached_key, kKeyA);

  // Subsequent joins validate against the cache, locally.
  EXPECT_TRUE(table.key_acceptable(kCh, state, kKeyA, false, decidable));
  EXPECT_TRUE(decidable);
  EXPECT_FALSE(table.key_acceptable(kCh, state, kKeyB, false, decidable));
  EXPECT_TRUE(decidable);

  // Channel teardown evicts the cached key: a re-created channel starts
  // undecided again (the cache never outlives the hard state, §3.5).
  table.erase(kCh);
  Channel& fresh = table.get_or_create(kCh, created);
  EXPECT_TRUE(created);
  EXPECT_FALSE(fresh.cached_key.has_value());
  EXPECT_TRUE(table.key_acceptable(kCh, fresh, kKeyB, false, decidable));
  EXPECT_FALSE(decidable);
}

TEST(Subscription, InvalidVerdictRejectsSentKeyAndRetriesOther) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  state.upstream = kUpstream;

  bool is_new = false;
  table.apply_join(state, kChild1, 1, kKeyA, /*decidable=*/false, sim::Time{0},
                   is_new);
  // The plan itself is not under test here; the call runs for its
  // side effect of recording pending_sent_key = A.
  const UpstreamPlan sent = table.plan_upstream_update(state, kKeyA, true);
  EXPECT_EQ(sent.send, UpstreamSend::kJoin);
  table.apply_join(state, kChild2, 1, kKeyB, false, sim::Time{0}, is_new);

  // Upstream rejects key A: only the child that presented A is evicted;
  // the other key deserves its own upstream attempt.
  const VerdictEffects fx = table.apply_upstream_verdict(kCh, false);
  ASSERT_EQ(fx.reject.size(), 1u);
  EXPECT_EQ(fx.reject[0], kChild1);
  EXPECT_TRUE(fx.membership_changed);
  EXPECT_FALSE(fx.channel_gone);
  ASSERT_TRUE(fx.rejoin);
  ASSERT_TRUE(fx.rejoin_key.has_value());
  EXPECT_EQ(*fx.rejoin_key, kKeyB);
  EXPECT_EQ(state.advertised_upstream, 0);
  EXPECT_EQ(table.stats().auth_rejects, 1u);

  // A second rejection (of key B) empties the channel.
  const UpstreamPlan retry = table.plan_upstream_update(state, kKeyB, true);
  EXPECT_EQ(retry.send, UpstreamSend::kJoin);
  const VerdictEffects gone = table.apply_upstream_verdict(kCh, false);
  ASSERT_EQ(gone.reject.size(), 1u);
  EXPECT_EQ(gone.reject[0], kChild2);
  EXPECT_TRUE(gone.channel_gone);
  EXPECT_FALSE(gone.rejoin);
}

TEST(Subscription, VerdictEffectsEmitInNeighborIdOrder) {
  // Regression for the hash-order bug the determinism sweep fixed:
  // downstream used to be an unordered_map, so the kOk / kInvalidKey
  // message order (and thus the packet trace) depended on the hash seed
  // and insertion history. With the ordered map, both lists come out
  // ascending by neighbor id no matter how the children joined.
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  state.upstream = kUpstream;

  // Children join in scrambled id order, alternating keys.
  bool is_new = false;
  table.apply_join(state, 15, 1, kKeyB, /*decidable=*/false, sim::Time{0},
                   is_new);
  table.apply_join(state, 13, 1, kKeyA, false, sim::Time{0}, is_new);
  table.apply_join(state, 14, 1, kKeyB, false, sim::Time{0}, is_new);
  table.apply_join(state, 12, 1, kKeyA, false, sim::Time{0}, is_new);
  const UpstreamPlan plan = table.plan_upstream_update(state, kKeyA, true);
  EXPECT_EQ(plan.send, UpstreamSend::kJoin);  // pending_sent_key is now A

  // The upstream accepts key A: the A-children validate, the B-children
  // are rejected against the fresh cache — each list in id order.
  const VerdictEffects fx = table.apply_upstream_verdict(kCh, true);
  EXPECT_EQ(fx.accept, (std::vector<net::NodeId>{12, 13}));
  EXPECT_EQ(fx.reject, (std::vector<net::NodeId>{14, 15}));
}

TEST(Subscription, RejectedVerdictRetriesLowestIdChildsKey) {
  // Same regression class, rejection path: when several unvalidated
  // keys remain after a rejection, the retry key used to be whichever
  // entry the hash map yielded first. It must be the lowest-id child's.
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  state.upstream = kUpstream;

  bool is_new = false;
  table.apply_join(state, 15, 1, kKeyB, /*decidable=*/false, sim::Time{0},
                   is_new);
  table.apply_join(state, 12, 1, kKeyC, false, sim::Time{0}, is_new);
  table.apply_join(state, 13, 1, kKeyA, false, sim::Time{0}, is_new);
  const UpstreamPlan plan = table.plan_upstream_update(state, kKeyA, true);
  EXPECT_EQ(plan.send, UpstreamSend::kJoin);

  const VerdictEffects fx = table.apply_upstream_verdict(kCh, false);
  EXPECT_EQ(fx.reject, (std::vector<net::NodeId>{13}));
  ASSERT_TRUE(fx.rejoin);
  ASSERT_TRUE(fx.rejoin_key.has_value());
  EXPECT_EQ(*fx.rejoin_key, kKeyC);  // child 12's key, not hash order
}

TEST(Subscription, PlanJoinPruneAndDrift) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  state.upstream = kUpstream;

  bool is_new = false;
  table.apply_join(state, kChild1, 2, std::nullopt, true, sim::Time{0}, is_new);
  UpstreamPlan plan = table.plan_upstream_update(state, std::nullopt, true);
  EXPECT_EQ(plan.send, UpstreamSend::kJoin);
  EXPECT_EQ(plan.total, 2);
  EXPECT_EQ(state.advertised_upstream, 2);
  EXPECT_EQ(table.stats().joins_sent, 1u);

  // The aggregate moves without crossing zero: drift, not join/prune.
  table.apply_join(state, kChild1, 4, std::nullopt, true, sim::Time{0}, is_new);
  plan = table.plan_upstream_update(state, std::nullopt, true);
  EXPECT_EQ(plan.send, UpstreamSend::kDrift);
  EXPECT_FALSE(plan.remove_channel);

  table.remove_downstream(state, kChild1);
  plan = table.plan_upstream_update(state, std::nullopt, true);
  EXPECT_EQ(plan.send, UpstreamSend::kPrune);
  EXPECT_TRUE(plan.remove_channel);
  EXPECT_EQ(state.advertised_upstream, 0);
  EXPECT_EQ(table.stats().prunes_sent, 1u);
}

TEST(Subscription, RootPlanNeverSendsUpstream) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);

  bool is_new = false;
  table.apply_join(state, kChild1, 1, std::nullopt, true, sim::Time{0}, is_new);
  UpstreamPlan plan = table.plan_upstream_update(
      state, std::nullopt, /*upstream_is_router=*/false);
  EXPECT_EQ(plan.send, UpstreamSend::kNone);
  EXPECT_TRUE(state.validated_upstream);
  EXPECT_FALSE(plan.remove_channel);

  table.remove_downstream(state, kChild1);
  plan = table.plan_upstream_update(state, std::nullopt, false);
  EXPECT_TRUE(plan.remove_channel);
}

TEST(Subscription, RefreshFastPathOnlyForValidatedSessions) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);

  EXPECT_FALSE(table.refresh_existing(state, kChild1, 2, sim::Time{0}));

  bool is_new = false;
  DownstreamEntry& entry = table.apply_join(state, kChild1, 1, std::nullopt,
                                            /*decidable=*/false, sim::Time{0},
                                            is_new);
  // Unvalidated entries must take the slow (re-validating) path.
  EXPECT_FALSE(table.refresh_existing(state, kChild1, 2, sim::Time{0}));
  entry.validated = true;
  EXPECT_TRUE(table.refresh_existing(state, kChild1, 2, sim::Time{0}));
  EXPECT_EQ(table.subtree_count(kCh), 2);
}

TEST(Subscription, ManagementStateAccounting) {
  SubscriptionTable table;
  bool created = false;
  Channel& state = table.get_or_create(kCh, created);
  bool is_new = false;
  table.apply_join(state, kChild1, 1, std::nullopt, true, sim::Time{0}, is_new);
  // One downstream record + the upstream record = 64 bytes (§5.2).
  EXPECT_EQ(table.management_state_bytes(), 64u);
  state.cached_key = kKeyA;
  EXPECT_EQ(table.management_state_bytes(), 72u);
  table.register_key(kCh, kKeyA);
  EXPECT_EQ(table.management_state_bytes(), 80u);
}

/// channel_n(1) < channel_n(2) < ...: one source, ascending channels.
ip::ChannelId channel_n(std::uint32_t n) {
  return ip::ChannelId{ip::Address(10, 0, 0, 1),
                       ip::Address::single_source(n)};
}

/// A router (node 0) with one point-to-point child (node 1) holding a
/// downstream entry on channels 3, 4, 1, 2, 5, 6, created in that
/// order: neither creation order nor its reverse (libstdc++'s hash-map
/// iteration order for a table this small) is ascending, nor is either
/// one's odd or even subsequence.
struct SweepFixture {
  net::Network network{[] {
    net::Topology topo;
    topo.add_link(topo.add_router(), topo.add_router());
    return topo;
  }()};
  SubscriptionTable table;
  static constexpr net::NodeId kSelf = 0;
  static constexpr net::NodeId kChild = 1;

  /// `stale` channels were last refreshed at time 0, the others at 10 s.
  explicit SweepFixture(const std::vector<std::uint32_t>& stale = {}) {
    for (const std::uint32_t n : {3U, 4U, 1U, 2U, 5U, 6U}) {
      bool created = false;
      Channel& state = table.get_or_create(channel_n(n), created);
      const bool is_stale =
          std::find(stale.begin(), stale.end(), n) != stale.end();
      bool is_new = false;
      table.apply_join(state, kChild, 1, std::nullopt, /*decidable=*/true,
                       is_stale ? sim::Time{0} : sim::seconds(10), is_new);
    }
  }
};

TEST(Subscription, DeadChildrenComeOutInChannelOrder) {
  SweepFixture fx;
  fx.network.set_link_up(0, false);
  const auto dead =
      fx.table.collect_dead_children(fx.network.topology(), fx.kSelf);
  std::vector<std::pair<ip::ChannelId, net::NodeId>> want;
  for (std::uint32_t n = 1; n <= 6; ++n) {
    want.emplace_back(channel_n(n), fx.kChild);
  }
  EXPECT_EQ(dead, want);
}

TEST(Subscription, UdpRefreshActionsComeOutInChannelOrder) {
  // The even channels outlived their lifetime: queries for the live
  // ones first, then the expirations, each group ascending by channel.
  SweepFixture fx({2, 4, 6});
  const auto actions = fx.table.udp_refresh_actions(
      fx.network.topology(), fx.kSelf, sim::seconds(12), sim::seconds(5),
      [](std::uint32_t) { return true; });
  ASSERT_EQ(actions.size(), 6u);
  const std::vector<std::pair<UdpAction::Kind, std::uint32_t>> want{
      {UdpAction::Kind::kUnicastQuery, 1}, {UdpAction::Kind::kUnicastQuery, 3},
      {UdpAction::Kind::kUnicastQuery, 5}, {UdpAction::Kind::kExpire, 2},
      {UdpAction::Kind::kExpire, 4},       {UdpAction::Kind::kExpire, 6}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(actions[i].kind, want[i].first) << i;
    EXPECT_EQ(actions[i].channel, channel_n(want[i].second)) << i;
    EXPECT_EQ(actions[i].neighbor, fx.kChild) << i;
  }
}

}  // namespace
}  // namespace express
