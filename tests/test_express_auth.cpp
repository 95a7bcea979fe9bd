// Integration tests for authenticated subscriptions (§2.1, §3.2, §3.5):
// channelKey registration, key validation up the tree, caching at
// intermediate routers, and rejection unwinding.
#include <gtest/gtest.h>

#include <optional>

#include "helpers.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_kary_tree;
using workload::make_line;
using workload::make_star;

constexpr ip::ChannelKey kGoodKey = 0xFEEDFACE12345678ULL;
constexpr ip::ChannelKey kBadKey = 0x1111111111111111ULL;

class AuthTest : public ::testing::Test {
 protected:
  AuthTest() : sim_(make_kary_tree(2, 2)) {
    channel_ = sim_.source().allocate_channel();
    sim_.source().channel_key(channel_, kGoodKey);
    sim_.run_for(sim::seconds(1));
  }
  ExpressNetwork sim_;
  ip::ChannelId channel_;
};

TEST_F(AuthTest, CorrectKeyIsAccepted) {
  std::optional<ecmp::Status> status;
  sim_.receiver(0).new_subscription(channel_, kGoodKey,
                                    [&](ecmp::Status s) { status = s; });
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kOk);

  sim_.source().send(channel_, 100, 1);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(0).stats().data_received, 1u);
}

TEST_F(AuthTest, WrongKeyIsRejectedAndNoStateRemains) {
  std::optional<ecmp::Status> status;
  sim_.receiver(0).new_subscription(channel_, kBadKey,
                                    [&](ecmp::Status s) { status = s; });
  sim_.run_for(sim::seconds(2));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kInvalidKey);
  EXPECT_FALSE(sim_.receiver(0).subscribed(channel_));

  // The tentative join unwound everywhere: no router keeps state.
  for (std::size_t i = 0; i < sim_.router_count(); ++i) {
    EXPECT_FALSE(sim_.router(i).on_tree(channel_)) << "router " << i;
  }
  sim_.source().send(channel_, 100, 1);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(0).stats().data_received, 0u);
}

TEST_F(AuthTest, MissingKeyIsRejected) {
  std::optional<ecmp::Status> status;
  sim_.receiver(1).new_subscription(channel_, std::nullopt,
                                    [&](ecmp::Status s) { status = s; });
  sim_.run_for(sim::seconds(2));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kInvalidKey);
}

TEST_F(AuthTest, ValidatedKeyIsCachedLocally) {
  // First subscriber validates against the root; a later subscriber
  // behind the same edge router is validated from the cache (§3.2:
  // "a valid key is cached so that further authenticated requests can
  // be denied or accepted locally").
  sim_.receiver(0).new_subscription(channel_, kGoodKey);
  sim_.run_for(sim::seconds(1));
  const auto root_counts = sim_.source_router().stats().counts_received;
  const auto root_responses = sim_.source_router().stats().responses_sent;

  // receiver(1) shares the depth-2 router with receiver(0).
  std::optional<ecmp::Status> status;
  sim_.receiver(1).new_subscription(channel_, kGoodKey,
                                    [&](ecmp::Status s) { status = s; });
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kOk);
  // Nothing new reached the root.
  EXPECT_EQ(sim_.source_router().stats().counts_received, root_counts);
  EXPECT_EQ(sim_.source_router().stats().responses_sent, root_responses);
}

TEST_F(AuthTest, CachedKeyRejectsBadJoinLocally) {
  sim_.receiver(0).new_subscription(channel_, kGoodKey);
  sim_.run_for(sim::seconds(1));
  const auto root_rejects = sim_.source_router().stats().auth_rejects;

  std::optional<ecmp::Status> status;
  sim_.receiver(1).new_subscription(channel_, kBadKey,
                                    [&](ecmp::Status s) { status = s; });
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kInvalidKey);
  // Rejected below the root; root never saw it.
  EXPECT_EQ(sim_.source_router().stats().auth_rejects, root_rejects);

  // The good subscriber is unaffected.
  sim_.source().send(channel_, 100, 5);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(0).stats().data_received, 1u);
  EXPECT_EQ(sim_.receiver(1).stats().data_received, 0u);
}

TEST_F(AuthTest, RejectionDoesNotDisturbValidatedSubtree) {
  // Good subscriber joins through a shared path; then a bad join from a
  // sibling must unwind only itself.
  sim_.receiver(2).new_subscription(channel_, kGoodKey);
  sim_.run_for(sim::seconds(1));
  sim_.receiver(3).new_subscription(channel_, kBadKey);
  sim_.run_for(sim::seconds(2));

  sim_.source().send(channel_, 100, 9);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(2).stats().data_received, 1u);
  EXPECT_EQ(sim_.receiver(3).stats().data_received, 0u);
}

TEST(AuthOpenChannel, KeyOnOpenChannelIsIgnored) {
  // Unauthenticated channel: a supplied key does not restrict anything.
  ExpressNetwork sim(make_star(2, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::optional<ecmp::Status> status;
  sim.receiver(0).new_subscription(ch, 0xABCDULL,
                                   [&](ecmp::Status s) { status = s; });
  sim.run_for(sim::seconds(1));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kOk);
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);
}

TEST(AuthOpenChannel, OnlySourceMayRegisterKey) {
  // A non-source host attempting channelKey() must be ignored.
  ExpressNetwork sim(make_star(2, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  // receiver(1) tries to hijack the channel by registering a key for it.
  sim.receiver(1).channel_key(ch, kBadKey);
  sim.run_for(sim::seconds(1));

  // Keyless subscription still works: no key was actually registered.
  std::optional<ecmp::Status> status;
  sim.receiver(0).new_subscription(ch, std::nullopt,
                                   [&](ecmp::Status s) { status = s; });
  sim.run_for(sim::seconds(1));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kOk);
}

TEST_F(AuthTest, SimultaneousMixedKeyJoinsSortCorrectly) {
  // Regression: a keyed and a keyless join race through the same edge
  // router before any validation returns. The upstream verdict applies
  // only to the key the router forwarded; the other join must get its
  // own verdict — good keys accepted, missing/bad keys rejected,
  // regardless of arrival order.
  std::optional<ecmp::Status> good, freeload, bad;
  sim_.receiver(0).new_subscription(channel_, kGoodKey,
                                    [&](ecmp::Status s) { good = s; });
  sim_.receiver(1).new_subscription(channel_, std::nullopt,
                                    [&](ecmp::Status s) { freeload = s; });
  sim_.receiver(2).new_subscription(channel_, kBadKey,
                                    [&](ecmp::Status s) { bad = s; });
  sim_.run_for(sim::seconds(3));
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(freeload.has_value());
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*good, ecmp::Status::kOk);
  EXPECT_EQ(*freeload, ecmp::Status::kInvalidKey);
  EXPECT_EQ(*bad, ecmp::Status::kInvalidKey);

  sim_.source().send(channel_, 100, 1);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sim_.receiver(0).stats().data_received, 1u);
  EXPECT_EQ(sim_.receiver(1).stats().data_received, 0u);
  EXPECT_EQ(sim_.receiver(2).stats().data_received, 0u);
}

TEST(AuthProactive, ProactiveUpdatesCarryTheCachedKey) {
  // Regression: with proactive counting enabled on an authenticated
  // channel, aggregate updates flowing upstream must not be rejected
  // (they ride the validated session / carry the cached key).
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, 5.0, 4.0};
  ExpressNetwork sim(make_kary_tree(2, 2), config);
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.source().channel_key(ch, kGoodKey);
  sim.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch, kGoodKey);
  }
  sim.run_for(sim::seconds(10));  // proactive convergence window
  std::uint64_t rejects = 0;
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    rejects += sim.router(i).stats().auth_rejects;
  }
  EXPECT_EQ(rejects, 0u);
  EXPECT_EQ(sim.source_router().subtree_count(ch),
            static_cast<std::int64_t>(sim.receiver_count()));
}

TEST(AuthDeepTree, ValidationTraversesLongPath) {
  // On a 10-router line, the join carries the key all the way to the
  // root and the kOk flows all the way back.
  ExpressNetwork sim(make_line(10));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.source().channel_key(ch, kGoodKey);
  sim.run_for(sim::seconds(1));

  std::optional<ecmp::Status> status;
  sim.receiver(0).new_subscription(ch, kGoodKey,
                                   [&](ecmp::Status s) { status = s; });
  sim.run_for(sim::seconds(2));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ecmp::Status::kOk);
  sim.source().send(ch, 64, 3);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 1u);
}

}  // namespace
}  // namespace express::test
