// Unit tests for the count-aggregation engine (§3.1): per-hop timeout
// decrement, inline resolution, child aggregation, and the partial
// replies produced by a round that times out — all against a bare
// scheduler, no network.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "express/counting_engine.hpp"
#include "sim/scheduler.hpp"

namespace express {
namespace {

const ip::ChannelId kCh{ip::Address(10, 0, 0, 1),
                        ip::Address::single_source(1)};
constexpr net::NodeId kParent = 5;

struct Reply {
  net::NodeId requester;
  std::int64_t sum;
  std::uint32_t query_seq;
  ip::ChannelId channel;
  ecmp::CountId count_id;
};

/// A CountingEngine wired to a recording reply callback.
struct Harness {
  Harness()
      : engine(scheduler,
               [this](net::NodeId requester, const ip::ChannelId& channel,
                      ecmp::CountId count_id, std::int64_t sum,
                      std::uint32_t query_seq) {
                 replies.push_back(
                     {requester, sum, query_seq, channel, count_id});
               }) {}

  sim::Scheduler scheduler;
  std::vector<Reply> replies;
  CountingEngine engine;
};

TEST(CountingEngine, TimeoutDecrementClampsAtFloor) {
  // Normal case: subtract rtt_multiple RTTs.
  EXPECT_EQ(CountingEngine::decremented_timeout(
                sim::seconds(1), sim::milliseconds(10), 2.0),
            sim::milliseconds(980));
  // Deep trees or slow links would drive the budget negative: the 10 ms
  // floor keeps every hop a chance to answer.
  EXPECT_EQ(CountingEngine::decremented_timeout(
                sim::milliseconds(12), sim::milliseconds(10), 2.0),
            sim::milliseconds(10));
  EXPECT_EQ(CountingEngine::decremented_timeout(
                sim::milliseconds(5), sim::milliseconds(100), 2.0),
            sim::milliseconds(10));
}

TEST(CountingEngine, NoChildrenResolvesInline) {
  Harness h;
  std::optional<CountResult> result;
  EXPECT_FALSE(h.engine.start_round(kCh, ecmp::kSubscriberId, sim::seconds(1),
                                    std::nullopt, 1, /*local=*/7,
                                    /*children=*/0,
                                    [&](CountResult r) { result = r; }));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, 7);
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(h.engine.pending_rounds(), 0u);

  // With an upstream requester the inline reply goes there instead.
  EXPECT_FALSE(h.engine.start_round(kCh, ecmp::kSubscriberId, sim::seconds(1),
                                    kParent, 2, 3, 0, nullptr));
  ASSERT_EQ(h.replies.size(), 1u);
  EXPECT_EQ(h.replies[0].requester, kParent);
  EXPECT_EQ(h.replies[0].sum, 3);
  EXPECT_EQ(h.replies[0].query_seq, 2u);
}

TEST(CountingEngine, AbsorbingAllChildrenCompletesTheRound) {
  Harness h;
  ASSERT_TRUE(h.engine.start_round(kCh, ecmp::kSubscriberId, sim::seconds(1),
                                   kParent, 9, /*local=*/1, /*children=*/2,
                                   nullptr));
  EXPECT_EQ(h.engine.pending_rounds(), 1u);
  EXPECT_TRUE(h.engine.absorb(kCh, ecmp::kSubscriberId, 9, 10));
  EXPECT_TRUE(h.replies.empty());  // one child still outstanding
  EXPECT_TRUE(h.engine.absorb(kCh, ecmp::kSubscriberId, 9, 100));

  ASSERT_EQ(h.replies.size(), 1u);
  EXPECT_EQ(h.replies[0].sum, 111);
  EXPECT_EQ(h.engine.pending_rounds(), 0u);
  EXPECT_EQ(h.engine.stats().rounds_completed, 1u);
  EXPECT_EQ(h.engine.stats().rounds_timed_out, 0u);
}

TEST(CountingEngine, TimeoutProducesPartialSumAndRejectsLateReplies) {
  Harness h;
  std::optional<CountResult> result;
  ASSERT_TRUE(h.engine.start_round(kCh, ecmp::kSubscriberId,
                                   sim::milliseconds(100), std::nullopt, 9,
                                   /*local=*/1, /*children=*/2,
                                   [&](CountResult r) { result = r; }));
  EXPECT_TRUE(h.engine.absorb(kCh, ecmp::kSubscriberId, 9, 10));

  // The second child never answers: the timer fires a partial result.
  h.scheduler.run_until(sim::Time{} + sim::seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, 11);
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(h.engine.stats().rounds_timed_out, 1u);

  // A straggler reply after the timeout finds no round to join.
  EXPECT_FALSE(h.engine.absorb(kCh, ecmp::kSubscriberId, 9, 100));
  EXPECT_EQ(h.engine.pending_rounds(), 0u);
}

TEST(CountingEngine, DistinctSequencesAreIndependentRounds) {
  Harness h;
  ASSERT_TRUE(h.engine.start_round(kCh, ecmp::kSubscriberId, sim::seconds(1),
                                   kParent, 1, 0, 1, nullptr));
  ASSERT_TRUE(h.engine.start_round(kCh, ecmp::kSubscriberId, sim::seconds(1),
                                   kParent, 2, 0, 1, nullptr));
  EXPECT_EQ(h.engine.pending_rounds(), 2u);
  EXPECT_TRUE(h.engine.absorb(kCh, ecmp::kSubscriberId, 2, 42));
  ASSERT_EQ(h.replies.size(), 1u);
  EXPECT_EQ(h.replies[0].query_seq, 2u);
  EXPECT_EQ(h.replies[0].sum, 42);
  EXPECT_EQ(h.engine.pending_rounds(), 1u);

  // Concurrent rounds on two channels and two count ids that share one
  // query sequence are four rounds, each answered with its own sum.
  const ip::ChannelId other{ip::Address(10, 0, 0, 2),
                            ip::Address::single_source(1)};
  const ip::ChannelId channels[] = {kCh, other};
  const ecmp::CountId ids[] = {ecmp::kSubscriberId, ecmp::kLinkCountId};
  for (const auto& channel : channels) {
    for (const ecmp::CountId id : ids) {
      ASSERT_TRUE(h.engine.start_round(channel, id, sim::seconds(1), kParent,
                                       7, 0, 1, nullptr));
    }
  }
  EXPECT_EQ(h.engine.pending_rounds(), 5u);
  std::int64_t value = 100;
  for (const auto& channel : channels) {
    for (const ecmp::CountId id : ids) {
      EXPECT_TRUE(h.engine.absorb(channel, id, 7, value));
      const Reply& reply = h.replies.back();
      EXPECT_EQ(reply.channel, channel);
      EXPECT_EQ(reply.count_id, id);
      EXPECT_EQ(reply.query_seq, 7u);
      EXPECT_EQ(reply.sum, value);
      ++value;
    }
  }
  EXPECT_EQ(h.replies.size(), 5u);
  EXPECT_EQ(h.engine.pending_rounds(), 1u);
}

TEST(CountingEngine, RoundsWithEqualMixedWordsStayApart) {
  // Two channels whose hashes agree in their top 16 bits. A round key
  // mixed from hash(channel) ^ (countId << 32) ^ seq gives them one slot
  // once the count id and sequence absorb the remaining 48 differing
  // bits; the second start_round then overwrote the first round.
  const ip::Address src(10, 0, 0, 1);
  std::unordered_map<std::uint64_t, std::uint32_t> by_top;
  ip::ChannelId a = kCh;
  ip::ChannelId b = kCh;
  for (std::uint32_t e = 1;; ++e) {
    const ip::ChannelId c{src, ip::Address::single_source(e)};
    const auto [it, fresh] =
        by_top.emplace(std::hash<ip::ChannelId>{}(c) >> 48, e);
    if (!fresh) {
      a = {src, ip::Address::single_source(it->second)};
      b = c;
      break;
    }
  }
  const std::uint64_t diff =
      std::hash<ip::ChannelId>{}(a) ^ std::hash<ip::ChannelId>{}(b);
  const ecmp::CountId id_a = ecmp::kSubscriberId;
  const auto id_b = static_cast<ecmp::CountId>(id_a ^ (diff >> 32));
  const std::uint32_t seq_a = 1;
  const auto seq_b = static_cast<std::uint32_t>(seq_a ^ diff);

  Harness h;
  ASSERT_TRUE(h.engine.start_round(a, id_a, sim::seconds(1), kParent, seq_a,
                                   10, 1, nullptr));
  ASSERT_TRUE(h.engine.start_round(b, id_b, sim::seconds(1), kParent, seq_b,
                                   20, 1, nullptr));
  EXPECT_EQ(h.engine.pending_rounds(), 2u);
  EXPECT_TRUE(h.engine.absorb(a, id_a, seq_a, 1));
  ASSERT_EQ(h.replies.size(), 1u);
  EXPECT_EQ(h.replies[0].channel, a);
  EXPECT_EQ(h.replies[0].sum, 11);
  // The surviving round times out on its own timer with its own sum.
  h.scheduler.run_until(sim::Time{} + sim::seconds(2));
  ASSERT_EQ(h.replies.size(), 2u);
  EXPECT_EQ(h.replies[1].channel, b);
  EXPECT_EQ(h.replies[1].count_id, id_b);
  EXPECT_EQ(h.replies[1].query_seq, seq_b);
  EXPECT_EQ(h.replies[1].sum, 20);
}

}  // namespace
}  // namespace express
