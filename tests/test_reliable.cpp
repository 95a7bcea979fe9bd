// Reliable block distribution (src/reliable): NACK counting through the
// routers, channel-wide and subcast repair, completion invariants.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "helpers.hpp"
#include "net/impairment.hpp"
#include "relay/session_relay.hpp"
#include "reliable/publisher.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using reliable::CompletionReport;
using reliable::Publisher;
using reliable::PublisherConfig;
using reliable::RepairReport;
using reliable::Subscriber;
using workload::make_kary_tree;

/// Bernoulli impairment on every receiver's drop cable.
void impair_receiver_links(ExpressNetwork& sim, double p,
                           std::uint64_t seed) {
  net::ImpairmentConfig lossy;
  lossy.loss.kind = net::LossModel::Kind::kBernoulli;
  lossy.loss.p = p;
  sim.net().seed_impairments(seed);
  for (net::NodeId host : sim.roles().receiver_hosts) {
    sim.net().set_link_impairments(
        sim.net().topology().node(host).interfaces.at(0), lossy);
  }
}

TEST(Reliable, LosslessRunNeedsNoRepairs) {
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Publisher publisher(sim.source(), ch);
  std::vector<std::unique_ptr<Subscriber>> subs;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    subs.push_back(std::make_unique<Subscriber>(sim.receiver(i), ch, 10));
  }
  sim.run_for(sim::seconds(1));
  publisher.publish(10);
  sim.run_for(sim::seconds(1));

  std::optional<RepairReport> report;
  publisher.run_repair_round([&](RepairReport r) { report = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->blocks_missing.empty());
  EXPECT_EQ(report->total_nacks, 0);
  EXPECT_EQ(publisher.retransmissions(), 0u);
  for (const auto& s : subs) {
    EXPECT_TRUE(s->complete());
  }
}

TEST(Reliable, LateJoinerIsRepairedByRetransmission) {
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Publisher publisher(sim.source(), ch);
  Subscriber early(sim.receiver(0), ch, 8);
  sim.run_for(sim::seconds(1));
  publisher.publish(8);
  sim.run_for(sim::seconds(1));

  // A subscriber appearing after all transmissions missed everything.
  Subscriber late(sim.receiver(3), ch, 8);
  sim.run_for(sim::seconds(1));
  EXPECT_TRUE(early.complete());
  EXPECT_FALSE(late.complete());
  EXPECT_EQ(late.missing().size(), 8u);

  std::optional<RepairReport> report;
  publisher.run_repair_round([&](RepairReport r) { report = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->blocks_missing.size(), 8u);
  EXPECT_EQ(report->total_nacks, 8);
  EXPECT_TRUE(late.complete());
  EXPECT_TRUE(early.complete());
}

TEST(Reliable, SubcastRepairSparesCompleteSubtrees) {
  // Late joiners all sit under the last leaf router; a repair point
  // there keeps repair traffic off the rest of the tree.
  ExpressNetwork sim(make_kary_tree(2, 2, {}, 2));  // 8 hosts, 2 per leaf
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::vector<std::unique_ptr<Subscriber>> early;
  for (std::size_t i = 0; i < 6; ++i) {
    early.push_back(std::make_unique<Subscriber>(sim.receiver(i), ch, 5));
  }
  sim.run_for(sim::seconds(1));

  PublisherConfig config;
  config.repair_point =
      sim.net().topology().node(sim.router(sim.router_count() - 1).id()).address;
  Publisher publisher(sim.source(), ch, config);
  publisher.publish(5);
  sim.run_for(sim::seconds(1));

  Subscriber late_a(sim.receiver(6), ch, 5);
  Subscriber late_b(sim.receiver(7), ch, 5);
  sim.run_for(sim::seconds(1));

  const auto deliveries_before = early[0]->received_count();
  std::optional<RepairReport> report;
  publisher.run_repair_round([&](RepairReport r) { report = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->blocks_missing.size(), 5u);
  EXPECT_EQ(report->total_nacks, 10);  // two hosts x five blocks
  EXPECT_TRUE(late_a.complete());
  EXPECT_TRUE(late_b.complete());
  // The early subtrees saw none of the repair traffic.
  EXPECT_EQ(early[0]->received_count(), deliveries_before);
  std::uint64_t repair_deliveries = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    repair_deliveries += sim.receiver(i).stats().data_received;
  }
  EXPECT_EQ(repair_deliveries, 6u * 5u);  // exactly the original blocks
}

TEST(Reliable, RepairRoundsConvergeAndThenStayQuiet) {
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Publisher publisher(sim.source(), ch);
  Subscriber early(sim.receiver(0), ch, 4);
  sim.run_for(sim::seconds(1));
  publisher.publish(4);
  sim.run_for(sim::seconds(1));
  Subscriber late(sim.receiver(1), ch, 4);
  sim.run_for(sim::seconds(1));

  std::vector<RepairReport> reports;
  publisher.run_repair_round([&](RepairReport r) { reports.push_back(r); });
  sim.run_for(sim::seconds(10));
  publisher.run_repair_round([&](RepairReport r) { reports.push_back(r); });
  sim.run_for(sim::seconds(10));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].blocks_missing.size(), 4u);
  EXPECT_TRUE(reports[1].blocks_missing.empty());  // converged
  EXPECT_EQ(publisher.rounds_run(), 2u);
}

TEST(Reliable, RunToCompletionRepairsBernoulliLoss) {
  // Every receiver's drop cable loses ~30% of data packets; the
  // completion loop must keep counting and retransmitting (repairs
  // cross the same lossy links) until every block's NACK count is zero.
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Publisher publisher(sim.source(), ch);
  std::vector<std::unique_ptr<Subscriber>> subs;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    subs.push_back(std::make_unique<Subscriber>(sim.receiver(i), ch, 12));
  }
  sim.run_for(sim::seconds(1));  // joins settle losslessly

  impair_receiver_links(sim, 0.3, 0xBADD1CE5);
  publisher.publish(12);
  sim.run_for(sim::seconds(2));
  ASSERT_GT(sim.net().stats().packets_dropped_loss, 0u);

  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  sim.run_for(sim::seconds(200));  // bounded backoff: worst case ~2 min

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete);
  EXPECT_EQ(done->residual_nacks, 0);
  EXPECT_GE(done->rounds, 2u);  // at least one repair round + clean recount
  EXPECT_GT(done->retransmissions, 0u);
  // No candidates configured: everything went channel-wide.
  EXPECT_EQ(done->subcast_repairs, 0u);
  EXPECT_EQ(done->channel_repairs, done->retransmissions);
  for (const auto& s : subs) {
    EXPECT_TRUE(s->complete());
  }
}

TEST(Reliable, RunToCompletionSubcastsThroughFirstCoveringCandidate) {
  // Loss localized under the last leaf router. The first candidate's
  // subtree counts zero NACKs (not covering) and must be skipped; the
  // second counts the full total and carries all repairs by subcast,
  // keeping repair traffic off the six complete subtrees (§2.1).
  ExpressNetwork sim(make_kary_tree(2, 2, {}, 2));  // 8 hosts, 2 per leaf
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::vector<std::unique_ptr<Subscriber>> early;
  for (std::size_t i = 0; i < 6; ++i) {
    early.push_back(std::make_unique<Subscriber>(sim.receiver(i), ch, 5));
  }
  sim.run_for(sim::seconds(1));

  const net::Topology& topo = sim.net().topology();
  PublisherConfig config;
  config.repair_candidates = {
      topo.node(sim.router(sim.router_count() - 2).id()).address,  // clean
      topo.node(sim.router(sim.router_count() - 1).id()).address,  // covers
  };
  Publisher publisher(sim.source(), ch, config);
  publisher.publish(5);
  sim.run_for(sim::seconds(1));

  Subscriber late_a(sim.receiver(6), ch, 5);
  Subscriber late_b(sim.receiver(7), ch, 5);
  sim.run_for(sim::seconds(1));

  const auto deliveries_before = early[0]->received_count();
  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  sim.run_for(sim::seconds(60));

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete);
  EXPECT_EQ(done->rounds, 2u);  // one repair round, one clean recount
  EXPECT_EQ(done->subcast_repairs, 5u);
  EXPECT_EQ(done->channel_repairs, 0u);
  EXPECT_TRUE(late_a.complete());
  EXPECT_TRUE(late_b.complete());
  // The spared subtrees saw none of the repair traffic.
  EXPECT_EQ(early[0]->received_count(), deliveries_before);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sim.receiver(i).stats().data_received, 5u) << "receiver " << i;
  }
}

TEST(Reliable, RunToCompletionFallsBackChannelWideWhenNoCandidateCovers) {
  // Loss split across two different leaf subtrees; the lone candidate
  // only covers one of them, so its kNackTotalId count (5) falls short
  // of the round total (10) and the round must repair channel-wide.
  ExpressNetwork sim(make_kary_tree(2, 2, {}, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::vector<std::unique_ptr<Subscriber>> early;
  for (std::size_t i : {1, 2, 3, 4, 5, 7}) {
    early.push_back(std::make_unique<Subscriber>(sim.receiver(i), ch, 5));
  }
  sim.run_for(sim::seconds(1));

  PublisherConfig config;
  config.repair_candidates = {
      sim.net().topology().node(sim.router(sim.router_count() - 1).id()).address};
  Publisher publisher(sim.source(), ch, config);
  publisher.publish(5);
  sim.run_for(sim::seconds(1));

  Subscriber late_first(sim.receiver(0), ch, 5);  // first leaf subtree
  Subscriber late_last(sim.receiver(6), ch, 5);   // last leaf subtree
  sim.run_for(sim::seconds(1));

  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  sim.run_for(sim::seconds(60));

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete);
  EXPECT_EQ(done->rounds, 2u);
  EXPECT_EQ(done->subcast_repairs, 0u);
  EXPECT_EQ(done->channel_repairs, 5u);
  EXPECT_TRUE(late_first.complete());
  EXPECT_TRUE(late_last.complete());
}

TEST(Reliable, RunToCompletionWithNothingPublishedCompletesImmediately) {
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Publisher publisher(sim.source(), ch);
  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  ASSERT_TRUE(done.has_value());  // synchronous: nothing to count
  EXPECT_TRUE(done->complete);
  EXPECT_EQ(done->rounds, 0u);
  EXPECT_EQ(done->retransmissions, 0u);
}

TEST(Reliable, RunToCompletionGivesUpAfterMaxRounds) {
  // A receiver whose drop cable loses *every* data packet can answer
  // NACK queries (control is TCP-modeled, unimpaired) but can never be
  // repaired: the loop must stop at max_rounds with complete = false
  // and report the outstanding NACKs.
  ExpressNetwork sim(make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  Subscriber sub(sim.receiver(0), ch, 4);
  sim.run_for(sim::seconds(1));

  net::ImpairmentConfig black_hole;
  black_hole.loss.kind = net::LossModel::Kind::kBernoulli;
  black_hole.loss.p = 1.0;
  sim.net().seed_impairments(0xD0A);
  const net::NodeId host = sim.roles().receiver_hosts.at(0);
  sim.net().set_link_impairments(
      sim.net().topology().node(host).interfaces.at(0), black_hole);

  PublisherConfig config;
  config.max_rounds = 3;
  config.initial_backoff = sim::milliseconds(100);
  config.max_backoff = sim::milliseconds(200);
  Publisher publisher(sim.source(), ch, config);
  publisher.publish(4);
  sim.run_for(sim::seconds(1));
  EXPECT_FALSE(sub.complete());

  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  sim.run_for(sim::seconds(60));

  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->complete);
  EXPECT_EQ(done->rounds, 3u);
  EXPECT_EQ(done->residual_nacks, 4);  // one host x four blocks, every round
  EXPECT_EQ(done->retransmissions, 12u);  // 4 blocks x 3 futile rounds
  EXPECT_FALSE(sub.complete());
}

TEST(Reliable, ComposesWithSessionRelayChannel) {
  // A reliable::Publisher sourcing the session channel through the
  // relay host: heartbeats (zero data bytes) share the channel without
  // corrupting block tracking, and run_to_completion repairs a late
  // joiner on the relay's channel.
  ExpressNetwork sim(make_kary_tree(2, 2));
  relay::SessionRelay relay(sim.source());
  relay.start();
  Publisher publisher(relay.host(), relay.channel());
  Subscriber early(sim.receiver(0), relay.channel(), 6);
  sim.run_for(sim::seconds(1));
  publisher.publish(6);
  sim.run_for(sim::seconds(1));
  EXPECT_TRUE(early.complete());
  EXPECT_EQ(early.received_count(), 6u);  // heartbeats filtered out

  Subscriber late(sim.receiver(3), relay.channel(), 6);
  sim.run_for(sim::seconds(1));
  std::optional<CompletionReport> done;
  publisher.run_to_completion([&](CompletionReport r) { done = r; });
  sim.run_for(sim::seconds(30));

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete);
  EXPECT_TRUE(late.complete());
  EXPECT_GT(relay.stats().heartbeats_sent, 0u);
}

}  // namespace
}  // namespace express::test
