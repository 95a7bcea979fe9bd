// End-to-end determinism pin.
//
// The simulator promises bit-for-bit reproducible runs: same seed, same
// scenario => the same events in the same order, hence identical packet
// and byte counters. This test pins the exact counters of a seeded
// churn scenario (16 receivers over a binary router tree, Poisson
// join/leave churn, periodic channel data). Any substrate change — a
// scheduler rewrite, a packet-copy optimization — must reproduce these
// numbers exactly; a diff here means event order changed, which is a
// correctness bug, not a perf tradeoff.
//
// The pinned values were captured at the seed implementation (shared_ptr
// + priority_queue scheduler, deep-copied payloads) and verified
// unchanged by the zero-allocation rewrite.
#include <gtest/gtest.h>

#include <vector>

#include "testbed/testbed.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express {
namespace {

struct Outcome {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t total_link_bytes = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t data_delivered = 0;
};

Outcome run_seeded_churn(RouterConfig config = {}) {
  Testbed bed(workload::make_kary_tree(2, 3, {}, 2), config);  // 16 receivers
  const ip::ChannelId channel = bed.source().allocate_channel();

  sim::Rng rng(7);
  const sim::Duration horizon = sim::seconds(10);
  const auto events = workload::poisson_churn(
      static_cast<std::uint32_t>(bed.receiver_count()), horizon,
      sim::seconds(5), sim::seconds(3), rng);

  auto& sched = bed.net().scheduler();
  for (const auto& ev : events) {
    sched.schedule_at(ev.at, [&bed, &channel, ev] {
      if (ev.join) {
        bed.receiver(ev.host_index).new_subscription(channel);
      } else {
        bed.receiver(ev.host_index).delete_subscription(channel);
      }
    });
  }
  const std::vector<std::uint8_t> header(32, 0x5A);
  std::uint64_t seq = 0;
  for (sim::Time at = sim::milliseconds(200); at < horizon;
       at += sim::milliseconds(200)) {
    sched.schedule_at(at, [&bed, &channel, &header, s = seq++] {
      bed.source().send(channel, 500, s, header);
    });
  }
  bed.net().run();

  Outcome out;
  out.packets_sent = bed.net().stats().packets_sent;
  out.bytes_sent = bed.net().stats().bytes_sent;
  out.total_link_bytes = bed.net().total_link_bytes();
  out.executed_events = sched.executed_events();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    out.data_delivered += bed.receiver(i).stats().data_received;
  }
  return out;
}

TEST(Determinism, SeededChurnCountersArePinned) {
  const Outcome out = run_seeded_churn();
  EXPECT_EQ(out.packets_sent, 1082u);
  EXPECT_EQ(out.bytes_sent, 519864u);
  EXPECT_EQ(out.total_link_bytes, 519864u);
  // Event count: 1185 with one delivery event per copy, 867 when copies
  // of one replication arriving at the same instant shared one, 475 now
  // that every copy due at one instant joins the open delivery batch,
  // whoever sent it. Every wire-observable counter above is unchanged —
  // that equivalence is pinned directly by FanoutBatch tests
  // (ObsCaptureMatchesPerEventModeApartFromTimerFires runs this
  // scenario both ways).
  EXPECT_EQ(out.executed_events, 475u);
  EXPECT_EQ(out.data_delivered, 365u);
}

// Batched TCP mode (§5.3) shares segments between control messages and
// drains via Batcher timers and flush_all — both must be byte-for-byte
// reproducible. flush_all used to iterate an unordered_map, so these
// counters (and the identical-repeat check below) depended on the hash
// implementation.
constexpr std::uint64_t kBatchedPacketsSent = 1083;
constexpr std::uint64_t kBatchedBytesSent = 520948;
// 1281 with one delivery event per copy, 961 with per-replication
// batching; every copy due at one instant now shares the open batch.
constexpr std::uint64_t kBatchedExecutedEvents = 568;

RouterConfig batched_config() {
  RouterConfig config;
  config.batch_window = sim::milliseconds(10);
  return config;
}

TEST(Determinism, BatchedChurnCountersArePinned) {
  const Outcome out = run_seeded_churn(batched_config());
  EXPECT_EQ(out.packets_sent, kBatchedPacketsSent);
  EXPECT_EQ(out.bytes_sent, kBatchedBytesSent);
  EXPECT_EQ(out.total_link_bytes, kBatchedBytesSent);
  EXPECT_EQ(out.executed_events, kBatchedExecutedEvents);
  EXPECT_EQ(out.data_delivered, 365u);
}

TEST(Determinism, BatchedRunsAreIdentical) {
  const Outcome a = run_seeded_churn(batched_config());
  const Outcome b = run_seeded_churn(batched_config());
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
}

TEST(Determinism, RepeatedRunsAreIdentical) {
  const Outcome a = run_seeded_churn();
  const Outcome b = run_seeded_churn();
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.total_link_bytes, b.total_link_bytes);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
}

}  // namespace
}  // namespace express
