// End-to-end determinism pin.
//
// The simulator promises bit-for-bit reproducible runs: same seed, same
// scenario => the same events in the same order, hence identical packet
// and byte counters. This test pins the exact counters of the seeded
// churn scenario (scenario::run_seeded_churn: 16 receivers over a
// binary router tree, Poisson join/leave churn, periodic channel data),
// the one obs_capture records by default. Any substrate change — a
// scheduler rewrite, a packet-copy optimization — must reproduce these
// numbers exactly; a diff here means event order changed, which is a
// correctness bug, not a perf tradeoff.
//
// The pinned values were captured at the seed implementation (shared_ptr
// + priority_queue scheduler, deep-copied payloads) and verified
// unchanged by the zero-allocation rewrite.
#include <gtest/gtest.h>

#include "testbed/scenario.hpp"

namespace express {
namespace {

using scenario::ChurnOutcome;

ChurnOutcome run_seeded_churn(RouterConfig config = {}) {
  Testbed bed(scenario::capture_tree(), config);
  return scenario::run_seeded_churn(bed);
}

TEST(Determinism, SeededChurnCountersArePinned) {
  const ChurnOutcome out = run_seeded_churn();
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
  const ChurnOutcome out = run_seeded_churn(batched_config());
  EXPECT_EQ(out.packets_sent, kBatchedPacketsSent);
  EXPECT_EQ(out.bytes_sent, kBatchedBytesSent);
  EXPECT_EQ(out.total_link_bytes, kBatchedBytesSent);
  EXPECT_EQ(out.executed_events, kBatchedExecutedEvents);
  EXPECT_EQ(out.data_delivered, 365u);
}

TEST(Determinism, BatchedRunsAreIdentical) {
  const ChurnOutcome a = run_seeded_churn(batched_config());
  const ChurnOutcome b = run_seeded_churn(batched_config());
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
}

TEST(Determinism, RepeatedRunsAreIdentical) {
  const ChurnOutcome a = run_seeded_churn();
  const ChurnOutcome b = run_seeded_churn();
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.total_link_bytes, b.total_link_bytes);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
}

}  // namespace
}  // namespace express
