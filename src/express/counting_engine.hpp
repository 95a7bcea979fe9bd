// Count collection (paper §3.1).
//
// CountingEngine owns the *aggregation* side of ECMP counting at one
// router: the table of pending CountQuery rounds (per-subtree partial
// sums, outstanding-child counters, and the timeout timer producing
// partial replies). The §6 proactive-count state lives on each Channel
// (express/subscription) and the router arms its recheck timer; the
// engine only holds the registry row that counts the resulting updates.
//
// Module seam: the engine schedules timers and aggregates integers; it
// sends nothing and holds no channel membership. Replies leave through
// the ReplyFn injected at construction, and membership facts (this
// router's contribution, the children to wait for) are passed in per
// call. It therefore needs no Network and no SubscriptionTable, which
// keeps query aggregation testable against a bare Scheduler (see
// tests/test_counting_engine.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "ecmp/count_id.hpp"
#include "ip/channel.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"

namespace express {

struct CountingStats {
  std::uint64_t rounds_started = 0;    ///< pending aggregation rounds created
  std::uint64_t rounds_completed = 0;  ///< all children replied in time
  std::uint64_t rounds_timed_out = 0;  ///< partial reply after timeout
  std::uint64_t proactive_updates_sent = 0;  ///< §6 drift updates sent up
};

/// Aggregate result of a count collection.
struct [[nodiscard]] CountResult {
  std::int64_t count = 0;
  bool complete = false;  ///< false when assembled from a partial timeout
};

class CountingEngine {
 public:
  /// Deliver an aggregated (possibly partial) sum upstream.
  using ReplyFn = std::function<void(net::NodeId requester,
                                     const ip::ChannelId& channel,
                                     ecmp::CountId count_id, std::int64_t sum,
                                     std::uint32_t query_seq)>;
  using LocalDone = std::function<void(CountResult)>;

  /// `scope` binds the engine's counters (express.counting.*) and
  /// count-round trace records to an observability plane; the default
  /// resolves to the global plane under a fresh anonymous entity.
  CountingEngine(sim::Scheduler& scheduler, ReplyFn reply,
                 obs::Scope scope = {})
      : scheduler_(&scheduler),
        reply_(std::move(reply)),
        scope_(scope.resolved()),
        stats_(scope_.bind<CountingStats>({
            {&CountingStats::rounds_started,
             "express.counting.rounds_started"},
            {&CountingStats::rounds_completed,
             "express.counting.rounds_completed"},
            {&CountingStats::rounds_timed_out,
             "express.counting.rounds_timed_out"},
            {&CountingStats::proactive_updates_sent,
             "express.counting.proactive_updates_sent"},
        })),
        round_ns_(scope_.histogram("express.counting.round_ns")) {}
  ~CountingEngine();

  CountingEngine(const CountingEngine&) = delete;
  CountingEngine& operator=(const CountingEngine&) = delete;

  /// §3.1 per-hop timeout decrement: subtract `rtt_multiple` upstream
  /// RTTs so children reply (possibly partially) before parents give up,
  /// clamped to a 10 ms floor.
  [[nodiscard]] static sim::Duration decremented_timeout(
      sim::Duration timeout, sim::Duration upstream_rtt, double rtt_multiple);

  // --- query rounds (§3.1) -------------------------------------------
  /// Open an aggregation round seeded with this router's own
  /// contribution. With no children the round resolves immediately
  /// (reply/local_done fire inline) and false is returned; otherwise the
  /// timeout timer is armed — *before* the caller fans the query out,
  /// preserving event order — and true is returned.
  bool start_round(const ip::ChannelId& channel, ecmp::CountId count_id,
                   sim::Duration timeout, std::optional<net::NodeId> requester,
                   std::uint32_t query_seq, std::int64_t local,
                   std::uint32_t children, LocalDone local_done);

  /// Absorb a child's Count reply into its pending round. Returns false
  /// for late replies after the round already timed out.
  bool absorb(const ip::ChannelId& channel, ecmp::CountId count_id,
              std::uint32_t query_seq, std::int64_t value);

  /// The router pushed a proactive update Count upstream (§6).
  void note_proactive_update() { ++stats_->proactive_updates_sent; }

  // --- introspection -------------------------------------------------
  [[nodiscard]] std::size_t pending_rounds() const {
    return pending_.size();
  }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] CountingStats stats() const { return *stats_; }

 private:
  /// A round's exact identity: the (channel, countId, sequence) its
  /// query and every Count reply carry (§3.1).
  struct RoundKey {
    ip::ChannelId channel;
    ecmp::CountId count_id = ecmp::kSubscriberId;
    std::uint32_t query_seq = 0;

    friend bool operator==(const RoundKey&, const RoundKey&) = default;
  };
  struct RoundKeyHash {
    std::size_t operator()(const RoundKey& key) const noexcept;
  };

  struct PendingRound {
    std::optional<net::NodeId> requester;  ///< upstream; nullopt = local origin
    std::int64_t sum = 0;
    std::uint32_t outstanding = 0;
    sim::Time started{0};  ///< round-latency histogram anchor
    sim::EventHandle timer;
    LocalDone local_done;
  };

  void finish_round(RoundKey key, bool timed_out);

  sim::Scheduler* scheduler_;
  ReplyFn reply_;
  std::unordered_map<RoundKey, PendingRound, RoundKeyHash> pending_;
  obs::Scope scope_;
  CountingStats* stats_;  ///< registry-owned block
  obs::Histogram round_ns_;
};

}  // namespace express
