// Reliable block distribution over an EXPRESS channel.
//
// The paper's recipe for "wide-area multicast file updates": multicast
// the blocks, then use the counting facility "to efficiently collect
// positive acknowledgements or negative acknowledgments to determine
// how many subscribers missed a particular packet" (§2.2.1), and repair
// with retransmission — channel-wide, or through a subcast relay point
// so only the affected subtree pays (§2.1). Unlike the application-
// layer feedback schemes of [3,10,19], the aggregation happens in the
// routers: no implosion risk, no client-side probability tuning (§7.3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ecmp/count_id.hpp"
#include "express/host.hpp"
#include "ip/channel.hpp"
#include "sim/time.hpp"

namespace express::reliable {

/// Base of the per-block NACK countId range (app-defined space).
/// Block b's NACK count lives at kNackBase + b.
inline constexpr ecmp::CountId kNackBase = ecmp::kAppRangeBegin + 0x200;

/// CountId answering "how many blocks is this subscriber still
/// missing". Key identity (§2.1 repair targeting): summed over hosts it
/// equals the sum of the per-block NACK counts, so a candidate repair
/// router's subtree covers ALL outstanding loss iff its kNackTotalId
/// aggregate equals the channel-wide per-block total.
inline constexpr ecmp::CountId kNackTotalId = kNackBase - 1;

/// Application bytes per published block.
inline constexpr std::uint32_t kBlockBytes = 1400;
/// Timeout of every NACK CountQuery, per-block and remote subtree alike.
inline constexpr sim::Duration kNackTimeout = sim::seconds(2);

struct PublisherConfig {
  /// Optional subcast relay: repairs are tunnelled through this on-tree
  /// router instead of retransmitted on the whole channel.
  std::optional<ip::Address> repair_point;
  /// Candidate subcast repair points (on-tree routers, e.g. session
  /// relays' first-hop routers) for run_to_completion. Each round the
  /// publisher counts the loss subtree below each candidate in order
  /// and repairs through the first that covers every outstanding NACK;
  /// when none does, the round repairs channel-wide.
  std::vector<ip::Address> repair_candidates;
  /// Bounded exponential backoff between repair rounds: the first wait
  /// is `initial_backoff`, doubling up to `max_backoff`.
  sim::Duration initial_backoff = sim::seconds(1);
  sim::Duration max_backoff = sim::seconds(8);
  /// Give up (complete = false) after this many rounds.
  std::uint32_t max_rounds = 16;
};

struct RepairReport {
  std::uint32_t round = 0;
  std::vector<std::uint32_t> blocks_missing;  ///< blocks with NACKs > 0
  std::int64_t total_nacks = 0;
  std::uint32_t retransmitted = 0;
};

/// Outcome of run_to_completion.
struct CompletionReport {
  bool complete = false;           ///< every block's NACK count hit zero
  std::uint32_t rounds = 0;        ///< NACK-collection rounds run
  std::uint64_t retransmissions = 0;  ///< block retransmits, all rounds
  std::uint64_t subcast_repairs = 0;  ///< of which subcast via a candidate
  std::uint64_t channel_repairs = 0;  ///< of which channel-wide
  /// Outstanding NACK total measured by the final round (0 when
  /// complete; the last pre-repair count when max_rounds ran out).
  std::int64_t residual_nacks = 0;
};

class Publisher {
 public:
  /// `channel` must be sourced by `host`.
  Publisher(ExpressHost& host, ip::ChannelId channel,
            PublisherConfig config = {});

  /// Multicast blocks 1..count on the channel.
  void publish(std::uint32_t count);

  /// One NACK-collection round over all published blocks, followed by
  /// retransmission of every block some subscriber is missing. `done`
  /// fires with the round's report once all queries resolve.
  void run_repair_round(std::function<void(RepairReport)> done);

  /// Drive repair rounds until the NACK count for every block reaches
  /// zero, then invoke `done` with complete = true. Each round collects
  /// per-block NACK counts, sizes the loss subtree below each
  /// repair_candidate (remote kNackTotalId count, §2.1), retransmits
  /// the missing blocks — subcast through the first covering candidate,
  /// else channel-wide — and backs off exponentially (bounded) before
  /// re-counting. Gives up with complete = false after max_rounds.
  /// One completion run at a time.
  void run_to_completion(std::function<void(CompletionReport)> done);

  [[nodiscard]] std::uint32_t rounds_run() const { return rounds_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  void retransmit(std::uint32_t block);
  /// NACK-collection only (no retransmission): `done` fires once every
  /// per-block query resolved, with blocks_missing sorted.
  void collect_nacks(std::uint32_t round,
                     std::function<void(RepairReport)> done);
  void completion_round();
  /// Probe repair_candidates[candidate...]; repairs through the first
  /// whose loss subtree covers the whole round, else channel-wide.
  void select_repair_path(std::shared_ptr<const RepairReport> report,
                          std::size_t candidate);
  void apply_round_repairs(const RepairReport& report,
                           std::optional<ip::Address> via);
  void finish_completion();

  ExpressHost& host_;
  ip::ChannelId channel_;
  PublisherConfig config_;
  std::uint32_t blocks_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t retransmissions_ = 0;
  // run_to_completion state.
  std::function<void(CompletionReport)> completion_done_;
  CompletionReport completion_;
  sim::Duration backoff_{};
  bool completing_ = false;
};

/// Receiver side: tracks received blocks and answers per-block NACK
/// queries automatically.
class Subscriber {
 public:
  /// Subscribes `host` to `channel`, expecting `expected_blocks` blocks
  /// (known out of band, e.g. from the session advertisement).
  Subscriber(ExpressHost& host, ip::ChannelId channel,
             std::uint32_t expected_blocks,
             std::optional<ip::ChannelKey> key = std::nullopt);

  [[nodiscard]] bool complete() const {
    return received_.size() >= expected_;
  }
  [[nodiscard]] std::vector<std::uint32_t> missing() const;
  [[nodiscard]] std::size_t received_count() const { return received_.size(); }

 private:
  ExpressHost& host_;
  ip::ChannelId channel_;
  std::uint32_t expected_;
  std::set<std::uint32_t> received_;
};

}  // namespace express::reliable
