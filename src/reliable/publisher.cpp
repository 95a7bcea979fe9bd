#include "reliable/publisher.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace express::reliable {

Publisher::Publisher(ExpressHost& host, ip::ChannelId channel,
                     PublisherConfig config)
    : host_(host),
      channel_(channel),
      config_(std::move(config)) {}

void Publisher::publish(std::uint32_t count) {
  for (std::uint32_t block = 1; block <= count; ++block) {
    host_.send(channel_, kBlockBytes, block);
  }
  blocks_ = std::max(blocks_, count);
}

void Publisher::retransmit(std::uint32_t block) {
  ++retransmissions_;
  if (config_.repair_point) {
    // Subcast (§2.1): only the subtree below the relay point pays.
    host_.subcast(channel_, *config_.repair_point, kBlockBytes, block);
  } else {
    host_.send(channel_, kBlockBytes, block);
  }
}

void Publisher::run_repair_round(std::function<void(RepairReport)> done) {
  const std::uint32_t round = ++rounds_;
  auto report = std::make_shared<RepairReport>();
  report->round = round;
  auto outstanding = std::make_shared<std::uint32_t>(blocks_);
  if (blocks_ == 0) {
    if (done) done(*report);
    return;
  }
  for (std::uint32_t block = 1; block <= blocks_; ++block) {
    const auto count_id = static_cast<ecmp::CountId>(kNackBase + block);
    host_.count_query(
        channel_, count_id, kNackTimeout,
        [this, block, report, outstanding, done](CountResult result) {
          if (result.count > 0) {
            report->blocks_missing.push_back(block);
            report->total_nacks += result.count;
            retransmit(block);
          }
          if (--*outstanding == 0) {
            report->retransmitted =
                static_cast<std::uint32_t>(report->blocks_missing.size());
            if (done) done(*report);
          }
        });
  }
}

// ---------------------------------------------------------------------
// run_to_completion: repeat NACK rounds with subcast/channel-wide
// repair selection and bounded exponential backoff until loss-free.
// ---------------------------------------------------------------------

void Publisher::collect_nacks(std::uint32_t round,
                              std::function<void(RepairReport)> done) {
  auto report = std::make_shared<RepairReport>();
  report->round = round;
  auto outstanding = std::make_shared<std::uint32_t>(blocks_);
  for (std::uint32_t block = 1; block <= blocks_; ++block) {
    const auto count_id = static_cast<ecmp::CountId>(kNackBase + block);
    host_.count_query(channel_, count_id, kNackTimeout,
                      [block, report, outstanding, done](CountResult result) {
                        if (result.count > 0) {
                          report->blocks_missing.push_back(block);
                          report->total_nacks += result.count;
                        }
                        if (--*outstanding == 0 && done) {
                          // Replies resolve in wire order; canonicalise
                          // so repairs replay identically run-to-run.
                          std::sort(report->blocks_missing.begin(),
                                    report->blocks_missing.end());
                          done(*report);
                        }
                      });
  }
}

void Publisher::run_to_completion(std::function<void(CompletionReport)> done) {
  if (completing_) {
    throw std::logic_error("run_to_completion already in progress");
  }
  completing_ = true;
  completion_ = CompletionReport{};
  completion_done_ = std::move(done);
  backoff_ = config_.initial_backoff;
  if (blocks_ == 0) {
    completion_.complete = true;
    finish_completion();
    return;
  }
  completion_round();
}

void Publisher::completion_round() {
  const std::uint32_t round = ++rounds_;
  ++completion_.rounds;
  host_.scope().emit(host_.network().now(), obs::TraceType::kRepairRoundStart,
                     round, blocks_);
  collect_nacks(round, [this](RepairReport report) {
    if (report.total_nacks == 0) {
      // Every block's NACK count reached zero: done.
      completion_.complete = true;
      completion_.residual_nacks = 0;
      host_.scope().emit(host_.network().now(),
                         obs::TraceType::kRepairRoundEnd, report.round, 0);
      finish_completion();
      return;
    }
    select_repair_path(std::make_shared<const RepairReport>(std::move(report)),
                       0);
  });
}

void Publisher::select_repair_path(
    std::shared_ptr<const RepairReport> report, std::size_t candidate) {
  if (candidate >= config_.repair_candidates.size()) {
    apply_round_repairs(*report, std::nullopt);  // no candidate covers
    return;
  }
  const ip::Address router = config_.repair_candidates[candidate];
  // Count the loss subtree below this candidate (§2.1): a remote
  // kNackTotalId query tunnelled to the router aggregates "blocks still
  // missing" over its subtree only.
  host_.count_query_at(
      router, channel_, kNackTotalId, kNackTimeout,
      [this, report, candidate, router](CountResult result) {
        // Covering test: the candidate's subtree holds ALL the loss iff
        // its missing-block total equals the channel-wide NACK total
        // (sum over its hosts of blocks missing == sum over blocks of
        // subscribers missing them). A partial count cannot prove
        // coverage, so it falls through to the next candidate.
        if (result.complete && result.count == report->total_nacks) {
          apply_round_repairs(*report, router);
        } else {
          select_repair_path(report, candidate + 1);
        }
      });
}

void Publisher::apply_round_repairs(const RepairReport& report,
                                    std::optional<ip::Address> via) {
  for (const std::uint32_t block : report.blocks_missing) {
    ++retransmissions_;
    ++completion_.retransmissions;
    if (via) {
      ++completion_.subcast_repairs;
      host_.subcast(channel_, *via, kBlockBytes, block);
    } else {
      ++completion_.channel_repairs;
      host_.send(channel_, kBlockBytes, block);
    }
    host_.scope().emit(host_.network().now(), obs::TraceType::kRetransmit,
                       block, via ? 1 : 0);
  }
  host_.scope().emit(host_.network().now(), obs::TraceType::kRepairRoundEnd,
                     report.round,
                     static_cast<std::uint64_t>(report.total_nacks));
  if (completion_.rounds >= config_.max_rounds) {
    completion_.complete = false;
    completion_.residual_nacks = report.total_nacks;
    finish_completion();
    return;
  }
  // Bounded exponential backoff before re-counting, giving the repairs
  // time to land (and the network time to drain under burst loss).
  // lint: fire-and-forget (one-shot backoff continuation of an in-progress completion round)
  host_.network().scheduler().schedule_after(backoff_,
                                             [this]() { completion_round(); });
  backoff_ = std::min(backoff_ * 2, config_.max_backoff);
}

void Publisher::finish_completion() {
  completing_ = false;
  backoff_ = sim::Duration{};
  auto done = std::move(completion_done_);
  completion_done_ = {};
  if (done) done(completion_);
}

Subscriber::Subscriber(ExpressHost& host, ip::ChannelId channel,
                       std::uint32_t expected_blocks,
                       std::optional<ip::ChannelKey> key)
    : host_(host), channel_(channel), expected_(expected_blocks) {
  host_.set_data_handler([this](const net::Packet& packet, sim::Time) {
    if (ip::ChannelId{packet.src, packet.dst} != channel_) return;
    // Control-plane traffic (relay heartbeats etc.) shares the channel's
    // sequence space but carries no application data.
    if (packet.data_bytes == 0) return;
    if (packet.sequence >= 1 && packet.sequence <= expected_) {
      received_.insert(static_cast<std::uint32_t>(packet.sequence));
    }
  });
  for (std::uint32_t block = 1; block <= expected_blocks; ++block) {
    const auto count_id = static_cast<ecmp::CountId>(kNackBase + block);
    host_.set_count_handler(count_id, [this, block]() {
      return std::optional<std::int64_t>(received_.contains(block) ? 0 : 1);
    });
  }
  // "Blocks still missing at this host" — the repair-targeting total
  // (see kNackTotalId): summed over hosts it matches the per-block sum.
  host_.set_count_handler(kNackTotalId, [this]() {
    return std::optional<std::int64_t>(
        static_cast<std::int64_t>(expected_ - received_.size()));
  });
  host_.new_subscription(channel_, key);
}

std::vector<std::uint32_t> Subscriber::missing() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t block = 1; block <= expected_; ++block) {
    if (!received_.contains(block)) out.push_back(block);
  }
  return out;
}

}  // namespace express::reliable
