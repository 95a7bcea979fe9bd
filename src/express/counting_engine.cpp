#include "express/counting_engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

namespace express {

namespace {

constexpr sim::Duration kMinQueryTimeout = sim::milliseconds(10);

}  // namespace

CountingEngine::~CountingEngine() {
  // lint: order-independent (timer cancellations commute)
  for (auto& [key, round] : pending_) round.timer.cancel();
}

sim::Duration CountingEngine::decremented_timeout(sim::Duration timeout,
                                                  sim::Duration upstream_rtt,
                                                  double rtt_multiple) {
  sim::Duration remaining =
      timeout - std::chrono::duration_cast<sim::Duration>(upstream_rtt *
                                                          rtt_multiple);
  return std::max(remaining, kMinQueryTimeout);
}

bool CountingEngine::start_round(const ip::ChannelId& channel,
                                 ecmp::CountId count_id, sim::Duration timeout,
                                 std::optional<net::NodeId> requester,
                                 std::uint32_t query_seq, std::int64_t local,
                                 std::uint32_t children, LocalDone local_done) {
  if (children == 0) {
    if (requester) {
      reply_(*requester, channel, count_id, local, query_seq);
    } else if (local_done) {
      local_done(CountResult{local, true});
    }
    return false;
  }
  const RoundKey key{channel, count_id, query_seq};
  PendingRound& round = pending_[key];
  round.requester = requester;
  round.sum = local;
  round.outstanding = children;
  round.started = scheduler_->now();
  round.local_done = std::move(local_done);
  round.timer = scheduler_->schedule_after(
      timeout, [this, key]() { finish_round(key, true); });
  ++stats_->rounds_started;
  scope_.emit(round.started, obs::TraceType::kCountRoundStart, channel.packed(),
              query_seq, children);
  return true;
}

bool CountingEngine::absorb(const ip::ChannelId& channel,
                            ecmp::CountId count_id, std::uint32_t query_seq,
                            std::int64_t value) {
  const RoundKey key{channel, count_id, query_seq};
  auto it = pending_.find(key);
  if (it == pending_.end()) return false;  // late reply after timeout
  it->second.sum += value;
  if (--it->second.outstanding == 0) finish_round(key, false);
  return true;
}

void CountingEngine::finish_round(RoundKey key, bool timed_out) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingRound round = std::move(it->second);
  pending_.erase(it);
  round.timer.cancel();
  if (timed_out) {
    ++stats_->rounds_timed_out;
  } else {
    ++stats_->rounds_completed;
  }
  const sim::Time now = scheduler_->now();
  round_ns_.observe(static_cast<std::uint64_t>((now - round.started).count()));
  scope_.emit(now, obs::TraceType::kCountRoundEnd, key.channel.packed(),
              key.query_seq, timed_out ? 1 : 0);

  if (round.requester) {
    // Partial or complete, the sum goes upstream (§3.1: a router that
    // times out sends a partial reply before its parent times out).
    reply_(*round.requester, key.channel, key.count_id, round.sum,
           key.query_seq);
  } else if (round.local_done) {
    round.local_done(CountResult{round.sum, !timed_out});
  }
}

std::size_t CountingEngine::RoundKeyHash::operator()(
    const RoundKey& key) const noexcept {
  std::uint64_t x = std::hash<ip::ChannelId>{}(key.channel);
  x ^= (static_cast<std::uint64_t>(key.count_id) << 32) ^ key.query_seq;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

}  // namespace express
