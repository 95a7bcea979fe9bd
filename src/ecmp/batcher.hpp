// ECMP-over-TCP message batching (§5.3).
//
// A core router emits thousands of Counts per second; TCP mode streams
// them, so consecutive messages to the same neighbor share segments —
// the paper's "approximately 92 16-byte Count messages fit in a
// 1480-byte maximum-sized TCP segment". The Batcher queues encoded
// messages per neighbor and flushes a concatenated payload when either
// the coalescing window expires or a segment fills.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "ecmp/codec.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace express::ecmp {

class Batcher {
 public:
  /// `flush` delivers one coalesced payload to a neighbor.
  using FlushFn =
      std::function<void(net::NodeId neighbor, std::vector<std::uint8_t> payload)>;

  Batcher(sim::Scheduler& scheduler, sim::Duration window, FlushFn flush)
      : scheduler_(&scheduler), window_(window), flush_(std::move(flush)) {}

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;
  ~Batcher() {
    for (auto& [neighbor, q] : queues_) q.timer.cancel();
  }

  /// Queue `msg` for `neighbor`. Flushes immediately when the segment
  /// fills; otherwise a timer flushes after the coalescing window. A
  /// flushed payload never exceeds kMaxSegmentBytes: when the encoded
  /// message would overflow the pending segment, the pending bytes go
  /// out first and the message starts a fresh segment.
  void enqueue(net::NodeId neighbor, const Message& msg) {
    Queue& q = queues_[neighbor];
    if (!q.bytes.empty() && q.bytes.size() + encoded_size(msg) > kMaxSegmentBytes) {
      flush_now(neighbor);
    }
    encode(msg, q.bytes);
    if (q.bytes.size() >= kMaxSegmentBytes) {
      flush_now(neighbor);
      return;
    }
    if (!q.timer.pending()) {
      q.timer = scheduler_->schedule_after(
          window_, [this, neighbor]() { flush_now(neighbor); });
    }
  }

  /// Flush one neighbor's queue immediately (no-op when empty).
  void flush_now(net::NodeId neighbor) {
    auto it = queues_.find(neighbor);
    if (it == queues_.end() || it->second.bytes.empty()) return;
    it->second.timer.cancel();
    std::vector<std::uint8_t> payload = std::move(it->second.bytes);
    it->second.bytes = {};
    ++segments_sent_;
    flush_(neighbor, std::move(payload));
  }

  /// Flush everything (e.g. before a deterministic measurement point),
  /// in ascending NodeId order.
  void flush_all() {
    for (const auto& [neighbor, q] : queues_) {
      flush_now(neighbor);  // no-op for queues that are already empty
    }
  }

  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }

 private:
  struct Queue {
    std::vector<std::uint8_t> bytes;
    sim::EventHandle timer;
  };

  sim::Scheduler* scheduler_;
  sim::Duration window_;
  FlushFn flush_;
  /// Ordered, so flush_all() emits in neighbor order.
  std::map<net::NodeId, Queue> queues_;
  std::uint64_t segments_sent_ = 0;
};

}  // namespace express::ecmp
