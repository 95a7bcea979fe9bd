// Discrete-event scheduler.
//
// The Scheduler is the heart of the substrate: every link transmission,
// protocol timer, and workload event is a closure queued at an absolute
// simulated time. Events at equal times fire in insertion order, which
// keeps runs bit-for-bit deterministic for a given seed and scenario.
//
// The implementation is built for zero heap traffic in steady state:
//
//   * Event records live in a slab (std::vector) and are recycled
//     through a free list — once the simulation reaches its high-water
//     mark of concurrent events, scheduling allocates nothing.
//   * Closures are stored in place inside the record (InlineFunction's
//     120-byte buffer), not on the heap, and are *moved* out at
//     dispatch — never copied.
//   * The queue is one index-based 4-ary min-heap over slab slots,
//     keyed by (time, seq) so the FIFO tie-break among equal-time
//     events — and with it determinism — is preserved exactly.
//   * EventHandle is a (slot, generation) pair: cancellation and
//     pending() checks are O(1) with no per-event shared_ptr<bool>.
//     Cancellation stays lazy (the slot is reclaimed when its heap
//     entry surfaces), and the generation counter makes handles to
//     recycled slots inert rather than dangerous.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace express::sim {

class Scheduler;

/// Counters exposed for tests, benches, and operators.
struct SchedulerStats {
  std::uint64_t scheduled = 0;   ///< total schedule_at/after calls
  std::uint64_t executed = 0;    ///< events fired (cancelled excluded)
  std::uint64_t cancelled = 0;   ///< events cancelled before firing
  /// Events scheduled in the past and clamped to now(). Scheduling in
  /// the past is a logic error in the caller; the clamp keeps the clock
  /// monotonic, and this counter makes the silent repair visible.
  std::uint64_t clamped_past_events = 0;
  std::uint64_t pending = 0;       ///< queued now (incl. cancelled slots)
  std::uint64_t peak_pending = 0;  ///< high-water mark of `pending`
  std::uint64_t slab_slots = 0;    ///< event records ever allocated
  std::uint64_t free_slots = 0;    ///< records currently recycled/idle
};

/// Handle to a scheduled event; allows O(1) logical cancellation.
/// Cancellation is lazy: the event stays queued but is skipped when its
/// heap entry is popped. Handles are small value types; copies refer to
/// the same event, and a handle to a fired/cancelled (and possibly
/// recycled) event is inert: pending() is false, cancel() a no-op. The
/// guarantee extends to the event currently dispatching: an action that
/// cancels its own handle (directly or through a helper that flushes
/// "pending" state) touches nothing, no matter how many times the slot
/// has been recycled meanwhile.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly
  /// and safe on a default-constructed (empty) handle.
  void cancel();

  /// True if this handle refers to an event that can still fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot, std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Time-ordered event queue with a monotonically advancing clock.
class Scheduler {
 public:
  using Action = InlineFunction;
  using Handle = EventHandle;

  /// `scope` binds the scheduler's counters (and kTimerFire trace
  /// records) to an observability plane; the default resolves to the
  /// process-global plane under an anonymous entity.
  explicit Scheduler(obs::Scope scope = {});

  /// Current simulated time. Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// Number of events still queued (including lazily-cancelled ones).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Time of the earliest event that can still fire, or nullopt when
  /// the queue holds nothing live — the quiescence probe. Unlike
  /// pending_events() this sees through lazy cancellation: dead heap
  /// tops are reclaimed on the way (each queued slot has exactly one
  /// heap entry, so popping a dead top is exactly the cleanup run_until
  /// would do).
  [[nodiscard]] std::optional<Time> next_event_time();

  /// Total events executed since construction (cancelled events excluded).
  [[nodiscard]] std::uint64_t executed_events() const {
    return stats_->executed;
  }

  /// Total schedule_at/after calls since construction. Unchanged
  /// across a stretch of run time means nothing was scheduled in it:
  /// the last event scheduled is still the newest (net::Network's
  /// delivery batches rely on it).
  [[nodiscard]] std::uint64_t scheduled_events() const {
    return stats_->scheduled;
  }

  /// Events scheduled in the past and clamped to now() (see
  /// SchedulerStats::clamped_past_events).
  [[nodiscard]] std::uint64_t clamped_past_events() const {
    return stats_->clamped_past_events;
  }

  /// The registry-bound counters plus the instantaneous queue/slab
  /// occupancy, which is read live.
  [[nodiscard]] SchedulerStats stats() const {
    SchedulerStats s = *stats_;
    s.pending = heap_.size();
    s.slab_slots = slab_.size();
    s.free_slots = free_.size();
    return s;
  }

  /// Schedule `action` to run at absolute time `when`. Scheduling in the
  /// past is a logic error; it is clamped to `now()` (and counted) so
  /// the event still fires, deterministically after already-queued
  /// events at the same instant. Throws std::length_error past 2^24
  /// concurrently pending events (HeapEntry's slot bits). Packets in
  /// flight do not each hold one: net::Network delivers all copies due
  /// at one instant from one event, so a 10-packet burst on a
  /// 611,670-node tree peaks at 10 pending events, not 2.6M.
  EventHandle schedule_at(Time when, Action action);

  /// Schedule `action` to run `delay` after the current time.
  EventHandle schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Run events until the queue empties or `deadline` is passed. The
  /// clock is left at the later of its current value and the deadline
  /// (when a deadline is given), or at the last executed event time.
  /// Returns the number of events executed by this call.
  std::uint64_t run_until(Time deadline);

  /// Run until the queue is empty.
  std::uint64_t run() { return run_until(kNever); }

  /// Run at most one event; returns false if the queue had none eligible.
  bool step();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

  struct EventRecord {
    std::uint32_t generation = 0;
    bool live = false;  // scheduled and not yet fired or cancelled
    Action action;
  };

  /// Heap entries carry their own (when, seq) sort key so sift
  /// operations stay inside the contiguous heap array and never chase
  /// the (much larger) slab records. seq and slot share one word: seq
  /// values are unique and monotonically increasing, so ordering by the
  /// packed word is exactly the FIFO tie-break among equal times (the
  /// slot bits sit below all seq bits and never decide a comparison).
  struct HeapEntry {
    static constexpr unsigned kSlotBits = 24;  // 16M concurrent events
    Time when{};
    std::uint64_t seq_slot = 0;

    HeapEntry() = default;
    HeapEntry(Time w, std::uint64_t seq, std::uint32_t slot)
        : when(w), seq_slot((seq << kSlotBits) | slot) {}
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & ((1U << kSlotBits) - 1));
    }
    [[nodiscard]] std::uint64_t seq() const { return seq_slot >> kSlotBits; }
  };

  [[nodiscard]] bool handle_pending(std::uint32_t slot,
                                    std::uint32_t generation) const {
    // The event currently being dispatched is never pending, and
    // cancelling it is a guaranteed no-op. Without this guard a handler
    // that holds its own handle (ecmp::Batcher's timer flush) could —
    // after enough slot recycling to wrap the 32-bit generation — cancel
    // an unrelated event that reused its slot while the action runs.
    if (slot == firing_slot_ && generation == firing_generation_) return false;
    return slot < slab_.size() && slab_[slot].generation == generation &&
           slab_[slot].live;
  }

  void handle_cancel(std::uint32_t slot, std::uint32_t generation) {
    if (!handle_pending(slot, generation)) return;
    EventRecord& rec = slab_[slot];
    rec.live = false;
    ++rec.generation;      // invalidate outstanding handles
    rec.action.reset();    // release captured resources immediately
    ++stats_->cancelled;
    // The slot itself is reclaimed when its heap entry surfaces.
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq_slot < b.seq_slot;
  }

  void heap_push(HeapEntry entry);
  void heap_pop_top();

  /// Reclaim dead heap tops so heap_[0] is the true front of the
  /// queue. Returns false when nothing live remains.
  bool refresh_front();

  /// Pop and run the front event (refresh_front() must have returned
  /// true): advance the clock, retire the record, emit kTimerFire.
  void dispatch_front();

  std::vector<EventRecord> slab_;
  std::vector<std::uint32_t> free_;  // recycled slab slots
  std::vector<HeapEntry> heap_;      // 4-ary min-heap keyed by (when, seq)

  Time now_{0};
  std::uint64_t next_seq_ = 0;
  /// Identity of the event whose action is running right now (kNilSlot
  /// when none): its stale handle must stay inert for the whole dispatch
  /// even if the slot is recycled and its generation wraps. Saved and
  /// restored around each dispatch so re-entrant step()/run_until()
  /// calls from inside an action keep the guard of their caller.
  std::uint32_t firing_slot_ = kNilSlot;
  std::uint32_t firing_generation_ = 0;
  obs::Scope scope_;
  /// Registry-owned block (see DESIGN.md §11); the occupancy fields
  /// stay unbound and are filled in live by stats().
  SchedulerStats* stats_;
};

inline void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->handle_cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->handle_pending(slot_, generation_);
}

}  // namespace express::sim
