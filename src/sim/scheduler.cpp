#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace express::sim {

namespace {
constexpr std::size_t kArity = 4;  // 4-ary heap: shallower, cache-friendlier
}  // namespace

Scheduler::Scheduler() : Scheduler(true) {}

Scheduler::Scheduler(bool use_timer_wheel, obs::Scope scope)
    : scope_(scope.resolved()),
      stats_(scope_.bind<SchedulerStats>({
          {&SchedulerStats::scheduled, "sim.sched.scheduled"},
          {&SchedulerStats::executed, "sim.sched.executed"},
          {&SchedulerStats::cancelled, "sim.sched.cancelled"},
          {&SchedulerStats::clamped_past_events, "sim.sched.clamped_past"},
          {&SchedulerStats::peak_pending, "sim.sched.peak_pending",
           obs::MetricKind::kGauge},
      })) {
  for (auto& level : wheel_) level.fill(kNilSlot);
  wheel_enabled_ = use_timer_wheel;
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // HeapEntry packs the slot into 24 bits: 16M *concurrent* events.
  // Checked in every build: past it, slot bits would spill into seq.
  if (slab_.size() >= (std::size_t{1} << HeapEntry::kSlotBits)) {
    throw std::length_error("Scheduler: more than 2^24 concurrent events");
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Scheduler::heap_push(HeapEntry entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Scheduler::heap_pop_top() {
  const HeapEntry displaced = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t end_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], displaced)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = displaced;
}

void Scheduler::enqueue_record(std::uint32_t slot, unsigned max_level) {
  EventRecord& rec = slab_[slot];
  if (wheel_enabled_) {
    const auto when = static_cast<std::uint64_t>(rec.when.count());
    const auto now = static_cast<std::uint64_t>(now_.count());
    for (unsigned level = 0; level < max_level; ++level) {
      const unsigned shift = kWheelShift0 + kWheelSlotBits * level;
      const std::uint64_t delta = (when >> shift) - (now >> shift);
      if (delta == 0) break;               // lands in the current slot
      if (delta >= kWheelSlots) continue;  // beyond this level's horizon
      park_record(slot, level, shift);
      return;
    }
  }
  heap_push(HeapEntry{rec.when, rec.seq, slot});
}

void Scheduler::park_record(std::uint32_t slot, unsigned level,
                            unsigned shift) {
  EventRecord& rec = slab_[slot];
  const std::uint64_t abs = static_cast<std::uint64_t>(rec.when.count()) >> shift;
  const std::uint32_t idx = static_cast<std::uint32_t>(abs) & (kWheelSlots - 1);
  rec.next = wheel_[level][idx];
  wheel_[level][idx] = slot;
  wheel_bits_[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
  ++parked_;
  const Time start{static_cast<std::int64_t>(abs << shift)};
  if (start < next_wheel_time_) next_wheel_time_ = start;
}

int Scheduler::first_occupied_offset(unsigned level, std::uint32_t cur) const {
  // Smallest offset p in [1, kWheelSlots-1] with slot (cur+p) mod 256
  // occupied, or -1. The slot holding `cur` itself is never occupied:
  // every parked slot starts strictly after now (enqueue parks only at
  // delta >= 1, and refresh_front cascades a slot before the clock can
  // enter it).
  const auto& bits = wheel_bits_[level];
  std::uint32_t idx = (cur + 1) & (kWheelSlots - 1);
  std::uint32_t remaining = kWheelSlots - 1;
  while (remaining > 0) {
    const std::uint32_t bit = idx & 63;
    const std::uint64_t word = bits[idx >> 6] >> bit;
    const auto span = std::min<std::uint32_t>(64 - bit, remaining);
    if (word != 0) {
      const auto z = static_cast<std::uint32_t>(std::countr_zero(word));
      if (z < span) {
        const std::uint32_t found = (idx + z) & (kWheelSlots - 1);
        return static_cast<int>((found - cur) & (kWheelSlots - 1));
      }
    }
    idx = (idx + span) & (kWheelSlots - 1);
    remaining -= span;
  }
  return -1;
}

void Scheduler::recompute_next_wheel_time() {
  next_wheel_time_ = kNever;
  if (parked_ == 0) return;
  const auto now = static_cast<std::uint64_t>(now_.count());
  for (unsigned level = 0; level < kWheelLevels; ++level) {
    const unsigned shift = kWheelShift0 + kWheelSlotBits * level;
    const std::uint64_t cur = now >> shift;
    const int offset = first_occupied_offset(
        level, static_cast<std::uint32_t>(cur) & (kWheelSlots - 1));
    if (offset < 0) continue;
    const Time start{static_cast<std::int64_t>(
        (cur + static_cast<std::uint32_t>(offset)) << shift)};
    if (start < next_wheel_time_) next_wheel_time_ = start;
  }
}

void Scheduler::cascade_earliest() {
  // Locate the slot that realises next_wheel_time_ (recomputing the
  // level/index here keeps park_record's min-tracking to one Time).
  const auto now = static_cast<std::uint64_t>(now_.count());
  unsigned best_level = kWheelLevels;
  std::uint64_t best_abs = 0;
  Time best = kNever;
  for (unsigned level = 0; level < kWheelLevels; ++level) {
    const unsigned shift = kWheelShift0 + kWheelSlotBits * level;
    const std::uint64_t cur = now >> shift;
    const int offset = first_occupied_offset(
        level, static_cast<std::uint32_t>(cur) & (kWheelSlots - 1));
    if (offset < 0) continue;
    const std::uint64_t abs = cur + static_cast<std::uint32_t>(offset);
    const Time start{static_cast<std::int64_t>(abs << shift)};
    if (start < best) {
      best = start;
      best_level = level;
      best_abs = abs;
    }
  }
  if (best_level == kWheelLevels) {
    next_wheel_time_ = kNever;
    return;
  }

  // Unlink the chain, then re-enqueue: live records go to the heap or a
  // strictly finer level (so cascades terminate); cancelled ones are
  // reclaimed here — they never had a heap entry.
  const std::uint32_t idx =
      static_cast<std::uint32_t>(best_abs) & (kWheelSlots - 1);
  std::uint32_t slot = wheel_[best_level][idx];
  wheel_[best_level][idx] = kNilSlot;
  wheel_bits_[best_level][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  while (slot != kNilSlot) {
    const std::uint32_t next = slab_[slot].next;
    slab_[slot].next = kNilSlot;
    --parked_;
    if (slab_[slot].live) {
      enqueue_record(slot, best_level);
    } else {
      release_slot(slot);
    }
    slot = next;
  }
  recompute_next_wheel_time();
}

bool Scheduler::refresh_front() {
  for (;;) {
    if (!heap_.empty()) {
      const std::uint32_t slot = heap_[0].slot();
      if (!slab_[slot].live) {  // lazily-cancelled: reclaim and move on
        heap_pop_top();
        release_slot(slot);
        continue;
      }
    }
    // Cascade while a wheel slot starts at or before the heap front: a
    // parked event may share the front's timestamp with a smaller seq,
    // so the comparison must be non-strict.
    if (parked_ != 0 && (heap_.empty() || heap_[0].when >= next_wheel_time_)) {
      cascade_earliest();
      continue;
    }
    return !heap_.empty();
  }
}

EventHandle Scheduler::schedule_at(Time when, Action action) {
  if (when < now_) {
    when = now_;
    ++stats_->clamped_past_events;
  }
  const std::uint32_t slot = acquire_slot();
  EventRecord& rec = slab_[slot];
  rec.when = when;
  rec.seq = next_seq_++;
  rec.live = true;
  rec.action = std::move(action);
  enqueue_record(slot, kWheelLevels);
  ++stats_->scheduled;
  stats_->peak_pending =
      std::max<std::uint64_t>(stats_->peak_pending, heap_.size() + parked_);
  return EventHandle{this, slot, rec.generation};
}

std::optional<Time> Scheduler::next_event_time() {
  if (!refresh_front()) return std::nullopt;
  return heap_[0].when;
}

void Scheduler::dispatch_front() {
  const std::uint32_t slot = heap_[0].slot();
  heap_pop_top();
  EventRecord& rec = slab_[slot];
  now_ = rec.when;
  rec.live = false;
  const std::uint32_t fired_generation = rec.generation;
  ++rec.generation;  // fired events no longer report pending()
  const std::uint64_t seq = rec.seq;
  // Move the closure out and recycle the slot *before* invoking: a
  // handler that reschedules (the common timer pattern) reuses this
  // very record, so steady state touches the allocator not at all.
  Action action = std::move(rec.action);
  release_slot(slot);
  // Pin the firing identity so the action's own handle stays inert
  // even across generation wraparound (see handle_pending).
  const std::uint32_t prev_slot = firing_slot_;
  const std::uint32_t prev_generation = firing_generation_;
  firing_slot_ = slot;
  firing_generation_ = fired_generation;
  scope_.emit(now_, obs::TraceType::kTimerFire, seq);
  action();
  firing_slot_ = prev_slot;
  firing_generation_ = prev_generation;
  ++stats_->executed;
}

std::uint64_t Scheduler::run_until(Time deadline) {
  std::uint64_t ran = 0;
  while (refresh_front()) {
    if (heap_[0].when > deadline) break;
    dispatch_front();
    ++ran;
  }
  if (deadline != kNever && now_ < deadline) now_ = deadline;
  return ran;
}

bool Scheduler::step() {
  if (!refresh_front()) return false;
  dispatch_front();
  return true;
}

}  // namespace express::sim
