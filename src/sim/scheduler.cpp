#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace express::sim {

namespace {
constexpr std::size_t kArity = 4;  // 4-ary heap: shallower, cache-friendlier
}  // namespace

Scheduler::Scheduler(obs::Scope scope)
    : scope_(scope.resolved()),
      stats_(scope_.bind<SchedulerStats>({
          {&SchedulerStats::scheduled, "sim.sched.scheduled"},
          {&SchedulerStats::executed, "sim.sched.executed"},
          {&SchedulerStats::cancelled, "sim.sched.cancelled"},
          {&SchedulerStats::clamped_past_events, "sim.sched.clamped_past"},
          {&SchedulerStats::peak_pending, "sim.sched.peak_pending",
           obs::MetricKind::kGauge},
      })) {}

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

bool Scheduler::refresh_front() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_[0].slot();
    if (slab_[slot].live) return true;
    heap_pop_top();  // lazily-cancelled: reclaim and move on
    release_slot(slot);
  }
  return false;
}

EventHandle Scheduler::schedule_at(Time when, Action action) {
  if (when < now_) {
    when = now_;
    ++stats_->clamped_past_events;
  }
  const std::uint32_t slot = acquire_slot();
  EventRecord& rec = slab_[slot];
  rec.live = true;
  rec.action = std::move(action);
  heap_push(HeapEntry{when, next_seq_++, slot});
  ++stats_->scheduled;
  stats_->peak_pending =
      std::max<std::uint64_t>(stats_->peak_pending, heap_.size());
  return EventHandle{this, slot, rec.generation};
}

std::optional<Time> Scheduler::next_event_time() {
  if (!refresh_front()) return std::nullopt;
  return heap_[0].when;
}

void Scheduler::dispatch_front() {
  const HeapEntry front = heap_[0];
  heap_pop_top();
  const std::uint32_t slot = front.slot();
  EventRecord& rec = slab_[slot];
  now_ = front.when;
  rec.live = false;
  const std::uint32_t fired_generation = rec.generation;
  ++rec.generation;  // fired events no longer report pending()
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
  scope_.emit(now_, obs::TraceType::kTimerFire, front.seq());
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
