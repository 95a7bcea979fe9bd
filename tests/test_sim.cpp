// Unit tests for the discrete-event scheduler and deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace express::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time{0});
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(seconds(3), [&] { order.push_back(3); });
  s.schedule_at(seconds(1), [&] { order.push_back(1); });
  s.schedule_at(seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), seconds(3));
}

TEST(Scheduler, EqualTimesFireInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(seconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  Time fired{};
  s.schedule_at(seconds(10), [&] {
    s.schedule_after(seconds(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, seconds(15));
}

TEST(Scheduler, NextEventTimePeeksWithoutRunning) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), std::nullopt);
  s.schedule_at(seconds(4), [] {});
  s.schedule_at(seconds(2), [] {});
  EXPECT_EQ(s.next_event_time(), std::optional<Time>(seconds(2)));
  EXPECT_EQ(s.now(), Time{0});  // peeking advances nothing
  s.run();
  EXPECT_EQ(s.next_event_time(), std::nullopt);
}

TEST(Scheduler, NextEventTimeSeesThroughCancelledTops) {
  Scheduler s;
  auto first = s.schedule_at(seconds(1), [] {});
  auto second = s.schedule_at(seconds(2), [] {});
  s.schedule_at(seconds(3), [] {});
  first.cancel();
  second.cancel();
  // Both dead entries at the top of the heap are reclaimed in passing.
  EXPECT_EQ(s.next_event_time(), std::optional<Time>(seconds(3)));
  auto cancelled_all = s.schedule_at(seconds(10), [] {});
  s.run();
  cancelled_all.cancel();
  EXPECT_EQ(s.next_event_time(), std::nullopt);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(seconds(1), [&] { ++fired; });
  s.schedule_at(seconds(10), [&] { ++fired; });
  s.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), seconds(5));  // clock advances to the deadline
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PastSchedulingClampsToNow) {
  Scheduler s;
  Time fired = kNever;
  s.schedule_at(seconds(10), [&] {
    s.schedule_at(seconds(2), [&] { fired = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(fired, seconds(10));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventHandle h = s.schedule_at(seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Scheduler, FiredEventNoLongerPending) {
  Scheduler s;
  EventHandle h = s.schedule_at(seconds(1), [] {});
  s.run();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, CancelAfterFireIsSafe) {
  Scheduler s;
  EventHandle h = s.schedule_at(seconds(1), [] {});
  s.run();
  h.cancel();  // no-op
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, EmptyHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(seconds(1), [&] { ++fired; });
  s.schedule_at(seconds(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PastSchedulingIsCounted) {
  Scheduler s;
  EXPECT_EQ(s.clamped_past_events(), 0u);
  s.schedule_at(seconds(10), [&] {
    s.schedule_at(seconds(2), [] {});  // in the past: clamped + counted
    s.schedule_at(seconds(11), [] {});  // in the future: not counted
  });
  s.run();
  EXPECT_EQ(s.clamped_past_events(), 1u);
  EXPECT_EQ(s.stats().clamped_past_events, 1u);
}

TEST(Scheduler, HandleToRecycledSlotIsInert) {
  // After an event fires, its slab slot is recycled for the next event.
  // A stale handle to the fired event must not report pending and must
  // not cancel the slot's new occupant.
  Scheduler s;
  bool first = false;
  bool second = false;
  EventHandle stale = s.schedule_at(seconds(1), [&] { first = true; });
  s.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(stale.pending());

  EventHandle fresh = s.schedule_at(seconds(2), [&] { second = true; });
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // must be a no-op on the recycled slot
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(second);
  EXPECT_FALSE(fresh.pending());
}

TEST(Scheduler, CopiedHandlesSeeTheSameEvent) {
  Scheduler s;
  bool fired = false;
  EventHandle a = s.schedule_at(seconds(1), [&] { fired = true; });
  EventHandle b = a;
  EXPECT_TRUE(b.pending());
  a.cancel();
  EXPECT_FALSE(b.pending());
  b.cancel();  // safe double-cancel through the copy
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, StatsCountScheduledCancelledExecuted) {
  Scheduler s;
  EventHandle h1 = s.schedule_at(seconds(1), [] {});
  s.schedule_at(seconds(2), [] {});
  s.schedule_at(seconds(3), [] {});
  h1.cancel();
  s.run();
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.scheduled, 3u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.executed, 2u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_GE(st.peak_pending, 3u);
  EXPECT_EQ(st.slab_slots, st.free_slots);  // everything recycled
}

TEST(Scheduler, SlabStopsGrowingInSteadyState) {
  // The zero-allocation property: once the high-water mark of
  // concurrent events is reached, schedule/dispatch cycles recycle
  // slots instead of allocating new ones.
  Scheduler s;
  for (int round = 0; round < 3; ++round) {  // warm up the slab
    for (int i = 0; i < 16; ++i) s.schedule_after(seconds(1), [] {});
    s.run();
  }
  const std::uint64_t high_water = s.stats().slab_slots;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 16; ++i) s.schedule_after(seconds(1), [] {});
    s.run();
  }
  EXPECT_EQ(s.stats().slab_slots, high_water);
  EXPECT_EQ(s.stats().free_slots, high_water);
}

TEST(Scheduler, CancelledSlotsAreRecycledToo) {
  Scheduler s;
  for (int round = 0; round < 3; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(s.schedule_after(seconds(1), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  const std::uint64_t high_water = s.stats().slab_slots;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(s.schedule_after(seconds(1), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  EXPECT_EQ(s.stats().slab_slots, high_water);
  EXPECT_EQ(s.stats().cancelled, 53u * 8u);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Scheduler, FifoTieBreakSurvivesCancellationsInBetween) {
  // Cancel every other event at one instant; survivors must still fire
  // in insertion order.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(s.schedule_at(seconds(5), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(seconds(1), recurse);
  };
  s.schedule_at(Time{0}, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), seconds(99));
}

TEST(Scheduler, CancellingTheInFlightEventIsANoOp) {
  // The ecmp::Batcher pattern: a timer action that flushes state and, in
  // doing so, cancels its *own* handle. Dispatch recycles the slot
  // before the action runs, so the stranger scheduled inside the action
  // reuses it — the self-cancel must never reach that stranger.
  Scheduler s;
  bool pending_during_fire = false;
  bool stranger_fired = false;
  EventHandle self;
  self = s.schedule_at(Time{10}, [&] {
    s.schedule_at(Time{20}, [&stranger_fired] { stranger_fired = true; });
    pending_during_fire = self.pending();
    self.cancel();
  });
  s.run();
  EXPECT_FALSE(pending_during_fire);  // in-flight event is not pending
  EXPECT_TRUE(stranger_fired);
  EXPECT_EQ(s.stats().cancelled, 0u);
}

TEST(Scheduler, SelfCancelStaysInertUnderHeavySlotRecycling) {
  // Regression stress for the firing-identity guard: a long chain of
  // self-rescheduling timers, each firing cancels its own handle after
  // scheduling a stranger that recycles the just-freed slot. No round
  // may observe itself pending, cancel a stranger, or bump the
  // cancelled counter.
  Scheduler s;
  constexpr int kRounds = 5000;
  int rounds = 0;
  int strangers = 0;
  int pending_seen = 0;
  EventHandle self;
  std::function<void()> round = [&] {
    ++rounds;
    s.schedule_after(Duration{1}, [&strangers] { ++strangers; });
    if (self.pending()) ++pending_seen;
    self.cancel();
    if (rounds < kRounds) {
      self = s.schedule_after(Duration{2}, [&] { round(); });
    }
  };
  self = s.schedule_at(Time{1}, [&] { round(); });
  s.run();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_EQ(strangers, kRounds);
  EXPECT_EQ(pending_seen, 0);
  EXPECT_EQ(s.stats().cancelled, 0u);
  EXPECT_EQ(s.stats().executed, static_cast<std::uint64_t>(2 * kRounds));
}

TEST(Scheduler, MixedLoadFiresInTimeThenSchedulingOrder) {
  // Oracle check of the dispatch contract: every event that is not
  // cancelled fires at its scheduled time, in (time, scheduling order).
  // The test logs each schedule call and derives the expected order
  // itself with a stable sort on time.
  struct Armed {
    Time at{};
    std::uint64_t id = 0;
    bool cancelled = false;
  };
  struct Fired {
    Time at{};
    std::uint64_t id = 0;
    bool operator==(const Fired&) const = default;
  };
  Scheduler s;
  std::vector<Armed> armed;  // in scheduling order
  std::vector<Fired> fired;
  auto arm = [&](Time when) {
    const std::uint64_t id = armed.size();
    armed.push_back({when, id});
    return s.schedule_at(
        when, [&fired, &s, id] { fired.push_back({s.now(), id}); });
  };

  // A spread of near, mid and far delays.
  Rng rng(99);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 2000; ++i) {
    Duration d{};
    switch (rng.below(4)) {
      case 0: d = microseconds(rng.below(2000)); break;
      case 1: d = milliseconds(rng.below(200)); break;
      case 2: d = milliseconds(200 + rng.below(60000)); break;
      default: d = seconds(60 + rng.below(10000)); break;
    }
    handles.push_back(arm(s.now() + d));
  }

  // Equal-time burst: FIFO tie-break among identical timestamps.
  for (int i = 0; i < 50; ++i) arm(Time{milliseconds(500)});

  // Cancel a deterministic subset.
  for (std::size_t i = 0; i < handles.size(); i += 7) {
    handles[i].cancel();
    armed[i].cancelled = true;
  }

  // A self-rescheduling 37 s timer, re-armed from inside dispatch.
  int hops = 40;
  std::function<void(Time)> arm_hop = [&](Time when) {
    const std::uint64_t id = armed.size();
    armed.push_back({when, id});
    s.schedule_at(when, [&fired, &s, &hops, &arm_hop, id] {
      fired.push_back({s.now(), id});
      if (--hops > 0) arm_hop(s.now() + seconds(37));
    });
  };
  arm_hop(Time{milliseconds(1)});

  // Run in deadline slices, then drain.
  s.run_until(Time{seconds(1)});
  s.run_until(Time{seconds(120)});
  s.run();

  std::vector<Armed> expected;
  for (const Armed& a : armed) {
    if (!a.cancelled) expected.push_back(a);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Armed& a, const Armed& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_TRUE(fired[i] == (Fired{expected[i].at, expected[i].id}))
        << "divergence at event " << i << ": fired id " << fired[i].id
        << " at " << fired[i].at.count() << " ns, expected id "
        << expected[i].id << " at " << expected[i].at.count() << " ns";
  }
}

TEST(Scheduler, FarEventIsVisibleAcrossADeadline) {
  Scheduler s;
  std::uint64_t fired = 0;
  s.schedule_after(milliseconds(1), [&fired] { ++fired; });
  s.schedule_after(seconds(30), [&fired] { ++fired; });
  EXPECT_EQ(s.pending_events(), 2u);
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), Time{milliseconds(1)});
  s.run_until(Time{seconds(1)});
  EXPECT_EQ(fired, 1u);
  // The far timer is still queued, and the quiescence probe reports its
  // true time.
  EXPECT_EQ(s.pending_events(), 1u);
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), Time{seconds(30)});
  s.run();
  EXPECT_EQ(fired, 2u);
}

TEST(Scheduler, CancelledFarEventNeverFiresAndFreesItsSlot) {
  Scheduler s;
  std::uint64_t fired = 0;
  EventHandle far = s.schedule_after(seconds(45), [&fired] { ++fired; });
  EXPECT_TRUE(far.pending());
  far.cancel();
  EXPECT_FALSE(far.pending());
  s.run();
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(s.executed_events(), 0u);
  EXPECT_EQ(s.stats().cancelled, 1u);
  EXPECT_EQ(s.stats().pending, 0u);
  EXPECT_EQ(s.stats().free_slots, 1u);  // reclaimed when it surfaced
}

TEST(Scheduler, DeadlineBetweenTwoCloseEventsSplitsThem) {
  // A run_until deadline that falls between two events 10 us apart
  // fires the first and leaves the second to fire on time afterwards.
  Scheduler s;
  std::vector<Time> fired;
  s.schedule_at(Time{seconds(10)}, [&] { fired.push_back(s.now()); });
  s.schedule_at(Time{seconds(10) + microseconds(10)},
                [&] { fired.push_back(s.now()); });
  s.run_until(Time{seconds(10) + microseconds(5)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(s.now(), Time{seconds(10) + microseconds(5)});
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], Time{seconds(10) + microseconds(10)});
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(2), milliseconds(2000));
  EXPECT_EQ(milliseconds(3), microseconds(3000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds_f(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(7)), 7.0);
}

}  // namespace
}  // namespace express::sim
