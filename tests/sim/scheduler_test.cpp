#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace mts::sim {
namespace {

TEST(SchedulerTest, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::ms(3), [&] { order.push_back(3); });
  s.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::ms(3));
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, ScheduleInIsRelative) {
  Scheduler s;
  Time fired;
  s.schedule_at(Time::ms(10), [&] {
    s.schedule_in(Time::ms(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::ms(15));
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(Time::ms(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::ms(5), [] {}), SimError);
}

TEST(SchedulerTest, EmptyCallbackThrows) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(Time::ms(1), std::function<void()>{}), SimError);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(Time::ms(1), [&] { ran = true; });
  EXPECT_TRUE(s.is_pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.is_pending(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelTwiceReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, CancelAfterFireReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(10), [&] { order.push_back(10); });
  s.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), Time::ms(5));  // time advances even with no event
  EXPECT_EQ(s.pending_count(), 1u);
  s.run_until(Time::ms(20));
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(SchedulerTest, EventAtBoundaryRuns) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(Time::ms(5), [&] { ran = true; });
  s.run_until(Time::ms(5));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, StopHaltsRun) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(Time::ms(i), [&] {
      ++count;
      if (count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_count(), 7u);
}

TEST(SchedulerTest, StopInsideRunUntilKeepsTheClockAtTheStop) {
  Scheduler s;
  std::vector<Time> fired;
  s.schedule_at(Time::sec(1), [&] {
    fired.push_back(s.now());
    s.stop();
  });
  s.schedule_at(Time::sec(2), [&] { fired.push_back(s.now()); });
  s.run_until(Time::sec(5));
  EXPECT_EQ(s.now(), Time::sec(1));
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.next_event_time(), Time::sec(2));
  const Time before = s.now();
  s.run_until(Time::sec(5));
  EXPECT_EQ(fired, (std::vector<Time>{Time::sec(1), Time::sec(2)}));
  EXPECT_GE(fired.back(), before) << "time went backwards";
  EXPECT_EQ(s.now(), Time::sec(5));
}

TEST(SchedulerTest, RunStepsExecutesExactly) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(Time::ms(i), [&] { ++count; });
  }
  EXPECT_EQ(s.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.run_steps(10), 2u);
  EXPECT_EQ(count, 5);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(Time::us(1), recurse);
  };
  s.schedule_at(Time::zero(), recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), Time::us(99));
}

TEST(SchedulerTest, ExecutedCountTracksHistory) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(Time::ms(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_count(), 7u);
}

TEST(SchedulerTest, NextEventTimeSkipsCancelled) {
  Scheduler s;
  const EventId early = s.schedule_at(Time::ms(1), [] {});
  s.schedule_at(Time::ms(2), [] {});
  EXPECT_EQ(s.next_event_time(), Time::ms(1));
  s.cancel(early);
  EXPECT_EQ(s.next_event_time(), Time::ms(2));
}

TEST(SchedulerTest, NextEventTimeOnEmptyIsMax) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), Time::max());
}

TEST(SchedulerTest, PeekThenEarlierScheduleKeepsPopOrder) {
  // A peek must not commit the queue to the event it saw: an event
  // scheduled after the peek at an earlier time pops first, and now()
  // never moves backwards.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::sec(10), [&] { order.push_back(10); });
  EXPECT_EQ(s.next_event_time(), Time::sec(10));
  s.schedule_at(Time::sec(1), [&] { order.push_back(1); });
  EXPECT_EQ(s.next_event_time(), Time::sec(1));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
  EXPECT_EQ(s.now(), Time::sec(10));
}

TEST(SchedulerTest, RunUntilThenEarlierScheduleKeepsPopOrder) {
  // Same pattern through the co-sim boundary: run_until peeks past its
  // end time, then the driver schedules earlier than everything pending.
  Scheduler s;
  std::vector<Time> fired;
  s.schedule_at(Time::sec(30), [&] { fired.push_back(s.now()); });
  s.run_until(Time::ms(1));  // peeks, pops nothing
  s.schedule_at(Time::sec(2), [&] { fired.push_back(s.now()); });
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Time::sec(2));
  EXPECT_EQ(fired[1], Time::sec(30));
}

TEST(SchedulerTest, ZeroDelayEventRunsAtCurrentTime) {
  Scheduler s;
  Time fired = Time::max();
  s.schedule_at(Time::ms(5), [&] {
    s.schedule_in(Time::zero(), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::ms(5));
}

// --------------------------------------------------------------------------
// Semantics the event-core refactor must preserve exactly.  These were
// written (and green) against the lazy-delete priority_queue core before
// the slot-pool rewrite landed.
// --------------------------------------------------------------------------

TEST(SchedulerTest, SameTickFifoSurvivesInterleavedCancels) {
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(s.schedule_at(Time::ms(7), [&order, i] { order.push_back(i); }));
  }
  // Cancelling every third event must not disturb the relative order of
  // the survivors.
  for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run();
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, CancelDuringDispatchOfSameTick) {
  // An event may cancel a later event scheduled for the very same tick;
  // the victim must not fire even though dispatch of that tick already
  // began.
  Scheduler s;
  bool victim_ran = false;
  EventId victim = kInvalidEvent;
  s.schedule_at(Time::ms(1), [&] { EXPECT_TRUE(s.cancel(victim)); });
  victim = s.schedule_at(Time::ms(1), [&] { victim_ran = true; });
  s.schedule_at(Time::ms(1), [] {});  // a survivor behind the victim
  s.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(s.executed_count(), 2u);
}

TEST(SchedulerTest, CancelOfSelfDuringDispatchReturnsFalse) {
  Scheduler s;
  EventId self = kInvalidEvent;
  bool cancel_result = true;
  self = s.schedule_at(Time::ms(1), [&] {
    cancel_result = s.cancel(self);
    EXPECT_FALSE(s.is_pending(self));
  });
  s.run();
  EXPECT_FALSE(cancel_result);
}

TEST(SchedulerTest, StaleIdCancelStaysFalseAfterHeavyReuse) {
  // After an event fires, its id must never cancel (or report pending
  // for) any later event — even once internal storage gets reused by
  // thousands of newer events.
  Scheduler s;
  const EventId old_id = s.schedule_at(Time::ms(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(old_id));
  int ran = 0;
  std::vector<EventId> fresh;
  for (int i = 0; i < 4096; ++i) {
    fresh.push_back(s.schedule_at(Time::ms(2 + i), [&ran] { ++ran; }));
  }
  EXPECT_FALSE(s.is_pending(old_id));
  EXPECT_FALSE(s.cancel(old_id));  // must not kill a recycled slot
  s.run();
  EXPECT_EQ(ran, 4096);
  for (EventId id : fresh) EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, CancelledIdStaysDeadAfterReuse) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::ms(1), [] {});
  EXPECT_TRUE(s.cancel(a));
  bool ran = false;
  s.schedule_at(Time::ms(1), [&ran] { ran = true; });
  EXPECT_FALSE(s.cancel(a));  // stale id, possibly recycled storage
  s.run();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, PendingCountTracksCancels) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.schedule_at(Time::ms(1), [] {}));
  EXPECT_EQ(s.pending_count(), 10u);
  for (int i = 0; i < 10; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_count(), 5u);
  s.run();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.executed_count(), 5u);
}

TEST(SchedulerTest, RescheduleMovesPendingEvent) {
  Scheduler s;
  Time fired = Time::zero();
  const EventId id = s.schedule_at(Time::ms(5), [&] { fired = s.now(); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(20)));
  EXPECT_TRUE(s.is_pending(id));
  s.run();
  EXPECT_EQ(fired, Time::ms(20));
  EXPECT_EQ(s.executed_count(), 1u);
}

TEST(SchedulerTest, RescheduleEarlierWorks) {
  Scheduler s;
  Time fired = Time::zero();
  const EventId id = s.schedule_at(Time::ms(50), [&] { fired = s.now(); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(2)));
  s.run();
  EXPECT_EQ(fired, Time::ms(2));
}

TEST(SchedulerTest, RescheduleOrdersLikeFreshSchedule) {
  // A rescheduled event draws a new insertion sequence: same-tick
  // events queued before the reschedule run first.
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(Time::ms(1), [&] { order.push_back(2); });
  s.schedule_at(Time::ms(10), [&] { order.push_back(1); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(10)));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RescheduleStaleIdReturnsFalse) {
  Scheduler s;
  const EventId fired = s.schedule_at(Time::ms(1), [] {});
  const EventId cancelled = s.schedule_at(Time::ms(2), [] {});
  s.cancel(cancelled);
  s.run();
  EXPECT_FALSE(s.reschedule(fired, Time::ms(10)));
  EXPECT_FALSE(s.reschedule(cancelled, Time::ms(10)));
  EXPECT_FALSE(s.reschedule(kInvalidEvent, Time::ms(10)));
}

TEST(SchedulerTest, RescheduleIntoPastThrows) {
  Scheduler s;
  s.schedule_at(Time::ms(10), [] {});
  const EventId id = s.schedule_at(Time::ms(20), [] {});
  s.run_until(Time::ms(15));
  EXPECT_THROW(s.reschedule(id, Time::ms(5)), SimError);
}

TEST(SchedulerTest, WidelySpreadTimersStayOrdered) {
  // Sparse events across six decades of time: gaps of any size between
  // consecutive events keep the pop order sorted.
  Scheduler s;
  std::vector<std::int64_t> fired_ns;
  for (std::int64_t ns : {1ll, 900ll, 40000ll, 2000000ll, 700000000ll,
                          30000000000ll, 31000000000ll}) {
    s.schedule_at(Time::ns(ns), [&fired_ns, ns] { fired_ns.push_back(ns); });
  }
  s.run();
  EXPECT_EQ(fired_ns.size(), 7u);
  EXPECT_TRUE(std::is_sorted(fired_ns.begin(), fired_ns.end()));
}

TEST(SchedulerTest, BimodalNearAndFarEventsInterleaveCorrectly) {
  // The 10k-node shape: dense nanosecond-spaced events next to timers
  // parked milliseconds to seconds out.  Every event must fire in global
  // (time, insertion) order, including far events scheduled from inside
  // near callbacks.
  Scheduler s;
  std::vector<std::int64_t> fired_ns;
  const auto record = [&s, &fired_ns] {
    fired_ns.push_back(s.now().nanoseconds());
  };
  for (int i = 0; i < 200; ++i) {
    s.schedule_at(Time::ns(10 + i * 3), record);          // near burst
    s.schedule_at(Time::ms(50 + i * 7), record);          // far timers
  }
  s.schedule_at(Time::ns(100), [&s, record] {
    s.schedule_at(Time::seconds(2), record);              // far from near
  });
  s.run();
  EXPECT_EQ(fired_ns.size(), 401u);
  EXPECT_TRUE(std::is_sorted(fired_ns.begin(), fired_ns.end()));
  EXPECT_EQ(fired_ns.back(), Time::seconds(2).nanoseconds());
}

TEST(SchedulerTest, CancelAndRearmWhileParkedFar) {
  // Events cancelled or re-armed long before their time must neither
  // fire at their stale time nor linger: their tombstones are dropped
  // and the survivors fire in order.
  Scheduler s;
  std::vector<int> fired;
  std::vector<EventId> parked;
  for (int i = 0; i < 300; ++i) {
    parked.push_back(
        s.schedule_at(Time::ms(100 + i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 300; i += 2) EXPECT_TRUE(s.cancel(parked[i]));
  // Re-arm a survivor to the very end: it must fire last, once.
  EXPECT_TRUE(s.reschedule(parked[1], Time::seconds(5)));
  s.run();
  ASSERT_EQ(fired.size(), 150u);
  EXPECT_EQ(fired.back(), 1);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end() - 1));
  EXPECT_EQ(s.pending_count(), 0u);
}

/// Uniform draw in [lo, hi).
std::int64_t uniform_ns(std::mt19937_64& rng, std::int64_t lo,
                        std::int64_t hi) {
  return lo +
         static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(hi - lo));
}

TEST(SchedulerTest, DifferentialStressAgainstReferenceModel) {
  // Randomised schedule/cancel/reschedule mix, mirrored into an ordered
  // std::map reference keyed (time, op-sequence): the scheduler must
  // fire exactly the reference's order, including across tombstone
  // compactions.  Each case draws delays from one input shape.
  struct Case {
    const char* name;
    std::uint64_t seed;
    int rounds;
    /// Draws a schedule delay (ns) from the shape.
    std::int64_t (*delay)(std::mt19937_64&);
    /// Draws a reschedule delay (ns).
    std::int64_t (*rearm)(std::mt19937_64&);
    /// One op in this many drains a few events (0: drain only at the end).
    std::uint64_t run_every;
  };
  const Case cases[] = {
      // Time ties are frequent by construction (small time range, many
      // events); an occasional delay lands milliseconds out.
      {"dense_ties", 0xC0FFEE, 3000,
       [](std::mt19937_64& rng) {
         return (rng() % 8 == 0) ? uniform_ns(rng, 1000000, 100000000)
                                 : uniform_ns(rng, 0, 200);
       },
       [](std::mt19937_64& rng) { return uniform_ns(rng, 0, 200); }, 0},
      // The 1k-node arena: bursts of receptions a few ns to a few
      // microseconds apart, thousands of timers parked seconds out, and
      // timers cancelled or re-armed constantly while time advances.
      {"arena", 0xA5E7A, 20000,
       [](std::mt19937_64& rng) {
         switch (rng() % 4) {
           case 0: return uniform_ns(rng, 1000000000, 5000000000);  // timer
           case 1: return uniform_ns(rng, 0, 4);                    // tie
           default: return uniform_ns(rng, 0, 5000);                // burst
         }
       },
       [](std::mt19937_64& rng) {
         return (rng() % 2 == 0) ? uniform_ns(rng, 1000000000, 5000000000)
                                 : uniform_ns(rng, 0, 300000);
       },
       40},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Scheduler s;
    std::mt19937_64 rng(c.seed);
    using Key = std::pair<std::int64_t, std::uint64_t>;  // (t_ns, seq)
    std::map<Key, std::pair<int, EventId>> ref;  // pending, in fire order
    std::map<EventId, std::pair<Key, int>> by_id;  // id -> (key, label)
    std::vector<int> fired;
    std::vector<int> expected;
    std::uint64_t seq = 0;
    int label = 0;
    for (int round = 0; round < c.rounds; ++round) {
      if (c.run_every != 0 && rng() % c.run_every == 0) {
        // Drain a few events; the reference pops the same count.
        const std::size_t n = s.run_steps(1 + rng() % 32);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_FALSE(ref.empty());
          expected.push_back(ref.begin()->second.first);
          by_id.erase(ref.begin()->second.second);
          ref.erase(ref.begin());
        }
        ASSERT_EQ(fired, expected);
        continue;
      }
      const auto op = rng() % 10;
      if (op < 6 || by_id.empty()) {
        const Time at = s.now() + Time::ns(c.delay(rng));
        const int l = label++;
        const EventId id =
            s.schedule_at(at, [&fired, l] { fired.push_back(l); });
        const Key key{at.nanoseconds(), seq++};
        ref.emplace(key, std::make_pair(l, id));
        by_id.emplace(id, std::make_pair(key, l));
      } else if (op < 8) {
        auto it = by_id.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng() % by_id.size()));
        EXPECT_TRUE(s.cancel(it->first));
        ref.erase(it->second.first);
        by_id.erase(it);
      } else {
        auto it = by_id.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng() % by_id.size()));
        const Time at = s.now() + Time::ns(c.rearm(rng));
        EXPECT_TRUE(s.reschedule(it->first, at));
        ref.erase(it->second.first);
        const Key key{at.nanoseconds(), seq++};
        ref.emplace(key, std::make_pair(it->second.second, it->first));
        it->second.first = key;
      }
    }
    EXPECT_EQ(s.pending_count(), ref.size());
    EXPECT_LE(s.queued_entries(), 2 * s.pending_count() + 64);
    s.run();
    for (const auto& [key, v] : ref) expected.push_back(v.first);
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(s.pending_count(), 0u);
  }
}

TEST(SchedulerTest, RearmedTimerKeepsQueueStorageBounded) {
  // Every re-arm leaves a tombstone behind; the queue must drop them so
  // its storage tracks the pending set, not the re-arm count.
  Scheduler s;
  for (int i = 1; i <= 4; ++i) s.schedule_at(Time::sec(100 * i), [] {});
  int fired = 0;
  const EventId timer = s.schedule_at(Time::ms(1), [&fired] { ++fired; });
  std::size_t peak = 0;
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(s.reschedule(timer, Time::ms(1) + Time::ns(i % 997)));
    peak = std::max(peak, s.queued_entries());
  }
  EXPECT_EQ(s.pending_count(), 5u);
  EXPECT_LE(peak, 2 * s.pending_count() + 64);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.queued_entries(), 0u);
}

TEST(SchedulerTest, ManyTicksInterleavedScheduleCancelKeepsOrder) {
  // A torture mix of schedule/cancel across several ticks: execution
  // order must equal (time, insertion order) over the survivors.
  Scheduler s;
  std::vector<std::pair<int, int>> order;  // (tick, serial)
  std::vector<EventId> cancellable;
  int serial = 0;
  for (int round = 0; round < 8; ++round) {
    for (int tick = 1; tick <= 4; ++tick) {
      const int id = serial++;
      const EventId ev = s.schedule_at(
          Time::ms(tick), [&order, tick, id] { order.emplace_back(tick, id); });
      if (id % 2 == 1) cancellable.push_back(ev);
    }
  }
  for (EventId ev : cancellable) EXPECT_TRUE(s.cancel(ev));
  s.run();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SchedulerTest, WaveStepsCountPerCategoryAndFinishEmpty) {
  // A wave of three steps is one pending entry throughout; each step
  // counts as one executed event of the category booked for it, and the
  // entry and its slot go away after a step that books nothing.
  Scheduler s;
  const std::uint64_t seq = s.reserve_seqs(3);
  std::vector<std::pair<std::int64_t, int>> fired;  // (now ns, step)
  int step = 0;
  s.schedule_wave(
      Time::us(1), seq,
      [&] {
        fired.emplace_back(s.now().nanoseconds(), step);
        switch (step++) {
          case 0:
            s.continue_wave(Time::us(2), seq + 1, EventCategory::kPhy);
            break;
          case 1:
            s.continue_wave(Time::us(2), seq + 2, EventCategory::kChannel);
            break;
          default:
            break;  // nothing left: the wave ends
        }
      },
      EventCategory::kChannel);
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.next_event_time(), Time::us(1));
  EXPECT_EQ(s.run_steps(1), 1u);
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.queued_entries(), 1u);
  EXPECT_EQ(s.next_event_time(), Time::us(2));
  s.run();
  EXPECT_EQ(fired, (std::vector<std::pair<std::int64_t, int>>{
                       {1000, 0}, {2000, 1}, {2000, 2}}));
  EXPECT_EQ(s.executed_count(), 3u);
  EXPECT_EQ(s.executed_count(EventCategory::kChannel), 2u);
  EXPECT_EQ(s.executed_count(EventCategory::kPhy), 1u);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.queued_entries(), 0u);
}

TEST(SchedulerTest, WaveOrdersLikeTheEventsItReplaces) {
  // Seqs reserved for a wave sort before anything scheduled after the
  // reservation at the same time, and after anything scheduled before.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::us(5), [&order] { order.push_back(0); });
  const std::uint64_t seq = s.reserve_seqs(2);
  s.schedule_at(Time::us(5), [&order] { order.push_back(3); });
  bool second = false;
  s.schedule_wave(
      Time::us(5), seq,
      [&] {
        order.push_back(second ? 2 : 1);
        if (!second) {
          second = true;
          // Scheduled inside the step at the step's own time: still
          // after the wave's next step, whose seq is older.
          s.schedule_at(Time::us(5), [&order] { order.push_back(4); });
          s.continue_wave(Time::us(5), seq + 1, EventCategory::kChannel);
        }
      },
      EventCategory::kChannel);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ContinueWaveOutsideAStepThrows) {
  Scheduler s;
  const std::uint64_t seq = s.reserve_seqs(1);
  EXPECT_THROW(s.continue_wave(Time::us(1), seq, EventCategory::kChannel),
               SimError);
  s.schedule_at(Time::us(1), [&s, seq] {
    s.continue_wave(Time::us(2), seq, EventCategory::kChannel);
  });
  EXPECT_THROW(s.run(), SimError);
}

/// One random program of plain events and waves, run either through the
/// wave seam or with every wave step scheduled as its own event.  Both
/// modes draw the same seqs at the same moments (a wave's reservation
/// stands for its arrivals' schedules; an end's seq for the end's
/// schedule), so they must fire the same labels in the same order.
/// Steps schedule, cancel and re-arm plain events, start nested waves,
/// call stop(), and now and then cancel most plain events at once,
/// enough to compact the queue in the middle of a wave step.
class WaveProgram {
 public:
  WaveProgram(bool use_waves, std::uint64_t seed)
      : use_waves_(use_waves), rng_(seed) {}

  Scheduler s;
  std::vector<std::uint64_t> log;  ///< labels in fire order
  bool compacted_in_step = false;

  void start() {
    for (int i = 0; i < 300; ++i) {
      add_plain(uniform_ns(rng_, 1000000, 900000000));
    }
    for (int i = 0; i < 8; ++i) start_wave();
  }

 private:
  struct Step {
    Time t;
    std::uint64_t seq;
    std::uint64_t label;
  };
  struct Wave {
    Time airtime;
    std::vector<Step> arrivals;
    std::vector<Step> ends;
    std::size_t next_arrival = 0;
    std::size_t next_end = 0;
  };

  static bool before(const Step& a, const Step& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  void start_wave() {
    const std::uint64_t id = next_wave_++;
    const std::size_t k = rng_() % 6;  // zero arrivals: nothing at all
    const Time airtime = Time::ns(uniform_ns(rng_, 0, 3000));
    std::vector<Time> at;
    for (std::size_t j = 0; j < k; ++j) {
      at.push_back(s.now() + Time::ns(uniform_ns(rng_, 0, 2000)));
    }
    if (k == 0) return;
    if (!use_waves_) {
      for (std::size_t j = 0; j < k; ++j) {
        s.schedule_at(
            at[j],
            [this, id, j, airtime] {
              if (arrival(label_of(id, j))) {
                s.schedule_in(airtime,
                              [this, id, j] { end(label_of(id, j) + 1); },
                              EventCategory::kPhy);
              }
              act();
            },
            EventCategory::kChannel);
      }
      return;
    }
    Wave& w = waves_.emplace_back();
    w.airtime = airtime;
    std::uint64_t seq = s.reserve_seqs(k);
    for (std::size_t j = 0; j < k; ++j) {
      w.arrivals.push_back(Step{at[j], seq++, label_of(id, j)});
    }
    std::sort(w.arrivals.begin(), w.arrivals.end(), before);
    s.schedule_wave(w.arrivals[0].t, w.arrivals[0].seq,
                    [this, &w] { step(w); }, EventCategory::kChannel);
  }

  void step(Wave& w) {
    in_step_ = true;
    const bool end_next =
        w.next_end < w.ends.size() &&
        (w.next_arrival == w.arrivals.size() ||
         before(w.ends[w.next_end], w.arrivals[w.next_arrival]));
    if (end_next) {
      end(w.ends[w.next_end++].label);
    } else {
      const Step a = w.arrivals[w.next_arrival++];
      if (arrival(a.label)) {
        w.ends.push_back(Step{s.now() + w.airtime, s.reserve_seqs(1),
                              a.label + 1});
      }
      act();
    }
    in_step_ = false;
    const bool arrivals_left = w.next_arrival < w.arrivals.size();
    const bool ends_left = w.next_end < w.ends.size();
    if (ends_left && (!arrivals_left || before(w.ends[w.next_end],
                                               w.arrivals[w.next_arrival]))) {
      const Step& e = w.ends[w.next_end];
      s.continue_wave(e.t, e.seq, EventCategory::kPhy);
    } else if (arrivals_left) {
      const Step& a = w.arrivals[w.next_arrival];
      s.continue_wave(a.t, a.seq, EventCategory::kChannel);
    }
  }

  static std::uint64_t label_of(std::uint64_t wave, std::size_t j) {
    return (wave << 16) | (j << 1) | (1ull << 62);
  }

  /// Returns whether the arrival books an end (a deaf receiver does not).
  bool arrival(std::uint64_t label) {
    log.push_back(label);
    return rng_() % 4 != 0;
  }

  void end(std::uint64_t label) {
    log.push_back(label);
    act();
  }

  void add_plain(std::int64_t delay_ns) {
    const std::uint64_t l = next_plain_++;
    const EventId id = s.schedule_in(
        Time::ns(delay_ns),
        [this, l] {
          log.push_back(l);
          forget(l);
          act();
        },
        EventCategory::kMac);
    plain_.push_back(l);
    ids_[l] = id;
  }

  void forget(std::uint64_t l) {
    plain_.erase(std::find(plain_.begin(), plain_.end(), l));
    ids_.erase(l);
  }

  /// A step's or event's side effects, drawn from the shared stream.
  void act() {
    if (budget_ == 0) return;
    --budget_;
    const auto op = rng_() % 100;
    if (op < 40) {
      add_plain(uniform_ns(rng_, 0, 4000));
    } else if (op < 55 && !plain_.empty()) {
      const std::uint64_t l = plain_[rng_() % plain_.size()];
      EXPECT_TRUE(s.cancel(ids_[l]));
      forget(l);
    } else if (op < 65 && !plain_.empty()) {
      const std::uint64_t l = plain_[rng_() % plain_.size()];
      EXPECT_TRUE(s.reschedule(ids_[l], s.now() + Time::ns(uniform_ns(
                                                      rng_, 0, 300000))));
    } else if (op < 85) {
      start_wave();
    } else if (op < 87) {
      // Cancel all but a quarter of the plain events, then refill the
      // far future: the tombstones outnumber the live entries.
      const std::size_t before_entries = s.queued_entries();
      const std::size_t keep = plain_.size() / 4;
      while (plain_.size() > keep) {
        const std::uint64_t l = plain_[rng_() % plain_.size()];
        EXPECT_TRUE(s.cancel(ids_[l]));
        forget(l);
      }
      if (in_step_ && s.queued_entries() < before_entries) {
        compacted_in_step = true;
      }
      for (int i = 0; i < 200; ++i) {
        add_plain(uniform_ns(rng_, 1000000, 900000000));
      }
    } else if (op < 90) {
      s.stop();  // the run returns after this event or step
    }
  }

  bool use_waves_;
  std::mt19937_64 rng_;
  std::deque<Wave> waves_;  ///< address-stable: steps start new waves
  std::vector<std::uint64_t> plain_;  ///< pending plain labels
  std::map<std::uint64_t, EventId> ids_;
  std::uint64_t next_plain_ = 0;
  std::uint64_t next_wave_ = 0;
  int budget_ = 6000;
  bool in_step_ = false;
};

/// Runs the wave and the plain-event version of seeded programs side by
/// side, advancing both with `advance(scheduler, rng)` until they drain,
/// and checks after every call that they agree.
template <typename Advance>
void expect_waves_fire_like_events(Advance advance) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    WaveProgram waves(true, seed);
    WaveProgram events(false, seed);
    waves.start();
    events.start();
    std::mt19937_64 chunks(seed * 7919);
    std::mt19937_64 chunks_copy = chunks;
    while (waves.s.pending_count() > 0 || events.s.pending_count() > 0) {
      ASSERT_EQ(advance(waves.s, chunks), advance(events.s, chunks_copy));
      ASSERT_EQ(waves.log.size(), events.log.size());
      ASSERT_EQ(waves.s.now(), events.s.now());
      ASSERT_EQ(waves.s.next_event_time(), events.s.next_event_time());
      for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
        const auto cat = static_cast<EventCategory>(c);
        ASSERT_EQ(waves.s.executed_count(cat), events.s.executed_count(cat));
      }
      ASSERT_EQ(waves.s.pending_count() == 0, events.s.pending_count() == 0);
    }
    EXPECT_EQ(waves.log, events.log);
    EXPECT_GT(waves.s.executed_count(EventCategory::kPhy), 1000u);
    EXPECT_TRUE(waves.compacted_in_step);
    EXPECT_EQ(waves.s.queued_entries(), 0u);
  }
}

TEST(SchedulerTest, WavesFireLikeIndividuallyScheduledEvents) {
  // run_steps(n): every wave step counts against n.
  expect_waves_fire_like_events([](Scheduler& s, std::mt19937_64& rng) {
    return s.run_steps(1 + rng() % 64);
  });
}

TEST(SchedulerTest, ChainedWaveStepsStopAtTheRunUntilEnd) {
  // Ends land just past the next event, so they often fall between two
  // steps of one wave: a chained step must not run past the end.  (A
  // stop() leaves now() at the stopping event, before the end.)
  expect_waves_fire_like_events([](Scheduler& s, std::mt19937_64& rng) {
    const Time end = std::max(s.now(), s.next_event_time()) +
                     Time::ns(static_cast<std::int64_t>(rng() % 3000));
    s.run_until(end);
    return s.now().nanoseconds();
  });
}

TEST(SchedulerTest, ChainedWaveStepsHonourStop) {
  // run() returns exactly where the program's stop() calls say.
  expect_waves_fire_like_events([](Scheduler& s, std::mt19937_64&) {
    s.run();
    return s.executed_count();
  });
}

/// A wave of `times.size()` steps, one per time, each counting as kPhy
/// and logging now() in `fired`; step k runs `on_step(k)` first.
template <typename OnStep>
void schedule_steps(Scheduler& s, const std::vector<Time>& times,
                    std::vector<std::int64_t>& fired, OnStep on_step) {
  const std::uint64_t seq = s.reserve_seqs(times.size());
  s.schedule_wave(
      times[0], seq,
      [&s, &fired, times, seq, on_step, k = std::size_t{0}]() mutable {
        fired.push_back(s.now().nanoseconds());
        on_step(k);
        if (++k < times.size()) {
          s.continue_wave(times[k], seq + k, EventCategory::kPhy);
        }
      },
      EventCategory::kPhy);
}

TEST(SchedulerTest, RunUntilEndBetweenTwoStepsOfAWave) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  schedule_steps(s, {Time::us(1), Time::us(2), Time::us(3)}, fired,
                 [](std::size_t) {});
  s.run_until(Time::ns(2500));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1000, 2000}));
  EXPECT_EQ(s.now(), Time::ns(2500));
  EXPECT_EQ(s.executed_count(EventCategory::kPhy), 2u);
  EXPECT_EQ(s.next_event_time(), Time::us(3));
  s.run_until(Time::us(3));  // the end is inclusive
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1000, 2000, 3000}));
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, StopInsideAWaveStepEndsTheRun) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  schedule_steps(s, {Time::us(1), Time::us(1), Time::us(2)}, fired,
                 [&s](std::size_t k) {
                   if (k == 0) s.stop();
                 });
  s.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1000}));
  EXPECT_EQ(s.executed_count(), 1u);
  EXPECT_EQ(s.next_event_time(), Time::us(1));
  s.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1000, 1000, 2000}));
  EXPECT_EQ(s.now(), Time::us(2));
}

TEST(SchedulerTest, RunStepsCountsEachWaveStep) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  schedule_steps(s, {Time::us(1), Time::us(1), Time::us(1), Time::us(2)},
                 fired, [](std::size_t) {});
  EXPECT_EQ(s.run_steps(1), 1u);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(s.run_steps(2), 2u);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(s.now(), Time::us(1));
  EXPECT_EQ(s.run_steps(5), 1u);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(s.executed_count(), 4u);
}

TEST(SchedulerTest, WaveChainYieldsToEarlierChildrenAndPassesTombstones) {
  // Around the wave's entry: an equal-time event with an older seq (it
  // runs between two steps), a cancelled one before the next step (its
  // tombstone only costs the chain a sift) and an equal-time event with
  // a newer seq (it waits for the step).
  Scheduler s;
  std::vector<std::int64_t> fired;
  std::vector<int> order;
  s.schedule_at(Time::us(2), [&order] { order.push_back(10); });
  const EventId dead =
      s.schedule_at(Time::ns(1500), [&order] { order.push_back(99); });
  schedule_steps(s, {Time::us(1), Time::us(2), Time::us(3)}, fired,
                 [&order](std::size_t k) { order.push_back(static_cast<int>(k)); });
  s.schedule_at(Time::us(2), [&order] { order.push_back(11); });
  ASSERT_TRUE(s.cancel(dead));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2}));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1000, 2000, 3000}));
  EXPECT_EQ(s.executed_count(), 5u);
  EXPECT_EQ(s.executed_count(EventCategory::kPhy), 3u);
}

TEST(SchedulerTest, CompactionInsideAChainedWaveStepKeepsTheOrder) {
  // Step 1 follows step 0 with nothing in between, so it runs chained;
  // it cancels most of the queue, which compacts it mid-step.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule_at(Time::sec(1) + Time::ns(i),
                                [&order, i] { order.push_back(100 + i); }));
  }
  std::vector<std::int64_t> fired;
  std::size_t before = 0;
  std::size_t after = 0;
  schedule_steps(s, {Time::us(1), Time::us(2), Time::us(3)}, fired,
                 [&](std::size_t k) {
                   order.push_back(static_cast<int>(k));
                   if (k != 1) return;
                   before = s.queued_entries();
                   for (int i = 0; i < 90; ++i) EXPECT_TRUE(s.cancel(ids[i]));
                   after = s.queued_entries();
                 });
  s.run();
  EXPECT_EQ(before, 101u);
  // The 65th tombstone outnumbered the 36 live entries and swept the
  // queue: 11 live entries are left, plus the last 25 cancels' tombstones.
  EXPECT_EQ(after, 11u + 25u);
  std::vector<int> want{0, 1, 2};
  for (int i = 90; i < 100; ++i) want.push_back(100 + i);
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.queued_entries(), 0u);
}

}  // namespace
}  // namespace mts::sim
