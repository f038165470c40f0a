// Calendar queue vs reference binary heap (tests/binary_heap_scheduler.h):
// the simulator's calendar queue must pop the exact (time, sequence) total
// order of a plain binary heap for any event stream. The property tests drive
// both with identical randomized interleaved push/pop streams -- ties,
// bucket-jumping time gaps, every EventKind including kFaultEvent and
// kDelayedScaleUp, grow and shrink resizes -- and with simulation-shaped
// streams: periodic control ticks that land on identical times, per-minute
// arrival batches, and follow-up events pushed at the current time.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "tests/binary_heap_scheduler.h"

namespace faro {
namespace {

void ExpectSameEvent(const Event& a, const Event& b, const std::string& label) {
  ASSERT_EQ(a.time, b.time) << label;
  ASSERT_EQ(a.kind, b.kind) << label;
  ASSERT_EQ(a.job, b.job) << label;
  ASSERT_EQ(a.sequence, b.sequence) << label;
  ASSERT_EQ(a.payload, b.payload) << label;
}

// Drives both schedulers with one randomized stream of pushes and pops and
// asserts the pop sequences are identical. `tie_prob` controls how often a
// pushed event reuses the current time exactly (sequence tie-break);
// `jump_prob` injects large time gaps that force the calendar queue through
// its sparse-population cursor jump.
void RunEquivalenceStream(uint64_t seed, size_t ops, double tie_prob,
                          double jump_prob) {
  BinaryHeapScheduler heap;
  CalendarQueueScheduler calendar;
  Rng rng(seed);
  uint64_t sequence = 0;
  double now = 0.0;
  const EventKind kinds[] = {
      EventKind::kArrival,     EventKind::kCompletion, EventKind::kReplicaReady,
      EventKind::kReactiveTick, EventKind::kDecideTick, EventKind::kMetricsTick,
      EventKind::kFaultEvent,  EventKind::kDelayedScaleUp,
  };
  const std::string label = "seed=" + std::to_string(seed);
  for (size_t op = 0; op < ops; ++op) {
    const bool can_pop = !heap.Empty();
    if (!can_pop || rng.Uniform() < 0.55) {
      // Push a batch of 1-4 events at or after `now`.
      const int batch = 1 + static_cast<int>(rng.Uniform() * 4.0);
      for (int b = 0; b < batch; ++b) {
        double time = now;
        const double u = rng.Uniform();
        if (u < tie_prob) {
          // exact tie with the current time
        } else if (u < tie_prob + jump_prob) {
          time = now + 1000.0 + rng.Uniform() * 100000.0;  // far-future year
        } else {
          time = now + rng.Uniform() * 90.0;
        }
        const Event event{time, kinds[static_cast<size_t>(rng.Uniform() * 8.0) % 8],
                          static_cast<uint32_t>(rng.Uniform() * 64.0), sequence++,
                          rng.Uniform()};
        heap.Push(event);
        calendar.Push(event);
      }
    } else {
      const Event a = heap.Pop();
      const Event b = calendar.Pop();
      ExpectSameEvent(a, b, label);
      ASSERT_GE(a.time, now) << label;  // pops are time-monotone
      now = a.time;
    }
    ASSERT_EQ(heap.size(), calendar.size()) << label;
    ASSERT_EQ(heap.NextTime(), calendar.NextTime()) << label;
  }
  // Drain both completely: the tails must match too.
  while (!heap.Empty()) {
    ASSERT_FALSE(calendar.Empty()) << label;
    ExpectSameEvent(heap.Pop(), calendar.Pop(), label + " drain");
  }
  EXPECT_TRUE(calendar.Empty()) << label;
}

TEST(EventQueueTest, RandomizedStreamsPopIdentically) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunEquivalenceStream(seed, 4000, /*tie_prob=*/0.15, /*jump_prob=*/0.02);
  }
}

TEST(EventQueueTest, HeavyTiesPopIdentically) {
  // Mostly simultaneous events: the order is carried by sequence alone.
  RunEquivalenceStream(99, 3000, /*tie_prob=*/0.9, /*jump_prob=*/0.0);
}

TEST(EventQueueTest, SparseFarFutureJumpsPopIdentically) {
  // Mostly huge gaps: exercises the full-lap cursor jump and resizing.
  RunEquivalenceStream(7, 2500, /*tie_prob=*/0.05, /*jump_prob=*/0.6);
}

TEST(EventQueueTest, GrowAndShrinkKeepOrder) {
  // Push a large population (grow), then drain to nearly empty (shrink),
  // repeatedly, checking order throughout.
  BinaryHeapScheduler heap;
  CalendarQueueScheduler calendar;
  Rng rng(4242);
  uint64_t sequence = 0;
  double now = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20000; ++i) {
      const Event event{now + rng.Uniform() * 500.0, EventKind::kArrival,
                        static_cast<uint32_t>(i % 97), sequence++, 0.0};
      heap.Push(event);
      calendar.Push(event);
    }
    for (int i = 0; i < 19995; ++i) {
      const Event a = heap.Pop();
      ExpectSameEvent(a, calendar.Pop(), "round " + std::to_string(round));
      now = a.time;
    }
  }
  while (!heap.Empty()) {
    ExpectSameEvent(heap.Pop(), calendar.Pop(), "final drain");
  }
  EXPECT_TRUE(calendar.Empty());
}

template <typename Scheduler>
void ExpectClearEmpties(Scheduler& scheduler) {
  for (int i = 0; i < 100; ++i) {
    scheduler.Push(Event{static_cast<double>(i), EventKind::kArrival, 0,
                         static_cast<uint64_t>(i), 0.0});
  }
  EXPECT_EQ(scheduler.size(), 100u);
  scheduler.Clear();
  EXPECT_TRUE(scheduler.Empty());
  EXPECT_EQ(scheduler.size(), 0u);
  // Reusable after Clear.
  scheduler.Push(Event{1.0, EventKind::kCompletion, 3, 7, 0.5});
  EXPECT_EQ(scheduler.Pop().job, 3u);
}

TEST(EventQueueTest, ClearEmptiesBothKinds) {
  CalendarQueueScheduler calendar;
  ExpectClearEmpties(calendar);
  BinaryHeapScheduler heap;
  ExpectClearEmpties(heap);
}

// Pushes one event into both schedulers under the next sequence number.
struct SchedulerPair {
  BinaryHeapScheduler heap;
  CalendarQueueScheduler calendar;
  uint64_t sequence = 0;

  void Push(double time, EventKind kind, uint32_t job, double payload = 0.0) {
    const Event event{time, kind, job, sequence++, payload};
    heap.Push(event);
    calendar.Push(event);
  }
};

// Replays the event pattern of the simulator's loop against both schedulers:
// reactive (10 s), metrics (60 s) and decision (300 s) ticks that reschedule
// themselves and so coincide at identical times; a Poisson batch of arrivals
// per minute, pushed when the minute's metrics tick fires; completions after
// a service time that is sometimes zero (a push at the current time);
// cold-start readies exactly 60 s after a tick (landing on another tick's
// time); and fault events at the current time.
void RunSimulationShapedStream(uint64_t seed, size_t minutes, double rate_per_min) {
  SchedulerPair q;
  Rng rng(seed);
  const std::string label = "seed=" + std::to_string(seed);
  const double end_s = 60.0 * static_cast<double>(minutes);
  auto schedule_minute = [&](size_t minute) {
    const uint64_t count = rng.Poisson(rate_per_min);
    const double start = 60.0 * static_cast<double>(minute);
    for (uint64_t k = 0; k < count; ++k) {
      q.Push(start + rng.Uniform() * 60.0, EventKind::kArrival,
             static_cast<uint32_t>(rng.Uniform() * 8.0));
    }
  };
  schedule_minute(0);
  q.Push(60.0, EventKind::kMetricsTick, 0);
  q.Push(10.0, EventKind::kReactiveTick, 0);
  q.Push(0.0, EventKind::kDecideTick, 0);
  size_t next_minute = 1;
  double now = 0.0;
  size_t popped = 0;
  while (!q.heap.Empty()) {
    ASSERT_EQ(q.heap.NextTime(), q.calendar.NextTime()) << label;
    const Event a = q.heap.Pop();
    const Event b = q.calendar.Pop();
    ExpectSameEvent(a, b, label + " pop " + std::to_string(popped));
    ASSERT_GE(a.time, now) << label;
    now = a.time;
    ++popped;
    if (now > end_s) {
      continue;  // past the run: drain without rescheduling
    }
    switch (a.kind) {
      case EventKind::kArrival: {
        const double service = rng.Uniform() < 0.1 ? 0.0 : 0.18;
        q.Push(now + service, EventKind::kCompletion, a.job, a.time);
        break;
      }
      case EventKind::kReactiveTick:
        if (rng.Uniform() < 0.2) {
          q.Push(now + 60.0, EventKind::kReplicaReady, 0);
        }
        if (rng.Uniform() < 0.05) {
          q.Push(now, EventKind::kFaultEvent, 0);
        }
        q.Push(now + 10.0, EventKind::kReactiveTick, 0);
        break;
      case EventKind::kMetricsTick:
        if (next_minute < minutes) {
          schedule_minute(next_minute++);
        }
        q.Push(now + 60.0, EventKind::kMetricsTick, 0);
        break;
      case EventKind::kDecideTick:
        q.Push(now + 60.0, EventKind::kReplicaReady, 1);
        q.Push(now + 300.0, EventKind::kDecideTick, 0);
        break;
      default:
        break;
    }
    ASSERT_EQ(q.heap.size(), q.calendar.size()) << label;
  }
  EXPECT_TRUE(q.calendar.Empty()) << label;
  EXPECT_GT(popped, minutes * static_cast<size_t>(rate_per_min)) << label;
}

TEST(EventQueueTest, SimulationShapedStreamsPopIdentically) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunSimulationShapedStream(seed, /*minutes=*/90, /*rate_per_min=*/120.0);
  }
  // A dense minute load pushes the calendar queue through its grow resizes.
  RunSimulationShapedStream(11, /*minutes=*/20, /*rate_per_min=*/6000.0);
}

}  // namespace
}  // namespace faro
