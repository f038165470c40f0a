// The simulator's future-event set (src/sim/event_queue.h) against a
// reference that holds every event in one vector and pops the (time,
// sequence) minimum by linear scan -- the total order a single heap over the
// whole stream would produce. Covered: the arrival-batch sort against
// std::sort (duplicate times, t == start, the start + 60 rounding edge,
// empty and one-element batches), the batch/heap merge on shared timestamps
// with the sequence either way, the heap's FIFO tie-break, randomized
// interleaved streams and simulation-shaped streams (self-rescheduling
// ticks, per-minute arrival batches loaded by the metrics tick, follow-up
// pushes at the current time).

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"

namespace faro {
namespace {

// Independent of EventLater: plain lexicographic (time, sequence).
bool Before(const Event& a, const Event& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.sequence < b.sequence;
}

void ExpectSameEvent(const Event& a, const Event& b, const std::string& label) {
  ASSERT_EQ(a.time, b.time) << label;
  ASSERT_EQ(a.kind, b.kind) << label;
  ASSERT_EQ(a.job, b.job) << label;
  ASSERT_EQ(a.sequence, b.sequence) << label;
  ASSERT_EQ(a.payload, b.payload) << label;
}

// Reference future-event set: unsorted vector, linear-scan minimum.
class ReferenceQueue {
 public:
  void Push(const Event& event) { events_.push_back(event); }
  bool Empty() const { return events_.empty(); }
  Event Pop() {
    const auto it = std::min_element(events_.begin(), events_.end(), Before);
    const Event event = *it;
    events_.erase(it);
    return event;
  }

 private:
  std::vector<Event> events_;
};

Event PopOne(EventQueue& queue) {
  Event event;
  EXPECT_TRUE(queue.PopNext(std::numeric_limits<double>::infinity(), event));
  return event;
}

// Sorts a copy with SortArrivalBatch and with std::sort, and compares.
void ExpectSortMatchesStdSort(const std::vector<Event>& input, double start,
                              const std::string& label) {
  std::vector<Event> batch = input;
  std::vector<Event> scratch;
  std::vector<uint32_t> counts;
  SortArrivalBatch(batch, start, 60.0, scratch, counts);
  std::vector<Event> expected = input;
  std::sort(expected.begin(), expected.end(), Before);
  ASSERT_EQ(batch.size(), expected.size()) << label;
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameEvent(batch[i], expected[i], label + " index " + std::to_string(i));
  }
}

TEST(EventQueueTest, ArrivalBatchSortMatchesStdSort) {
  ExpectSortMatchesStdSort({}, 0.0, "empty");
  ExpectSortMatchesStdSort({Event{12.5, EventKind::kArrival, 3, 9, 0.0}}, 0.0, "one");
  Rng rng(2024);
  // Late minutes too: at start = 86340 s, start + u * 60 rounds onto
  // start + 60 for u close to 1.
  for (const double start : {0.0, 60.0, 3540.0, 86340.0}) {
    for (int round = 0; round < 40; ++round) {
      const size_t n = 1 + static_cast<size_t>(rng.Uniform() * 400.0);
      std::vector<Event> batch;
      for (size_t i = 0; i < n; ++i) {
        double time = start + rng.Uniform() * 60.0;
        const double u = rng.Uniform();
        if (u < 0.1) {
          time = start;  // first slot edge
        } else if (u < 0.2) {
          time = start + 60.0;  // clamps into the last slot
        } else if (u < 0.25) {
          time = std::nextafter(start + 60.0, 0.0);
        } else if (u < 0.5 && !batch.empty()) {
          // Forced duplicate of an earlier time: order falls to sequence.
          time = batch[static_cast<size_t>(rng.Uniform() * batch.size())].time;
        }
        batch.push_back(Event{time, EventKind::kArrival,
                              static_cast<uint32_t>(rng.Uniform() * 16.0), i, rng.Uniform()});
      }
      // Shuffle so the input is not already in sequence order: the sort must
      // order duplicate times by sequence, not by input position.
      for (size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[static_cast<size_t>(rng.Uniform() * i)]);
      }
      ExpectSortMatchesStdSort(batch, start,
                               "start=" + std::to_string(start) + " round " +
                                   std::to_string(round));
    }
  }
}

TEST(EventQueueTest, ArrivalAndTickAtOneTimePopBySequence) {
  // Tick first in sequence: it pops before the arrival sharing its time.
  EventQueue tick_first;
  tick_first.Push(Event{30.0, EventKind::kMetricsTick, 0, 0, 0.0});
  tick_first.LoadArrivals(0.0, 60.0, [](std::vector<Event>& batch) {
    batch.push_back(Event{30.0, EventKind::kArrival, 1, 1, 0.0});
    batch.push_back(Event{10.0, EventKind::kArrival, 2, 2, 0.0});
  });
  EXPECT_EQ(PopOne(tick_first).sequence, 2u);
  EXPECT_EQ(PopOne(tick_first).kind, EventKind::kMetricsTick);
  EXPECT_EQ(PopOne(tick_first).kind, EventKind::kArrival);
  EXPECT_TRUE(tick_first.Empty());

  // Arrival first in sequence: it pops before the tick.
  EventQueue arrival_first;
  arrival_first.LoadArrivals(0.0, 60.0, [](std::vector<Event>& batch) {
    batch.push_back(Event{30.0, EventKind::kArrival, 1, 0, 0.0});
  });
  arrival_first.Push(Event{30.0, EventKind::kReactiveTick, 0, 1, 0.0});
  EXPECT_EQ(arrival_first.NextTime(), 30.0);
  EXPECT_EQ(PopOne(arrival_first).kind, EventKind::kArrival);
  EXPECT_EQ(PopOne(arrival_first).kind, EventKind::kReactiveTick);
  EXPECT_TRUE(arrival_first.Empty());
  EXPECT_EQ(arrival_first.NextTime(), std::numeric_limits<double>::infinity());
}

TEST(EventQueueTest, PopNextStopsAtLimit) {
  EventQueue queue;
  queue.Push(Event{5.0, EventKind::kCompletion, 0, 1, 0.0});
  queue.LoadArrivals(0.0, 60.0, [](std::vector<Event>& batch) {
    batch.push_back(Event{3.0, EventKind::kArrival, 0, 0, 0.0});
  });
  Event event;
  EXPECT_FALSE(queue.PopNext(2.0, event));
  EXPECT_TRUE(queue.PopNext(3.0, event));
  EXPECT_EQ(event.time, 3.0);
  EXPECT_FALSE(queue.PopNext(4.0, event));
  EXPECT_TRUE(queue.PopNext(5.0, event));
  EXPECT_EQ(event.time, 5.0);
  EXPECT_FALSE(queue.PopNext(100.0, event));
}

TEST(EventQueueTest, LoadingBeforeTheBatchDrainsThrows) {
  EventQueue queue;
  auto one_arrival = [](std::vector<Event>& batch) {
    batch.push_back(Event{1.0, EventKind::kArrival, 0, 0, 0.0});
  };
  queue.LoadArrivals(0.0, 60.0, one_arrival);
  EXPECT_THROW(queue.LoadArrivals(60.0, 60.0, one_arrival), std::logic_error);
  PopOne(queue);
  EXPECT_NO_THROW(queue.LoadArrivals(60.0, 60.0, one_arrival));
}

TEST(EventQueueTest, HeavyTiesPopIdentically) {
  // All at one time: the heap alone pops in push-sequence (FIFO) order.
  BinaryHeapScheduler heap;
  for (uint64_t s = 0; s < 500; ++s) {
    heap.Push(Event{7.0, EventKind::kCompletion, static_cast<uint32_t>(s), s, 0.0});
  }
  for (uint64_t s = 0; s < 500; ++s) {
    ASSERT_EQ(heap.Top().sequence, s);
    ASSERT_EQ(heap.Pop().sequence, s);
  }
  EXPECT_TRUE(heap.Empty());

  // Heap events and a batch drawn from three timestamps: the merged order is
  // carried by sequence alone within each time.
  Rng rng(99);
  EventQueue queue;
  ReferenceQueue reference;
  uint64_t sequence = 0;
  const double times[] = {0.0, 30.0, 60.0};
  for (int i = 0; i < 300; ++i) {
    const Event event{times[static_cast<size_t>(rng.Uniform() * 3.0)],
                      EventKind::kCompletion, 0, sequence++, 0.0};
    queue.Push(event);
    reference.Push(event);
  }
  queue.LoadArrivals(0.0, 60.0, [&](std::vector<Event>& batch) {
    for (int i = 0; i < 300; ++i) {
      const Event event{times[static_cast<size_t>(rng.Uniform() * 3.0)],
                        EventKind::kArrival, 1, sequence++, 0.0};
      batch.push_back(event);
      reference.Push(event);
    }
  });
  for (int i = 0; i < 300; ++i) {
    const Event event{times[static_cast<size_t>(rng.Uniform() * 3.0)],
                      EventKind::kReactiveTick, 2, sequence++, 0.0};
    queue.Push(event);
    reference.Push(event);
  }
  while (!reference.Empty()) {
    ExpectSameEvent(PopOne(queue), reference.Pop(), "heavy ties");
  }
  EXPECT_TRUE(queue.Empty());
}

// Drives the queue and the reference with one randomized stream. Heap pushes
// land at or after `now` (exact ties with `now` at `tie_prob`, or exact
// copies of a pending arrival's time); an arrival batch of random size covers
// each 60 s window and is loaded by a window tick pushed right after it, so
// the tick outranks every arrival of its window as in the simulator.
void RunEquivalenceStream(uint64_t seed, size_t ops, double tie_prob) {
  EventQueue queue;
  ReferenceQueue reference;
  Rng rng(seed);
  uint64_t sequence = 0;
  double now = 0.0;
  std::vector<double> batch_times;
  const EventKind kinds[] = {
      EventKind::kCompletion,  EventKind::kReplicaReady, EventKind::kReactiveTick,
      EventKind::kDecideTick,  EventKind::kFaultEvent,   EventKind::kDelayedScaleUp,
  };
  const std::string label = "seed=" + std::to_string(seed);
  auto push = [&](const Event& event) {
    queue.Push(event);
    reference.Push(event);
  };
  auto load_window = [&](double start) {
    batch_times.clear();
    queue.LoadArrivals(start, 60.0, [&](std::vector<Event>& batch) {
      const size_t n = static_cast<size_t>(rng.Uniform() * 200.0);
      for (size_t i = 0; i < n; ++i) {
        const Event event{start + rng.Uniform() * 60.0, EventKind::kArrival,
                          static_cast<uint32_t>(rng.Uniform() * 8.0), sequence++,
                          rng.Uniform()};
        batch.push_back(event);
        reference.Push(event);
        batch_times.push_back(event.time);
      }
    });
    push(Event{start + 60.0, EventKind::kMetricsTick, 0, sequence++, 0.0});
  };
  load_window(0.0);
  for (size_t op = 0; op < ops; ++op) {
    if (reference.Empty() || rng.Uniform() < 0.5) {
      const int burst = 1 + static_cast<int>(rng.Uniform() * 4.0);
      for (int b = 0; b < burst; ++b) {
        double time = now + rng.Uniform() * 90.0;
        const double u = rng.Uniform();
        if (u < tie_prob) {
          time = now;
        } else if (u < 2.0 * tie_prob && !batch_times.empty()) {
          const double t =
              batch_times[static_cast<size_t>(rng.Uniform() * batch_times.size())];
          time = std::max(t, now);
        }
        push(Event{time, kinds[static_cast<size_t>(rng.Uniform() * 6.0) % 6],
                   static_cast<uint32_t>(rng.Uniform() * 64.0), sequence++, rng.Uniform()});
      }
      continue;
    }
    const Event expected = reference.Pop();
    ASSERT_EQ(queue.NextTime(), expected.time) << label;
    const Event got = PopOne(queue);
    ExpectSameEvent(got, expected, label + " op " + std::to_string(op));
    ASSERT_GE(got.time, now) << label;
    now = got.time;
    if (got.kind == EventKind::kMetricsTick) {
      load_window(now);
    }
  }
  while (!reference.Empty()) {
    ExpectSameEvent(PopOne(queue), reference.Pop(), label + " drain");
  }
  EXPECT_TRUE(queue.Empty()) << label;
}

TEST(EventQueueTest, RandomizedStreamsPopIdentically) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunEquivalenceStream(seed, 4000, /*tie_prob=*/0.15);
  }
}

TEST(EventQueueTest, HeapClearEmptiesAndIsReusable) {
  BinaryHeapScheduler heap;
  for (int i = 0; i < 100; ++i) {
    heap.Push(Event{static_cast<double>(i), EventKind::kCompletion, 0,
                    static_cast<uint64_t>(i), 0.0});
  }
  EXPECT_EQ(heap.size(), 100u);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.size(), 0u);
  heap.Push(Event{1.0, EventKind::kCompletion, 3, 7, 0.5});
  EXPECT_EQ(heap.Top().job, 3u);
  EXPECT_EQ(heap.Pop().job, 3u);
  EXPECT_TRUE(heap.Empty());
}

// Replays the simulator loop's event pattern: reactive (10 s), metrics (60 s)
// and decision (300 s) ticks that reschedule themselves and so coincide at
// identical times; a Poisson batch of arrivals per minute, loaded when the
// minute's metrics tick fires; completions after a service time that is
// sometimes zero (a push at the current time); cold-start readies exactly
// 60 s after a tick (landing on another tick's time); fault events at the
// current time. Also checks both peak counters.
void RunSimulationShapedStream(uint64_t seed, size_t minutes, double rate_per_min) {
  EventQueue queue;
  ReferenceQueue reference;
  Rng rng(seed);
  uint64_t sequence = 0;
  size_t heap_population = 0;
  size_t peak_heap = 0;
  size_t peak_batch = 0;
  const std::string label = "seed=" + std::to_string(seed);
  const double end_s = 60.0 * static_cast<double>(minutes);
  auto push = [&](double time, EventKind kind, uint32_t job, double payload = 0.0) {
    const Event event{time, kind, job, sequence++, payload};
    queue.Push(event);
    reference.Push(event);
    peak_heap = std::max(peak_heap, ++heap_population);
  };
  auto schedule_minute = [&](size_t minute) {
    const double start = 60.0 * static_cast<double>(minute);
    queue.LoadArrivals(start, 60.0, [&](std::vector<Event>& batch) {
      const uint64_t count = rng.Poisson(rate_per_min);
      for (uint64_t k = 0; k < count; ++k) {
        const Event event{start + rng.Uniform() * 60.0, EventKind::kArrival,
                          static_cast<uint32_t>(rng.Uniform() * 8.0), sequence++, 0.0};
        batch.push_back(event);
        reference.Push(event);
      }
      peak_batch = std::max(peak_batch, batch.size());
    });
  };
  schedule_minute(0);
  push(60.0, EventKind::kMetricsTick, 0);
  push(10.0, EventKind::kReactiveTick, 0);
  push(0.0, EventKind::kDecideTick, 0);
  size_t next_minute = 1;
  double now = 0.0;
  size_t popped = 0;
  while (!reference.Empty()) {
    const Event expected = reference.Pop();
    ASSERT_EQ(queue.NextTime(), expected.time) << label;
    const Event a = PopOne(queue);
    ExpectSameEvent(a, expected, label + " pop " + std::to_string(popped));
    ASSERT_GE(a.time, now) << label;
    if (a.kind != EventKind::kArrival) {
      --heap_population;
    }
    now = a.time;
    ++popped;
    if (now > end_s) {
      continue;  // past the run: drain without rescheduling
    }
    switch (a.kind) {
      case EventKind::kArrival: {
        const double service = rng.Uniform() < 0.1 ? 0.0 : 0.18;
        push(now + service, EventKind::kCompletion, a.job, a.time);
        break;
      }
      case EventKind::kReactiveTick:
        if (rng.Uniform() < 0.2) {
          push(now + 60.0, EventKind::kReplicaReady, 0);
        }
        if (rng.Uniform() < 0.05) {
          push(now, EventKind::kFaultEvent, 0);
        }
        push(now + 10.0, EventKind::kReactiveTick, 0);
        break;
      case EventKind::kMetricsTick:
        if (next_minute < minutes) {
          schedule_minute(next_minute++);
        }
        push(now + 60.0, EventKind::kMetricsTick, 0);
        break;
      case EventKind::kDecideTick:
        push(now + 60.0, EventKind::kReplicaReady, 1);
        push(now + 300.0, EventKind::kDecideTick, 0);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(queue.Empty()) << label;
  EXPECT_GT(popped, minutes * static_cast<size_t>(rate_per_min)) << label;
  EXPECT_EQ(queue.peak_heap_size(), peak_heap) << label;
  EXPECT_EQ(queue.peak_batch_size(), peak_batch) << label;
}

TEST(EventQueueTest, SimulationShapedStreamsPopIdentically) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunSimulationShapedStream(seed, /*minutes=*/60, /*rate_per_min=*/120.0);
  }
  // A dense minute load: large batches, many completions per minute.
  RunSimulationShapedStream(11, /*minutes=*/5, /*rate_per_min=*/3000.0);
}

}  // namespace
}  // namespace faro
