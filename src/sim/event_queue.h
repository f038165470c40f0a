// Event scheduling for the discrete-event simulator.
//
// The simulator's future-event set is a Brown-style calendar queue (ring of
// time buckets plus a small dispatch heap for the current bucket) with O(1)
// amortised Push/Pop under the stationary event rates a day-long trace
// produces, and content-driven resizing when the event count drifts. At
// hyperscale (thousands of jobs, hundreds of thousands of pending events) a
// binary heap's O(log n) churn dominates instead.
//
// The pop order is the total order earliest time first, FIFO sequence
// tie-break. tests/event_queue_test.cc drives the queue and a reference
// binary heap (tests/binary_heap_scheduler.h) with identical randomized event
// streams and asserts identical pop sequences.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faro {

enum class EventKind : uint8_t {
  kArrival,
  kCompletion,
  kReplicaReady,
  kReactiveTick,
  kDecideTick,
  kMetricsTick,
  kFaultEvent,      // scheduled FaultPlan event; `job` indexes the plan
  kDelayedScaleUp,  // actuation fault: a delayed scale-up finally lands
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kArrival;
  uint32_t job = 0;
  uint64_t sequence = 0;  // FIFO tie-break for equal timestamps
  // Completion events carry the arrival time of the request being served so
  // latency can be computed without tracking per-replica identity.
  double payload = 0.0;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.sequence > b.sequence;
  }
};

// Calendar queue: a power-of-two ring of unsorted time buckets of width
// `width_`, a monotone cursor over absolute bucket numbers floor(t / width),
// and a small binary heap ("dispatch") holding exactly the events of the
// cursor's bucket. Push appends to the target bucket in O(1) (or straight
// into dispatch when the event lands in or before the current bucket); Pop
// takes the dispatch minimum, refilling it from successive buckets as they
// drain. The ring is rebuilt -- new size, new width estimated from the live
// event span -- when the population outgrows or undershoots it.
//
// Event times must be non-negative and Push must never schedule before the
// most recently popped event's bucket year (true for any discrete-event loop:
// events are scheduled at or after the current time).
class CalendarQueueScheduler {
 public:
  explicit CalendarQueueScheduler(size_t capacity_hint = 4096);

  void Push(const Event& event);
  // Requires !Empty().
  Event Pop();
  // Time of the next event to pop; infinity when empty. Non-const because the
  // queue advances its cursor to locate the head lazily.
  double NextTime();
  bool Empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Drops every pending event (capacity is retained).
  void Clear();

 private:
  uint64_t AbsBucket(double time) const {
    return static_cast<uint64_t>(time * inv_width_);
  }
  // Refills the dispatch heap from the next non-empty bucket year. No-op when
  // dispatch already has events or the queue is empty.
  void EnsureDispatch();
  // Rebuilds the ring with `buckets` buckets and a width fitted to the
  // current population's time span.
  void Resize(size_t buckets);

  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> dispatch_;  // heap (EventLater) of the current bucket
  size_t bucket_mask_ = 0;       // buckets_.size() - 1 (power of two)
  double width_ = 1.0;
  double inv_width_ = 1.0;
  uint64_t cursor_ = 0;  // absolute bucket number currently being drained
  size_t size_ = 0;
  size_t grow_at_ = 0;    // resize up when size_ exceeds this
  size_t shrink_at_ = 0;  // resize down when size_ falls below this
};

}  // namespace faro

#endif  // SRC_SIM_EVENT_QUEUE_H_
