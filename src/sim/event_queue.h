// Event scheduling for the discrete-event simulator.
//
// Pending events pop in one total order: earliest time first, FIFO sequence
// tie-break (EventLater). They live in two places:
//  - a binary heap (BinaryHeapScheduler) holding everything except request
//    arrivals -- completions, replica readies, control ticks, fault and
//    delayed-actuation events. That population is bounded by the busy
//    replicas plus a handful of ticks, small enough for O(log n) to be cheap.
//  - the current minute's arrival batch: one flat, reused vector, sorted once
//    by (time, sequence) and read through a head index.
// EventQueue::PopNext takes whichever head comes first under EventLater. The
// two sources hold disjoint parts of one event stream and EventLater is a
// strict total order (sequence numbers are unique), so the merged pop order
// is exactly the order a single heap holding every event would produce.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
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

// Binary heap over a vector, ordered by EventLater (earliest on top).
class BinaryHeapScheduler {
 public:
  void Push(const Event& event) {
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }
  // Requires !Empty().
  Event Pop() {
    std::pop_heap(events_.begin(), events_.end(), EventLater{});
    const Event event = events_.back();
    events_.pop_back();
    return event;
  }
  // Requires !Empty().
  const Event& Top() const { return events_.front(); }
  bool Empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  // Drops every pending event (capacity is retained).
  void Clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

// Sorts `batch` by (time, sequence) ascending. Built for one minute's
// arrivals, whose times lie in [start, start + span]: a stable counting sort
// on slot min(n - 1, floor((t - start) * n / span)) puts every event into
// its slot in O(n), then an insertion pass with the full comparator orders
// each slot. The insertion pass makes the result exact whatever the slot
// maths gives (times outside the window, rounding at start + span); the slot
// pass only makes it fast. `scratch` and `counts` are reused buffers.
inline void SortArrivalBatch(std::vector<Event>& batch, double start, double span,
                             std::vector<Event>& scratch,
                             std::vector<uint32_t>& counts) {
  const size_t n = batch.size();
  if (n < 2) {
    return;
  }
  const double scale = static_cast<double>(n) / span;
  const double last = static_cast<double>(n - 1);
  auto slot = [&](const Event& event) -> size_t {
    const double s = (event.time - start) * scale;
    return s >= last ? n - 1 : s > 0.0 ? static_cast<size_t>(s) : 0;
  };
  counts.assign(n + 1, 0);
  for (const Event& event : batch) {
    ++counts[slot(event) + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    counts[i] += counts[i - 1];
  }
  scratch.resize(n);
  for (const Event& event : batch) {
    scratch[counts[slot(event)]++] = event;
  }
  batch.swap(scratch);
  for (size_t i = 1; i < n; ++i) {
    if (!EventLater{}(batch[i - 1], batch[i])) {
      continue;
    }
    const Event event = batch[i];
    size_t k = i;
    do {
      batch[k] = batch[k - 1];
      --k;
    } while (k > 0 && EventLater{}(batch[k - 1], event));
    batch[k] = event;
  }
}

// The simulator's future-event set: the heap plus the arrival batch, merged
// at the head (see the file comment).
class EventQueue {
 public:
  void Push(const Event& event) {
    heap_.Push(event);
    peak_heap_ = std::max(peak_heap_, heap_.size());
  }

  // Replaces the arrival batch with `add(batch)`'s appends, sorted by
  // SortArrivalBatch over [start, start + span]. The previous batch must have
  // drained: its events would otherwise be lost. The simulator guarantees
  // this -- every arrival of minute m has time <= 60(m + 1) and a lower
  // sequence than the metrics tick that loads minute m + 1 -- and a
  // violation throws std::logic_error rather than dropping events.
  template <typename Add>
  void LoadArrivals(double start, double span, Add&& add) {
    if (head_ != batch_.size()) {
      throw std::logic_error(
          "EventQueue::LoadArrivals: previous arrival batch not drained "
          "(an arrival is scheduled after the tick that loads the next batch)");
    }
    batch_.clear();
    head_ = 0;
    std::forward<Add>(add)(batch_);
    SortArrivalBatch(batch_, start, span, scratch_, counts_);
    peak_batch_ = std::max(peak_batch_, batch_.size());
  }

  bool Empty() const { return head_ == batch_.size() && heap_.Empty(); }
  // Time of the next event to pop; infinity when empty.
  double NextTime() const {
    if (ArrivalFirst()) {
      return batch_[head_].time;
    }
    return heap_.Empty() ? std::numeric_limits<double>::infinity() : heap_.Top().time;
  }
  // Pops the next event into `out` if there is one with time <= limit;
  // returns false (popping nothing) otherwise.
  bool PopNext(double limit, Event& out) {
    if (ArrivalFirst()) {
      if (batch_[head_].time > limit) {
        return false;
      }
      out = batch_[head_++];
      return true;
    }
    if (heap_.Empty() || heap_.Top().time > limit) {
      return false;
    }
    out = heap_.Pop();
    return true;
  }
  // Largest heap population and largest arrival batch seen so far.
  size_t peak_heap_size() const { return peak_heap_; }
  size_t peak_batch_size() const { return peak_batch_; }

 private:
  // True when the arrival batch holds the next event to pop.
  bool ArrivalFirst() const {
    return head_ != batch_.size() &&
           (heap_.Empty() || EventLater{}(heap_.Top(), batch_[head_]));
  }

  BinaryHeapScheduler heap_;
  std::vector<Event> batch_;  // sorted by (time, sequence); [head_, end) pending
  size_t head_ = 0;
  std::vector<Event> scratch_;
  std::vector<uint32_t> counts_;
  size_t peak_heap_ = 0;
  size_t peak_batch_ = 0;
};

}  // namespace faro

#endif  // SRC_SIM_EVENT_QUEUE_H_
