// Reference future-event set for the calendar-queue property tests: a manual
// binary heap over a vector (the simulator's original event set). It pops in
// the same total order as CalendarQueueScheduler -- earliest time first, FIFO
// sequence tie-break -- by construction, so any divergence between the two
// under one event stream is a calendar-queue bug.

#ifndef TESTS_BINARY_HEAP_SCHEDULER_H_
#define TESTS_BINARY_HEAP_SCHEDULER_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/sim/event_queue.h"

namespace faro {

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
  double NextTime() const {
    return events_.empty() ? std::numeric_limits<double>::infinity()
                           : events_.front().time;
  }
  bool Empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  void Clear() { events_.clear(); }

 private:
  std::vector<Event> events_;  // binary heap via std::push_heap/pop_heap
};

}  // namespace faro

#endif  // TESTS_BINARY_HEAP_SCHEDULER_H_
