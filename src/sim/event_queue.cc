#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>

namespace faro {
namespace {

constexpr double kInfTime = std::numeric_limits<double>::infinity();

// Ring-size bounds. The floor keeps tiny simulations out of the resize
// machinery; the ceiling bounds rebuild cost for degenerate event sets.
constexpr size_t kMinBuckets = 1024;
constexpr size_t kMaxBuckets = size_t{1} << 22;

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

CalendarQueueScheduler::CalendarQueueScheduler(size_t capacity_hint) {
  const size_t buckets = std::clamp(NextPowerOfTwo(capacity_hint), kMinBuckets,
                                    kMaxBuckets);
  buckets_.resize(buckets);
  bucket_mask_ = buckets - 1;
  grow_at_ = 2 * buckets;
  shrink_at_ = 0;  // the initial ring never shrinks below itself
  dispatch_.reserve(256);
}

void CalendarQueueScheduler::Push(const Event& event) {
  ++size_;
  const uint64_t bucket = AbsBucket(event.time);
  if (bucket <= cursor_) {
    // In (or before) the bucket currently being drained: the event must be
    // eligible immediately, so it joins the dispatch heap directly.
    dispatch_.push_back(event);
    std::push_heap(dispatch_.begin(), dispatch_.end(), EventLater{});
  } else {
    buckets_[bucket & bucket_mask_].push_back(event);
  }
  if (size_ > grow_at_) {
    Resize(2 * (bucket_mask_ + 1));
  }
}

void CalendarQueueScheduler::EnsureDispatch() {
  if (!dispatch_.empty() || size_ == 0) {
    return;
  }
  const size_t ring = bucket_mask_ + 1;
  size_t scanned = 0;
  while (dispatch_.empty()) {
    ++cursor_;
    std::vector<Event>& bucket = buckets_[cursor_ & bucket_mask_];
    if (!bucket.empty()) {
      // Pull out this bucket's current-year events; later years stay behind.
      size_t keep = 0;
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (AbsBucket(bucket[i].time) <= cursor_) {
          dispatch_.push_back(bucket[i]);
        } else {
          bucket[keep++] = bucket[i];
        }
      }
      bucket.resize(keep);
      if (!dispatch_.empty()) {
        break;
      }
    }
    if (++scanned >= ring) {
      // A full lap found nothing in the current year: the population is
      // sparse and far away. Jump the cursor to the earliest populated
      // bucket instead of walking empty years one slot at a time.
      uint64_t min_bucket = std::numeric_limits<uint64_t>::max();
      for (const std::vector<Event>& b : buckets_) {
        for (const Event& e : b) {
          min_bucket = std::min(min_bucket, AbsBucket(e.time));
        }
      }
      cursor_ = min_bucket - 1;  // the next ++cursor_ lands exactly on it
      scanned = 0;
    }
  }
  std::make_heap(dispatch_.begin(), dispatch_.end(), EventLater{});
}

Event CalendarQueueScheduler::Pop() {
  EnsureDispatch();
  std::pop_heap(dispatch_.begin(), dispatch_.end(), EventLater{});
  const Event event = dispatch_.back();
  dispatch_.pop_back();
  --size_;
  if (size_ < shrink_at_) {
    Resize((bucket_mask_ + 1) / 2);
  }
  return event;
}

double CalendarQueueScheduler::NextTime() {
  EnsureDispatch();
  return dispatch_.empty() ? kInfTime : dispatch_.front().time;
}

void CalendarQueueScheduler::Clear() {
  for (std::vector<Event>& bucket : buckets_) {
    bucket.clear();
  }
  dispatch_.clear();
  size_ = 0;
  cursor_ = 0;
}

void CalendarQueueScheduler::Resize(size_t buckets) {
  buckets = std::clamp(buckets, kMinBuckets, kMaxBuckets);
  if (buckets == bucket_mask_ + 1 && size_ <= grow_at_) {
    return;
  }
  // Gather the whole population (heap order is irrelevant; redistribution
  // rebuilds the dispatch heap from scratch).
  std::vector<Event> all;
  all.reserve(size_);
  all.insert(all.end(), dispatch_.begin(), dispatch_.end());
  for (std::vector<Event>& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  dispatch_.clear();

  // Fit the bucket width to the live population: ~3 events per bucket-width
  // across the span keeps the current year dense without long intra-bucket
  // chains. A zero span (all events simultaneous) keeps the previous width.
  if (!all.empty()) {
    double t_min = all.front().time;
    double t_max = t_min;
    for (const Event& e : all) {
      t_min = std::min(t_min, e.time);
      t_max = std::max(t_max, e.time);
    }
    const double span = t_max - t_min;
    if (span > 0.0) {
      width_ = std::clamp(3.0 * span / static_cast<double>(all.size()), 1e-9, 1e9);
      inv_width_ = 1.0 / width_;
    }
    cursor_ = AbsBucket(t_min);
  }

  buckets_.resize(buckets);
  bucket_mask_ = buckets - 1;
  grow_at_ = 2 * buckets;
  shrink_at_ = buckets > kMinBuckets ? buckets / 32 : 0;

  for (const Event& e : all) {
    const uint64_t bucket = AbsBucket(e.time);
    if (bucket <= cursor_) {
      dispatch_.push_back(e);
    } else {
      buckets_[bucket & bucket_mask_].push_back(e);
    }
  }
  std::make_heap(dispatch_.begin(), dispatch_.end(), EventLater{});
}

}  // namespace faro
