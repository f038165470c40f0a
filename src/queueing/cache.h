// Memoisation for the queueing-model hot path.
//
// During one Stage-2 solve the objective evaluates RelaxedMdcLatency
// thousands of times, and almost every probe lands on an integer server
// count with one of a handful of per-job arrival rates -- the same
// (servers, lambda, p, q) tuples over and over. Each evaluation bottoms out
// in the O(c) Erlang recurrence, so memoising the integer-server latency
// turns the inner loop into O(1) lookups.
//
// Design:
//   - per-thread, fixed-size, open-addressed tables (no locks, no
//     allocation after first use, bounded memory); a colliding insert simply
//     overwrites the resident entry, so the cache is lossy but never grows;
//   - values are stored exactly as computed, so a hit returns the bit-exact
//     double the uncached function would produce -- cached and uncached
//     paths agree to the last ulp by construction (tests enforce 1e-12);
//   - SetQueueingCacheEnabled(false) bypasses lookups on the calling thread
//     (benchmark baselines, A/B tests);
//   - hits / misses / evictions are counted in the process-wide metrics
//     registry (src/obs/metrics.h) as faro_queueing_cache_{hits,misses,
//     evictions}_total, one lock-free per-thread cell per counter (an
//     eviction is an insert that overwrites a live entry with a different
//     key); --metrics-out on any bench exports them through the registry
//     sinks.

#ifndef SRC_QUEUEING_CACHE_H_
#define SRC_QUEUEING_CACHE_H_

#include <cstdint>

namespace faro {

// Thread-local toggle; the cache starts enabled on every thread.
bool QueueingCacheEnabled();
void SetQueueingCacheEnabled(bool enabled);

// Clears the calling thread's tables and hit/miss counters.
void ClearQueueingCache();

// Hit/miss/eviction counters for the calling thread (across both tables).
struct QueueingCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};
QueueingCacheStats GetQueueingCacheStats();

// Process-wide totals, merged over every thread's registry cells -- live
// threads included, so a read at any point is exact for every event already
// counted.
QueueingCacheStats GetGlobalQueueingCacheStats();

// ErlangC(servers, offered), memoised per thread.
double CachedErlangC(uint32_t servers, double offered);

// MdcLatencyPercentile(servers, arrival_rate, service_time, q), memoised per
// thread. This is the entry point RelaxedMdcLatency and the solver use.
double CachedMdcLatencyPercentile(uint32_t servers, double arrival_rate,
                                  double service_time, double q);

}  // namespace faro

#endif  // SRC_QUEUEING_CACHE_H_
