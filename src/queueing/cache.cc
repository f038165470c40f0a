#include "src/queueing/cache.h"

#include <array>
#include <bit>

#include "src/obs/metrics.h"
#include "src/queueing/mdc.h"
#include "src/queueing/mmc.h"

namespace faro {
namespace {

// Registry-backed counters: the per-thread cells the registry hands out are
// the single source of truth for hit/miss/eviction totals (no more parallel
// namespace-scope atomics to keep in sync). The registry singleton is leaked,
// so the cells outlive late-exiting pool threads and exit-time sink writes.
Counter& HitsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_queueing_cache_hits_total", "Queueing memo cache hits");
  return counter;
}

Counter& MissesCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_queueing_cache_misses_total", "Queueing memo cache misses");
  return counter;
}

Counter& EvictionsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "faro_queueing_cache_evictions_total",
      "Queueing memo cache inserts that overwrote a live entry");
  return counter;
}

// splitmix64 finaliser: cheap, well-distributed 64-bit mixing.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

// Open-addressed direct-mapped table: `Slots` entries, overwrite on
// collision. Keys are compared on the exact bit patterns of the inputs, so a
// hit can only ever return the value computed for those same inputs.
template <size_t Slots>
struct ErlangTable {
  static_assert((Slots & (Slots - 1)) == 0, "power-of-two slot count");
  struct Entry {
    uint64_t offered_bits = 0;
    uint32_t servers = 0;
    bool valid = false;
    double value = 0.0;
  };
  std::array<Entry, Slots> entries;
};

template <size_t Slots>
struct MdcTable {
  static_assert((Slots & (Slots - 1)) == 0, "power-of-two slot count");
  struct Entry {
    uint64_t lambda_bits = 0;
    uint64_t service_bits = 0;
    uint64_t q_bits = 0;
    uint32_t servers = 0;
    bool valid = false;
    double value = 0.0;
  };
  std::array<Entry, Slots> entries;
};

// Sized for the multi-start solve driver's working set: a large-problem
// cycle touches (jobs x prediction steps) arrival rates times the server
// counts probed by four scattered starts, which overflows a few-thousand-slot
// direct-mapped table and turns scout evaluations into evictions of the
// primary start's entries. 64k M/D/c slots (~3 MB/thread) hold a 100-job
// cycle with room to spare.
constexpr size_t kErlangSlots = 16384;
constexpr size_t kMdcSlots = 65536;

struct ThreadCache {
  ErlangTable<kErlangSlots> erlang;
  MdcTable<kMdcSlots> mdc;
  // This thread's registry cells, hoisted once so the hot path is a single
  // relaxed store per counted event. The cells are owned by the (leaked)
  // registry, so no flush is needed at thread exit.
  Counter::Cell* hits;
  Counter::Cell* misses;
  Counter::Cell* evictions;
  bool enabled = true;

  ThreadCache()
      : hits(&HitsCounter().LocalCell()),
        misses(&MissesCounter().LocalCell()),
        evictions(&EvictionsCounter().LocalCell()) {}
};

ThreadCache& Cache() {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

bool QueueingCacheEnabled() { return Cache().enabled; }

void SetQueueingCacheEnabled(bool enabled) { Cache().enabled = enabled; }

void ClearQueueingCache() {
  ThreadCache& cache = Cache();
  cache.erlang.entries.fill({});
  cache.mdc.entries.fill({});
  // Zeroing this thread's cells also removes its contribution from the
  // process-wide totals, matching the old semantics where cleared per-thread
  // stats never reached the global accumulators.
  cache.hits->Store(0);
  cache.misses->Store(0);
  cache.evictions->Store(0);
}

QueueingCacheStats GetQueueingCacheStats() {
  const ThreadCache& cache = Cache();
  return {cache.hits->Load(), cache.misses->Load(), cache.evictions->Load()};
}

QueueingCacheStats GetGlobalQueueingCacheStats() {
  return {HitsCounter().Value(), MissesCounter().Value(), EvictionsCounter().Value()};
}

double CachedErlangC(uint32_t servers, double offered) {
  ThreadCache& cache = Cache();
  if (!cache.enabled) {
    return ErlangC(servers, offered);
  }
  const uint64_t offered_bits = DoubleBits(offered);
  const uint64_t hash = Mix64(offered_bits ^ (uint64_t{servers} << 32));
  auto& entry = cache.erlang.entries[hash & (kErlangSlots - 1)];
  if (entry.valid && entry.servers == servers && entry.offered_bits == offered_bits) {
    cache.hits->Add(1);
    return entry.value;
  }
  cache.misses->Add(1);
  if (entry.valid) {
    cache.evictions->Add(1);  // direct-mapped collision: overwrite the resident
  }
  const double value = ErlangC(servers, offered);
  entry = {offered_bits, servers, true, value};
  return value;
}

double CachedMdcLatencyPercentile(uint32_t servers, double arrival_rate,
                                  double service_time, double q) {
  ThreadCache& cache = Cache();
  if (!cache.enabled) {
    return MdcLatencyPercentile(servers, arrival_rate, service_time, q);
  }
  const uint64_t lambda_bits = DoubleBits(arrival_rate);
  const uint64_t service_bits = DoubleBits(service_time);
  const uint64_t q_bits = DoubleBits(q);
  const uint64_t hash =
      Mix64(lambda_bits ^ Mix64(service_bits ^ Mix64(q_bits ^ uint64_t{servers})));
  auto& entry = cache.mdc.entries[hash & (kMdcSlots - 1)];
  if (entry.valid && entry.servers == servers && entry.lambda_bits == lambda_bits &&
      entry.service_bits == service_bits && entry.q_bits == q_bits) {
    cache.hits->Add(1);
    return entry.value;
  }
  cache.misses->Add(1);
  if (entry.valid) {
    cache.evictions->Add(1);
  }
  const double value = MdcLatencyPercentile(servers, arrival_rate, service_time, q);
  entry = {lambda_bits, service_bits, q_bits, servers, true, value};
  return value;
}

}  // namespace faro
