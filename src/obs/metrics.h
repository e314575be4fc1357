#ifndef XVR_OBS_METRICS_H_
#define XVR_OBS_METRICS_H_

// Engine-wide metrics: named counters, gauges, and log-bucketed latency
// histograms, cheap enough to sit on the hot serving path.
//
// Recording never takes a mutex. Counters and histograms stripe their
// state across kMetricShards cache-line-padded cells indexed by a
// thread-local shard id, so concurrent recorders on different threads
// rarely touch the same line; each record is a handful of relaxed atomic
// ops. Reads (Value(), TakeSnapshot(), the expositions) merge the shards
// and may race with writers — totals are monotone and each cell is
// atomic, so a read sees a consistent-enough point-in-time sum.
//
// Histograms bucket nanosecond durations logarithmically: exact buckets
// below 4 ns, then 4 linear sub-buckets per power-of-two octave, giving
// <=25% relative bucket width over the full int64 range in 248 buckets.
// Percentiles interpolate linearly inside the landing bucket and are
// capped at the observed max.
//
// Naming scheme: "xvr.<subsystem>.<name>", e.g. "xvr.plan_cache.hits",
// "xvr.stage.plan.filter". The registry exposes the full catalog in
// deterministic (sorted) order as text and JSON.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"

namespace xvr {

inline constexpr size_t kMetricShards = 8;

namespace obs_internal {
// Stable per-thread shard id in [0, kMetricShards).
uint32_t ThisThreadShard();
}  // namespace obs_internal

// Monotone event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[obs_internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricShards];
};

// Last-write-wins instantaneous value (e.g. catalog view count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed latency histogram over nanosecond durations.
class LatencyHistogram {
 public:
  // 2^kSubBits linear sub-buckets per power-of-two octave.
  static constexpr int kSubBits = 2;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Exact buckets [0, kSub) + kSub sub-buckets for each of the 61 octaves
  // that a positive int64 nanosecond count can land in.
  static constexpr size_t kBuckets = kSub + (63 - kSubBits) * kSub;

  struct Snapshot {
    uint64_t count = 0;
    double sum_micros = 0;
    double max_micros = 0;
    double p50_micros = 0;
    double p95_micros = 0;
    double p99_micros = 0;
  };

  void RecordNanos(int64_t nanos) {
    const uint64_t n = nanos > 0 ? static_cast<uint64_t>(nanos) : 0;
    Cell& cell = cells_[obs_internal::ThisThreadShard()];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum_nanos.fetch_add(n, std::memory_order_relaxed);
    uint64_t seen = cell.max_nanos.load(std::memory_order_relaxed);
    while (n > seen && !cell.max_nanos.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
    cell.buckets[BucketIndex(n)].fetch_add(1, std::memory_order_relaxed);
  }

  void RecordMicros(double micros) {
    RecordNanos(static_cast<int64_t>(micros * 1e3));
  }

  // Merged view across shards; percentiles interpolated within buckets.
  Snapshot TakeSnapshot() const;

  // Exposed for bucket-math tests.
  static size_t BucketIndex(uint64_t nanos) {
    if (nanos < kSub) {
      return static_cast<size_t>(nanos);
    }
    const int octave = std::bit_width(nanos) - 1 - kSubBits;
    const uint64_t sub = (nanos >> octave) & (kSub - 1);
    return static_cast<size_t>(kSub + static_cast<uint64_t>(octave) * kSub +
                               sub);
  }
  // Inclusive lower / exclusive upper bound of bucket i, in nanoseconds.
  static uint64_t BucketLowerNanos(size_t i);
  static uint64_t BucketUpperNanos(size_t i);

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_nanos{0};
    std::atomic<uint64_t> max_nanos{0};
    std::atomic<uint32_t> buckets[kBuckets]{};
  };

  Cell cells_[kMetricShards];
};

// Owns every named instrument. Get* registers on first use and returns a
// pointer that stays valid for the registry's lifetime; calling Get*
// again with the same name returns the same instrument. Registration
// takes the registry mutex — callers cache the pointer, so the hot path
// never sees it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  // One line per instrument, sorted by name within each kind:
  //   counter xvr.plan_cache.hits 412
  //   gauge xvr.catalog.views 1000
  //   histogram xvr.query.latency count=512 sum_us=... p50_us=... ...
  std::string TextExposition() const;
  // {"counters":{...},"gauges":{...},"histograms":{name:{count:..,...}}}
  std::string JsonExposition() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      XVR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ XVR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      XVR_GUARDED_BY(mu_);
};

}  // namespace xvr

#endif  // XVR_OBS_METRICS_H_
