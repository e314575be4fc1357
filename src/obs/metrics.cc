#include "obs/metrics.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

namespace xvr {

namespace obs_internal {

uint32_t ThisThreadShard() {
  static std::atomic<uint32_t> next_shard{0};
  thread_local const uint32_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace obs_internal

uint64_t LatencyHistogram::BucketLowerNanos(size_t i) {
  if (i < kSub) {
    return i;
  }
  const uint64_t octave = (i - kSub) / kSub;
  const uint64_t sub = (i - kSub) % kSub;
  return (kSub + sub) << octave;
}

uint64_t LatencyHistogram::BucketUpperNanos(size_t i) {
  if (i < kSub) {
    return i + 1;
  }
  const uint64_t octave = (i - kSub) / kSub;
  const uint64_t sub = (i - kSub) % kSub;
  return (kSub + sub + 1) << octave;
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  uint64_t count = 0;
  uint64_t sum_nanos = 0;
  uint64_t max_nanos = 0;
  std::vector<uint64_t> buckets(kBuckets, 0);
  for (const Cell& cell : cells_) {
    count += cell.count.load(std::memory_order_relaxed);
    sum_nanos += cell.sum_nanos.load(std::memory_order_relaxed);
    max_nanos =
        std::max(max_nanos, cell.max_nanos.load(std::memory_order_relaxed));
    for (size_t i = 0; i < kBuckets; ++i) {
      buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
  }

  Snapshot snap;
  snap.count = count;
  snap.sum_micros = static_cast<double>(sum_nanos) / 1e3;
  snap.max_micros = static_cast<double>(max_nanos) / 1e3;
  if (count == 0) {
    return snap;
  }

  // Percentile by cumulative walk: find the bucket holding the rank-th
  // observation, interpolate linearly within it, cap at the observed max
  // (the top bucket's upper bound can far overshoot it).
  const auto percentile = [&](double p) {
    const double rank = p * static_cast<double>(count);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets[i] == 0) {
        continue;
      }
      const uint64_t next = seen + buckets[i];
      if (static_cast<double>(next) >= rank) {
        const double lower = static_cast<double>(BucketLowerNanos(i));
        const double upper = static_cast<double>(BucketUpperNanos(i));
        const double frac =
            (rank - static_cast<double>(seen)) /
            static_cast<double>(buckets[i]);
        const double nanos =
            std::min(lower + (upper - lower) * frac,
                     static_cast<double>(max_nanos));
        return nanos / 1e3;
      }
      seen = next;
    }
    return static_cast<double>(max_nanos) / 1e3;
  };
  snap.p50_micros = percentile(0.50);
  snap.p95_micros = percentile(0.95);
  snap.p99_micros = percentile(0.99);
  return snap;
}

namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonHistogram(std::string* out,
                         const LatencyHistogram::Snapshot& s) {
  AppendF(out,
          "{\"count\":%llu,\"sum_us\":%.3f,\"max_us\":%.3f,"
          "\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f}",
          static_cast<unsigned long long>(s.count), s.sum_micros, s.max_micros,
          s.p50_micros, s.p95_micros, s.p99_micros);
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

std::string MetricsRegistry::TextExposition() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    AppendF(&out, "counter %s %llu\n", name.c_str(),
            static_cast<unsigned long long>(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    AppendF(&out, "gauge %s %lld\n", name.c_str(),
            static_cast<long long>(gauge->Value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencyHistogram::Snapshot s = histogram->TakeSnapshot();
    AppendF(&out,
            "histogram %s count=%llu sum_us=%.3f max_us=%.3f p50_us=%.3f "
            "p95_us=%.3f p99_us=%.3f\n",
            name.c_str(), static_cast<unsigned long long>(s.count),
            s.sum_micros, s.max_micros, s.p50_micros, s.p95_micros,
            s.p99_micros);
  }
  return out;
}

std::string MetricsRegistry::JsonExposition() const {
  MutexLock lock(&mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    AppendF(&out, "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
            static_cast<unsigned long long>(counter->Value()));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    AppendF(&out, "%s\"%s\":%lld", first ? "" : ",", name.c_str(),
            static_cast<long long>(gauge->Value()));
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    AppendF(&out, "%s\"%s\":", first ? "" : ",", name.c_str());
    AppendJsonHistogram(&out, histogram->TakeSnapshot());
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace xvr
