// The benchmark binary: runs one workload against the engine through its
// public entry points and prints the workload's metrics.
//
//   xvr_perfbench --workload <warm_http|cold_plan|churn> --seed <n>
//                 --seconds <s> --trace <0|1> [--setup-only]
//                 [--corrupt-every <k>]
//
// perfbench/run.py is the entry point; it builds this binary, repeats the
// set-up to report a median, and prints the final result line. See
// perfbench/README.md for what each workload and metric means.
//
// Output: human-readable lines, a "ready" line the moment the first query
// could be sent, and as the last line one JSON object with the counts and
// the metrics of this run.
//
// --corrupt-every k alters every k-th answer before it is checked, so a
// test can prove that a wrong answer is caught.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "inputs.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "obs/trace.h"
#include "pattern/pattern_writer.h"
#include "storage/materializer.h"
#include "workload/xmark.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

using xvr::AnswerStrategy;
using xvr::DeweyCode;
using xvr::Engine;
using xvr::TreePattern;

constexpr AnswerStrategy kStrategy = AnswerStrategy::kHeuristicFiltered;
constexpr int kServerWorkers = 2;
// Churn: one add per tick; once more than kLiveViews of the added views
// are live, the same tick retires the oldest.
constexpr int64_t kTickMillis = 20;
constexpr size_t kLiveViews = 8;
constexpr size_t kChurnViewPool = 512;
// Mutation ticks in the quiet phase of the read-only workloads, and the
// ticks replayed for the mutation-path split of a traced run.
constexpr size_t kQuietTicks = 240;
constexpr size_t kReplayTicks = 100;
// The timed phase runs in blocks of about this length, and a traced run
// alternates untraced and traced blocks of half of it. Each end-to-end
// query metric is the median over blocks, so host contention in part of a
// run does not move it. A block spans ten CpuRotator steps.
constexpr double kBlockSeconds = 1.0;
// Mutation metrics are the median over chunks of this many ticks, each
// with 12 ticks beyond its p90.
constexpr size_t kTickChunk = 120;

const int64_t kMainNanos = xvr::MonotonicNanos();

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double SecondsSince(int64_t nanos) {
  return static_cast<double>(xvr::MonotonicNanos() - nanos) / 1e9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Linear-interpolation quantile, as bench/bench_common.h computes it.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The median over consecutive chunks of `chunk` samples of each chunk's
// q-quantile (the whole sample when it is shorter than one chunk).
double ChunkedQuantile(const std::vector<double>& values, size_t chunk,
                       double q) {
  std::vector<double> per_chunk;
  for (size_t at = 0; at + chunk <= values.size(); at += chunk) {
    per_chunk.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(at),
                            values.begin() + static_cast<ptrdiff_t>(at + chunk)),
        q));
  }
  return per_chunk.empty() ? Quantile(values, q) : Quantile(per_chunk, 0.5);
}

// One stretch of the timed phase.
struct Block {
  size_t queries = 0;
  double seconds = 0;
  double cpu_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.4f %-9s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                    i > 0 ? "," : "", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --- answer checking --------------------------------------------------------

// Compares every answer with the pool's ground truth. Wrong answers are
// counted and their XPath printed once; --corrupt-every makes every k-th
// answer wrong before the comparison.
class Checker {
 public:
  Checker(const std::vector<PoolQuery>* pool, size_t corrupt_every)
      : pool_(pool), corrupt_every_(corrupt_every) {}

  void CheckCodes(size_t i, std::vector<DeweyCode> codes) {
    if (Corrupt()) {
      codes.push_back(DeweyCode({0, 0}));
    }
    Record(i, codes == (*pool_)[i].truth, codes.size());
  }

  // `body` is a 200 response of POST /query. The fast path compares the
  // raw "codes" array with the truth as the server serializes it; any
  // difference is settled by parsing the body.
  void CheckBody(size_t i, const std::string& body) {
    const PoolQuery& q = (*pool_)[i];
    const bool corrupt = Corrupt();
    constexpr std::string_view kKey = "\"codes\":[";
    const size_t at = body.find(kKey);
    if (at != std::string::npos && !corrupt) {
      const size_t start = at + kKey.size();
      const size_t end = body.find(']', start);
      if (end != std::string::npos &&
          std::string_view(body).substr(start, end - start) == q.truth_json) {
        Record(i, true, q.truth.size());
        return;
      }
    }
    std::vector<std::string> got;
    const xvr::Result<xvr::JsonValue> parsed = xvr::ParseJson(body);
    const xvr::JsonValue* codes = parsed.ok() ? parsed->Find("codes") : nullptr;
    if (codes != nullptr && codes->is_array()) {
      for (const xvr::JsonValue& code : codes->items) {
        got.push_back(code.string_value);
      }
    }
    if (corrupt) {
      got.push_back("0.0");
    }
    bool same = got.size() == q.truth.size();
    for (size_t k = 0; same && k < got.size(); ++k) {
      same = got[k] == q.truth[k].ToString();
    }
    Record(i, same, got.size());
  }

  size_t checked() const { return checked_; }
  size_t wrong() const { return wrong_; }

 private:
  bool Corrupt() { return corrupt_every_ > 0 && ++seen_ % corrupt_every_ == 0; }

  void Record(size_t i, bool same, size_t got) {
    ++checked_;
    if (same) {
      return;
    }
    ++wrong_;
    if (reported_.insert(i).second) {
      std::printf("WRONG ANSWER: %s returned %zu codes, direct evaluation %zu\n",
                  (*pool_)[i].xpath.c_str(), got, (*pool_)[i].truth.size());
    }
  }

  const std::vector<PoolQuery>* pool_;
  size_t corrupt_every_;
  size_t seen_ = 0;
  size_t checked_ = 0;
  size_t wrong_ = 0;
  std::set<size_t> reported_;
};

// --- per-layer accumulation -------------------------------------------------

// Sums over the traced queries of a run; every per-layer metric is a mean
// over `queries` (or a ratio of two sums).
struct LayerSums {
  uint64_t queries = 0;
  double call_us = 0;  // as the caller saw it
  double queue_us = 0;
  double query_us = 0;  // the engine's "query" span (xvr.query.latency)
  double plan_us = 0;
  double filter_us = 0;
  double select_us = 0;
  double execute_us = 0;
  double refine_us = 0;
  double join_us = 0;
  double extract_us = 0;
  double hits = 0;
  double lookups = 0;
  double candidates = 0;
  double covers = 0;
  double views_selected = 0;
  double scanned = 0;
  double kept = 0;
  double survivors = 0;
  double arena_bytes = 0;
  double response_bytes = 0;

  // Engine-side span durations of one in-process query.
  void AddTrace(const xvr::Trace& trace) {
    for (size_t k = 0; k < trace.size(); ++k) {
      const xvr::SpanRecord& span = trace.record(k);
      const double us = static_cast<double>(span.duration_nanos) / 1e3;
      if (double* slot = SpanSlot(span.name)) {
        *slot += us;
      }
    }
  }

  double* SpanSlot(std::string_view name) {
    if (name == "query") return &query_us;
    if (name == "plan") return &plan_us;
    if (name == "plan.filter") return &filter_us;
    if (name == "plan.selection") return &select_us;
    if (name == "execute") return &execute_us;
    if (name == "execute.refine") return &refine_us;
    if (name == "execute.join") return &join_us;
    if (name == "execute.extract") return &extract_us;
    return nullptr;
  }

  // Plan and rewrite counts of one answered query, weighted `weight` times.
  void AddStats(const xvr::AnswerStats& stats, double weight) {
    candidates += weight * static_cast<double>(stats.candidates_after_filter);
    covers += weight * stats.covers_computed;
    views_selected += weight * static_cast<double>(stats.views_selected);
    scanned += weight * static_cast<double>(stats.rewrite.fragments_scanned);
    kept +=
        weight * static_cast<double>(stats.rewrite.fragments_after_refinement);
    survivors += weight * static_cast<double>(stats.rewrite.join_survivors);
  }
};

// Engine metrics as GET /metrics.json reports them.
struct MetricsSnapshot {
  xvr::JsonValue json;

  double Histogram(const char* name, const char* field) const {
    const xvr::JsonValue* h = json.Find("histograms");
    h = h != nullptr ? h->Find(name) : nullptr;
    return h != nullptr ? h->NumberOr(field, 0) : 0;
  }
  double Counter(const char* name) const {
    const xvr::JsonValue* c = json.Find("counters");
    return c != nullptr ? c->NumberOr(name, 0) : 0;
  }
};

// --- the catalog mutator ----------------------------------------------------

class Mutator {
 public:
  Mutator(Engine* engine, const std::vector<TreePattern>* views)
      : engine_(engine), views_(views) {}

  // Adds kLiveViews views, untimed, so every timed tick is add + retire.
  void Prefill() {
    while (live_.size() < kLiveViews) {
      if (!Add()) {
        Die("churn prefill failed");
      }
    }
  }

  // One tick: add the next view; retire the oldest added view once more
  // than kLiveViews are live. Returns false when a mutation failed.
  bool Tick() {
    bool ok = Add();
    if (live_.size() > kLiveViews) {
      ok = Retire() && ok;
    }
    return ok;
  }

  // Runs ticks every kTickMillis until `stop`; each latency is measured
  // from when the tick was due, so a stalled tick delays the next ones.
  void RunPaced(const std::atomic<bool>* stop) {
    const int64_t period = kTickMillis * 1'000'000;
    int64_t due = xvr::MonotonicNanos();
    while (!stop->load(std::memory_order_relaxed)) {
      const int64_t now = xvr::MonotonicNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        continue;
      }
      max_late_ms_ = std::max(max_late_ms_, static_cast<double>(now - due) / 1e6);
      RecordTick(Tick(), due);
      due += period;
    }
  }

  // Back-to-back ticks (the quiet phase): each is due when the last ended.
  void RunBackToBack(size_t ticks) {
    for (size_t t = 0; t < ticks; ++t) {
      const int64_t due = xvr::MonotonicNanos();
      RecordTick(Tick(), due);
    }
  }

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  size_t failed() const { return failed_; }
  double max_late_ms() const { return max_late_ms_; }

  // The mutation-path split: replays the first `ticks` timed ticks with
  // MaterializeView timed on its own, around an evaluator that times the
  // base evaluation AddView injects.
  void Replay(size_t ticks, double* view_eval_us, double* materialize_us,
              double* publish_us, size_t* replayed) {
    const xvr::BaseEvaluator& base = engine_->base();
    double eval_us = 0;
    xvr::MaterializeOptions options;
    options.evaluate = [&base, &eval_us](const TreePattern& pattern,
                                         const xvr::XmlTree&) {
      const int64_t t0 = xvr::MonotonicNanos();
      std::vector<xvr::NodeId> nodes =
          base.Evaluate(pattern, xvr::BaseStrategy::kNodeIndex);
      eval_us += static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
      return nodes;
    };
    *replayed = std::min(ticks, sequence_.size());
    for (size_t t = 0; t < *replayed; ++t) {
      const TreePattern& view = (*views_)[sequence_[t]];
      eval_us = 0;
      const int64_t t0 = xvr::MonotonicNanos();
      const bool materialized =
          xvr::MaterializeView(view, engine_->doc(), options).ok();
      const double mat_us = static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
      const int64_t t1 = xvr::MonotonicNanos();
      const xvr::Result<int32_t> id = engine_->AddView(view);
      const double add_us = static_cast<double>(xvr::MonotonicNanos() - t1) / 1e3;
      if (!materialized || !id.ok()) {
        Die("replayed mutation failed");
      }
      live_.push_back(*id);
      if (live_.size() > kLiveViews && !Retire()) {
        Die("replayed retire failed");
      }
      *view_eval_us += eval_us;
      *materialize_us += mat_us - eval_us;
      *publish_us += add_us - mat_us;
    }
  }

 private:
  bool Add() {
    const size_t index = next_++ % views_->size();
    const xvr::Result<int32_t> id = engine_->AddView((*views_)[index]);
    if (!id.ok()) {
      return false;
    }
    live_.push_back(*id);
    pending_index_ = index;
    return true;
  }

  bool Retire() {
    const int32_t oldest = live_.front();
    live_.erase(live_.begin());
    return engine_->RemoveView(oldest).ok();
  }

  void RecordTick(bool ok, int64_t due) {
    latencies_ms_.push_back(static_cast<double>(xvr::MonotonicNanos() - due) /
                            1e6);
    sequence_.push_back(pending_index_);
    if (!ok) {
      ++failed_;
    }
  }

  Engine* engine_;
  const std::vector<TreePattern>* views_;
  std::vector<int32_t> live_;
  size_t next_ = 0;
  size_t pending_index_ = 0;
  std::vector<size_t> sequence_;
  std::vector<double> latencies_ms_;
  size_t failed_ = 0;
  double max_late_ms_ = 0;
};

// --- the workload -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  size_t corrupt_every = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--corrupt-every") {
      args.corrupt_every = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return args;
}

// Keeps the whole process pinned to `width` CPUs at a time and moves it to
// the next `width` of the CPUs it may use every kRotateMillis, from before
// the set-up to the end of the run. On a shared host each vCPU runs at a
// speed of its own that changes every few seconds (two runs side by side on
// two vCPUs of a 4-vCPU virtual machine measured 1.5x apart, and each
// switched between the two speeds on its own), so a process pinned to one
// vCPU reports that vCPU's luck; rotating averages over all of them, while
// the threads of a closed-loop hand-off still share their CPUs.
class CpuRotator {
 public:
  static constexpr int64_t kRotateMillis = 100;

  explicit CpuRotator(int width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      Die("sched_getaffinity failed");
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        allowed_.push_back(cpu);
      }
    }
    width_ = std::min(static_cast<size_t>(width), allowed_.size());
    positions_ = allowed_.size() / width_;
    MoveTo(0);
    if (positions_ > 1) {
      thread_ = std::thread([this] { Loop(); });
    }
  }

  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::string Describe() const {
    return "pinned to " + std::to_string(width_) + " CPU(s) at a time, " +
           "rotating over all " + std::to_string(allowed_.size()) +
           " allowed CPUs every " + std::to_string(kRotateMillis) + " ms";
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t step = 1;; ++step) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(kRotateMillis),
                       [this] { return stop_; })) {
        return;
      }
      MoveTo(step % positions_);
    }
  }

  // Pins every thread of the process; threads started later inherit the
  // mask of the thread that starts them.
  void MoveTo(size_t position) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t k = 0; k < width_; ++k) {
      CPU_SET(allowed_[position * width_ + k], &set);
    }
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) {
      Die("cannot list /proc/self/task");
    }
    while (const dirent* entry = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      // A thread that exited since the listing is no error.
      if (tid > 0 && sched_setaffinity(tid, sizeof(set), &set) != 0 &&
          errno != ESRCH) {
        Die("sched_setaffinity failed");
      }
    }
    closedir(tasks);
  }

  std::vector<int> allowed_;
  size_t width_ = 1;
  size_t positions_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// A build that validates every plan or carries a sanitizer measures a
// different program; refuse it instead of reporting its numbers.
void RefuseDifferentProgram() {
#if defined(XVR_VALIDATE) || !defined(NDEBUG)
  Die("refusing to measure: built with XVR_VALIDATE or without NDEBUG "
      "(use CMAKE_BUILD_TYPE=Release)");
#endif
#if defined(PERFBENCH_SANITIZED)
  Die("refusing to measure: built with a sanitizer");
#endif
}

class Workload {
 public:
  Workload(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args) {}

  // Everything up to the moment the first query can be sent.
  void SetUp() {
    setup_ = BuildEngine(spec_);
    engine_ = setup_.engine.get();
    if (spec_.http) {
      xvr::HttpServerOptions options;
      options.num_workers = kServerWorkers;
      server_ = std::make_unique<xvr::HttpServer>(engine_, options);
      const xvr::Status started = server_->Start();
      if (!started.ok()) {
        Die("server start: " + started.ToString());
      }
      const xvr::Status connected =
          client_.Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        Die("client connect: " + connected.ToString());
      }
    }
    setup_s_ = SecondsSince(kMainNanos);
  }

  double setup_s() const { return setup_s_; }

  // The benchmark's own inputs and ground truth; never timed. The churn
  // workload's added views go live here, so its warm-up already sees the
  // steady-state catalog.
  void BuildInputs() {
    const int64_t t0 = xvr::MonotonicNanos();
    pool_ = BuildPool(spec_, engine_, args_.seed, &pool_stats_);
    churn_views_ = BuildChurnViews(*engine_, args_.seed, kChurnViewPool);
    checker_ = std::make_unique<Checker>(&pool_, args_.corrupt_every);
    drawer_.emplace(spec_.order, pool_.size(),
                    spec_.table_iii ? xvr::TableIII().size() : 0, args_.seed);
    mutator_.emplace(engine_, &churn_views_);
    if (spec_.churn) {
      mutator_->Prefill();
    }
    sent_.assign(pool_.size(), 0);
    inputs_s_ = SecondsSince(t0);
  }

  void PrintConfig() const {
    const double fragment_mb =
        static_cast<double>(engine_->fragments().TotalByteSize()) / 1e6;
    const std::string loop =
        spec_.http ? "closed; 1 client thread, 1 keep-alive connection, "
                     "HttpServer with " +
                         std::to_string(kServerWorkers) +
                         " workers, POST /query"
                   : "closed; 1 reader thread calling Engine::AnswerQuery";
    const std::string mutation =
        (spec_.churn ? "1 mutator thread, a tick due every " +
                           std::to_string(kTickMillis) +
                           " ms beside the reader"
                     : std::to_string(kQuietTicks) +
                           " back-to-back ticks after the read phase") +
        "; a tick adds a view and retires the oldest added one, " +
        std::to_string(kLiveViews) + " stay live";
    std::printf(
        "workload %s  seed %llu  seconds %g  trace %d\n"
        "  nproc %u  build %s  compiler %s\n"
        "  engine seeds: document %llu, views %llu  strategy HV\n"
        "  document %zu nodes (XMark scale %g), %zu views, fragments %.1f MB\n"
        "  pool %zu queries (%zu generated of %zu candidates: %zu of an "
        "excluded shape, %zu duplicate, %zu unanswerable), plan cache "
        "%zu entries, draw %s\n"
        "  loop: %s\n"
        "  mutations: %s; flush policy none (no WAL)\n"
        "  inputs and ground truth built in %.2f s (not part of setup_s)\n",
        spec_.name, static_cast<unsigned long long>(args_.seed), args_.seconds,
        args_.trace ? 1 : 0, std::thread::hardware_concurrency(),
        PERFBENCH_BUILD_TYPE, __VERSION__,
        static_cast<unsigned long long>(kDocSeed),
        static_cast<unsigned long long>(kViewSeed), engine_->doc().size(),
        spec_.xmark_scale, engine_->num_views(), fragment_mb, pool_.size(),
        spec_.generated_queries, pool_stats_.candidates_tried,
        pool_stats_.rejected_shape, pool_stats_.rejected_duplicate,
        pool_stats_.rejected_unanswerable, engine_->plan_cache()->capacity(),
        spec_.order == DrawOrder::kZipf ? "Zipf(1)" : "uniform", loop.c_str(),
        mutation.c_str(), inputs_s_);
  }

  // One untimed pass over the whole pool: warms the plan cache and checks
  // that every pool query is answered.
  void WarmUp() {
    for (size_t i = 0; i < pool_.size(); ++i) {
      AnswerOne(i, nullptr);
    }
    if (failed_ > 0) {
      Die(std::to_string(failed_) + " pool queries failed in the warm-up");
    }
    // Plan certification only runs in validating builds of the library.
    xvr::MetricsRegistry& registry = engine_->metrics();
    if (registry.GetCounter("xvr.certify.certified")->Value() +
            registry.GetCounter("xvr.certify.inconclusive")->Value() +
            registry.GetCounter("xvr.certify.rejected")->Value() >
        0) {
      Die("refusing to measure: the engine library certifies every plan "
          "(XVR_VALIDATE build)");
    }
  }

  // The timed read phase, with the churn mutator beside it when the
  // workload has one. With `traced`, untraced and traced blocks alternate.
  void Run() {
    Mutator& mutator = *mutator_;
    std::atomic<bool> stop{false};
    std::thread mutator_thread;
    xvr::PlanCache::Stats cache_before = engine_->plan_cache()->stats();
    uint64_t version_before = engine_->catalog_version();
    if (spec_.churn) {
      mutator_thread = std::thread([&] { mutator.RunPaced(&stop); });
    }
    const int64_t t0 = xvr::MonotonicNanos();
    if (args_.trace) {
      RunTraced();
    } else {
      const int blocks = std::max(
          1, static_cast<int>(std::lround(args_.seconds / kBlockSeconds)));
      for (int b = 0; b < blocks; ++b) {
        RunBlock(args_.seconds / blocks, nullptr);
      }
    }
    elapsed_s_ = SecondsSince(t0);
    timed_queries_ = latencies_us_.size();
    stop.store(true);
    if (mutator_thread.joinable()) {
      mutator_thread.join();
    } else {
      if (args_.trace) {
        MeasureServedCounts();
      }
      // The quiet phase of a read-only workload: the read phase ran on the
      // pristine catalog; the added views go live only now.
      mutator.Prefill();
      cache_before = engine_->plan_cache()->stats();
      version_before = engine_->catalog_version();
      mutator.RunBackToBack(kQuietTicks);
    }
    const xvr::PlanCache::Stats cache_after = engine_->plan_cache()->stats();
    publishes_ = static_cast<double>(engine_->catalog_version() - version_before);
    invalidations_ = static_cast<double>(
        cache_after.dep_invalidations + cache_after.fingerprint_invalidations -
        cache_before.dep_invalidations - cache_before.fingerprint_invalidations);
    survivors_ = static_cast<double>(cache_after.survived_publications -
                                     cache_before.survived_publications);
    mutation_ms_ = mutator.latencies_ms();
    mutations_failed_ = mutator.failed();
    max_late_ms_ = mutator.max_late_ms();
    if (args_.trace) {
      MeasureMutationPath();
    }
  }

  void Finish() {
    if (server_ != nullptr) {
      client_.Close();
      server_->Shutdown();
    }
  }

  void PrintResult() const {
    const size_t queries_attempted = checker_->checked() + failed_;
    const size_t attempted = queries_attempted + mutation_ms_.size();
    const size_t failed = failed_ + mutations_failed_;
    const size_t wrong = checker_->wrong();
    const auto block_median = [&](double (*field)(const Block&)) {
      std::vector<double> values;
      for (const Block& b : blocks_) {
        values.push_back(field(b));
      }
      return Quantile(values, 0.5);
    };
    Report report;
    report.Add("query_p50_us",
               block_median([](const Block& b) { return b.p50_us; }), "us",
               timed_queries_);
    report.Add("query_p90_us",
               block_median([](const Block& b) { return b.p90_us; }), "us",
               timed_queries_);
    report.Add("query_p99_us",
               block_median([](const Block& b) { return b.p99_us; }), "us",
               timed_queries_);
    report.Add("throughput_qps", block_median([](const Block& b) {
                 return Ratio(static_cast<double>(b.queries), b.seconds);
               }),
               "queries/s", timed_queries_);
    report.Add("cpu_us_per_query", block_median([](const Block& b) {
                 return Ratio(b.cpu_s * 1e6, static_cast<double>(b.queries));
               }),
               "us", timed_queries_);
    report.Add("error_ratio",
               Ratio(static_cast<double>(failed + wrong),
                     static_cast<double>(attempted)),
               "ratio", attempted);
    report.Add("wrong_answers", static_cast<double>(wrong), "count",
               queries_attempted);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Add("mutation_p50_ms", ChunkedQuantile(mutation_ms_, kTickChunk, 0.50),
               "ms", mutation_ms_.size());
    report.Add("mutation_p90_ms", ChunkedQuantile(mutation_ms_, kTickChunk, 0.90),
               "ms", mutation_ms_.size());
    if (args_.trace) {
      AddLayerMetrics(&report);
    }
    std::printf(
        "timed phase: %zu queries in %zu blocks, %.3f s; %zu mutations (max "
        "%.2f ms late); %zu answers checked, %zu wrong, %zu failed\n",
        timed_queries_, blocks_.size(), elapsed_s_, mutation_ms_.size(),
        max_late_ms_,
        checker_->checked(), wrong, failed);
    report.Print();
    std::printf(
        "{\"attempted\":%zu,\"failed\":%zu,\"wrong\":%zu,\"setup_s\":%.6f,"
        "\"metrics\":%s}\n",
        attempted, failed, wrong, setup_s_, report.Json().c_str());
  }

 private:
  // Answers pool query `i` once and checks the answer. With `sums`, also
  // records what the traced run needs. Returns the caller-side latency in
  // microseconds.
  double AnswerOne(size_t i, LayerSums* sums) {
    const PoolQuery& q = pool_[i];
    if (spec_.http) {
      const int64_t t0 = xvr::MonotonicNanos();
      xvr::Result<xvr::HttpResponse> response =
          client_.Roundtrip("POST", "/query", q.request_body);
      const double us = static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
      if (!response.ok() || response->status != 200) {
        ++failed_;
        NoteFailure(q, response.ok() ? response->body
                                     : response.status().ToString());
        if (!response.ok()) {
          client_.Close();
          (void)client_.Connect("127.0.0.1", server_->port());
        }
        return us;
      }
      checker_->CheckBody(i, response->body);
      if (sums != nullptr) {
        ++sums->queries;
        sums->call_us += us;
        sums->response_bytes += static_cast<double>(response->body.size());
        sums->arena_bytes += static_cast<double>(ArenaGauge());
        ++sent_[i];
      }
      return us;
    }
    if (sums == nullptr) {
      const int64_t t0 = xvr::MonotonicNanos();
      xvr::Result<Engine::Answer> answer = engine_->AnswerQuery(q.pattern,
                                                                kStrategy);
      const double us = static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
      Check(i, &answer);
      return us;
    }
    // Traced: the same call shape as Engine::AnswerQuery (a fresh context
    // per query), with the benchmark's span around it and the engine's
    // stage spans read from the context afterwards.
    const int64_t t0 = xvr::MonotonicNanos();
    xvr::ExecutionContext ctx;
    xvr::Result<Engine::Answer> answer =
        engine_->pipeline().Answer(q.pattern, kStrategy, &ctx);
    const double us = static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
    ++sums->queries;
    sums->call_us += us;
    sums->AddTrace(ctx.trace);
    sums->arena_bytes += static_cast<double>(ArenaGauge());
    if (answer.ok()) {
      sums->AddStats(answer->stats, 1.0);
      sums->hits += answer->stats.plan_cache_hit ? 1 : 0;
    }
    sums->lookups += 1;
    Check(i, &answer);
    return us;
  }

  void Check(size_t i, xvr::Result<Engine::Answer>* answer) {
    if (!answer->ok()) {
      ++failed_;
      NoteFailure(pool_[i], answer->status().ToString());
      return;
    }
    checker_->CheckCodes(i, std::move((*answer)->codes));
  }

  void NoteFailure(const PoolQuery& q, const std::string& why) {
    if (failures_printed_++ < 5) {
      std::printf("FAILED: %s: %s\n", q.xpath.c_str(), why.c_str());
    }
  }

  int64_t ArenaGauge() {
    if (arena_gauge_ == nullptr) {
      arena_gauge_ = engine_->metrics().GetGauge("xvr.arena.bytes_allocated");
    }
    return arena_gauge_->Value();
  }

  // Closed loop for `seconds`; latencies land in latencies_us_, the
  // block's summary in blocks_.
  const Block& RunBlock(double seconds, LayerSums* sums) {
    const size_t first = latencies_us_.size();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = xvr::MonotonicNanos();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    while (xvr::MonotonicNanos() < end) {
      latencies_us_.push_back(AnswerOne(drawer_->Next(), sums));
    }
    Block block;
    block.seconds = SecondsSince(t0);
    block.cpu_s = ProcessCpuSeconds() - cpu0;
    const std::vector<double> mine(
        latencies_us_.begin() + static_cast<ptrdiff_t>(first),
        latencies_us_.end());
    block.queries = mine.size();
    block.p50_us = Quantile(mine, 0.50);
    block.p90_us = Quantile(mine, 0.90);
    block.p99_us = Quantile(mine, 0.99);
    blocks_.push_back(block);
    return blocks_.back();
  }

  void RunTraced() {
    double plain_s = 0;
    double traced_s = 0;
    size_t plain_n = 0;
    size_t traced_n = 0;
    for (int block = 0; plain_s + traced_s < args_.seconds; ++block) {
      const bool traced = block % 2 == 1;
      MetricsSnapshot m0;
      if (traced && spec_.http) {
        m0 = FetchMetrics();
      }
      const Block& b =
          RunBlock(kBlockSeconds / 2, traced ? &layers_ : nullptr);
      (traced ? traced_s : plain_s) += b.seconds;
      (traced ? traced_n : plain_n) += b.queries;
      if (traced && spec_.http) {
        AddServerDeltas(m0, FetchMetrics());
      }
    }
    const double plain_qps = Ratio(static_cast<double>(plain_n), plain_s);
    const double traced_qps = Ratio(static_cast<double>(traced_n), traced_s);
    overhead_pct_ = Ratio(plain_qps - traced_qps, plain_qps) * 100.0;
  }

  MetricsSnapshot FetchMetrics() {
    xvr::Result<xvr::HttpResponse> response =
        client_.Roundtrip("GET", "/metrics.json", "");
    if (!response.ok() || response->status != 200) {
      Die("GET /metrics.json failed");
    }
    xvr::Result<xvr::JsonValue> json = xvr::ParseJson(response->body);
    if (!json.ok()) {
      Die("unparseable /metrics.json: " + json.status().ToString());
    }
    return MetricsSnapshot{std::move(json).value()};
  }

  // The engine-side split of served queries: deltas of the server's
  // histograms and counters around one traced block.
  void AddServerDeltas(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    const auto sum = [&](const char* name) {
      return b.Histogram(name, "sum_us") - a.Histogram(name, "sum_us");
    };
    layers_.queue_us += sum("xvr.server.queue_wait");
    layers_.query_us += sum("xvr.query.latency");
    layers_.plan_us += sum("xvr.stage.plan");
    layers_.filter_us += sum("xvr.stage.plan.filter");
    layers_.select_us += sum("xvr.stage.plan.selection");
    layers_.execute_us += sum("xvr.stage.execute");
    layers_.refine_us += sum("xvr.stage.execute.refine");
    layers_.join_us += sum("xvr.stage.execute.join");
    layers_.extract_us += sum("xvr.stage.execute.extract");
    layers_.hits += b.Counter("xvr.plan_cache.hits") -
                    a.Counter("xvr.plan_cache.hits");
    layers_.lookups += b.Counter("xvr.plan_cache.lookups") -
                       a.Counter("xvr.plan_cache.lookups");
    engine_queries_ += b.Histogram("xvr.query.latency", "count") -
                       a.Histogram("xvr.query.latency", "count");
  }

  // Per-layer numbers of the read path that are not on the timed path:
  // request parsing, and for served queries the plan and rewrite counts
  // (replayed in process before any mutation, so the cached plans answer
  // exactly as they did over HTTP).
  void MeasureServedCounts() {
    // Parse cost per sent request (weights: how often each was sent).
    std::vector<double> weights(pool_.size(), 1.0);
    if (spec_.http) {
      for (size_t i = 0; i < pool_.size(); ++i) {
        weights[i] = static_cast<double>(sent_[i]);
      }
    }
    double weight_total = 0;
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (weights[i] == 0) {
        continue;
      }
      const int64_t t0 = xvr::MonotonicNanos();
      const xvr::Result<TreePattern> parsed = engine_->Parse(pool_[i].xpath);
      const double us = static_cast<double>(xvr::MonotonicNanos() - t0) / 1e3;
      if (!parsed.ok()) {
        Die("pool query no longer parses: " + pool_[i].xpath);
      }
      parse_us_ += weights[i] * us;
      weight_total += weights[i];
      if (spec_.http) {
        const xvr::Result<Engine::Answer> answer =
            engine_->AnswerQuery(pool_[i].pattern, kStrategy);
        if (answer.ok()) {
          layers_.AddStats(answer->stats, weights[i]);
        }
      }
    }
    parse_us_ = Ratio(parse_us_, weight_total);
  }

  // The set-up split and the mutation path, after the read phase.
  void MeasureMutationPath() {
    if (spec_.churn) {
      MeasureServedCounts();
    }
    xvr::XmarkOptions doc;
    doc.scale = spec_.xmark_scale;
    doc.seed = kDocSeed;
    const int64_t t0 = xvr::MonotonicNanos();
    const xvr::XmlTree tree = xvr::GenerateXmark(doc);
    xmark_s_ = SecondsSince(t0);

    double eval_us = 0;
    double materialize_us = 0;
    double publish_us = 0;
    size_t replayed = 0;
    mutator_->Replay(kReplayTicks, &eval_us, &materialize_us, &publish_us,
                    &replayed);
    const double r = static_cast<double>(replayed);
    view_eval_us_ = Ratio(eval_us, r);
    materialize_us_ = Ratio(materialize_us, r);
    publish_us_ = Ratio(publish_us, r);
    replayed_ = replayed;
  }

  void AddLayerMetrics(Report* report) const {
    const LayerSums& s = layers_;
    // Engine-side sums are per engine query; over HTTP the server counts
    // them, in process every traced call is one.
    const double q = spec_.http ? engine_queries_
                                : static_cast<double>(s.queries);
    const double calls = static_cast<double>(s.queries);
    const size_t n = s.queries;
    const auto per_query = [&](double v) { return Ratio(v, q); };
    const double answer = per_query(s.query_us);
    const double plan = per_query(s.plan_us);
    const double execute = per_query(s.execute_us);
    const double filter = per_query(s.filter_us);
    const double select = per_query(s.select_us);
    const double refine = per_query(s.refine_us);
    const double join = per_query(s.join_us);
    const double extract = per_query(s.extract_us);
    const double queue = per_query(s.queue_us);
    const double call = Ratio(s.call_us, calls);
    std::printf(
        "split: caller %.2f us = net %.2f + queue %.2f + engine %.2f; engine "
        "= plan self %.2f + filter %.2f + selection %.2f + refine %.2f + join "
        "%.2f + extract %.2f + execute self %.2f + unattributed %.2f\n",
        call, call - queue - answer, queue, answer, plan - filter - select,
        filter, select, refine, join, extract,
        execute - refine - join - extract, answer - plan - execute);
    report->Add("net.self_us", call - queue - answer, "us", n);
    report->Add("net.queue_wait_us", queue, "us", n);
    report->Add("net.response_bytes", Ratio(s.response_bytes, calls), "bytes",
                n);
    report->Add("pattern.parse_us", parse_us_, "us", pool_.size());
    report->Add("core.answer_us", answer, "us", n);
    report->Add("core.plan_us", plan, "us", n);
    report->Add("core.execute_us", execute, "us", n);
    report->Add("core.plan_self_us", plan - filter - select, "us", n);
    report->Add("core.unattributed_us", answer - plan - execute, "us", n);
    report->Add("core.plan_cache_hit_ratio", Ratio(s.hits, s.lookups),
                "ratio", static_cast<size_t>(s.lookups));
    const size_t publishes = static_cast<size_t>(publishes_);
    report->Add("core.invalidations_per_publish",
                Ratio(invalidations_, publishes_), "count", publishes);
    report->Add("core.survivors_per_publish", Ratio(survivors_, publishes_),
                "count", publishes);
    report->Add("core.publish_us", publish_us_, "us", replayed_);
    // Plan and rewrite counts: per traced call in process, per sent
    // request (replayed) over HTTP.
    const double counted = spec_.http ? weight_total() : calls;
    report->Add("vfilter.filter_us", filter, "us", n);
    report->Add("vfilter.candidates", Ratio(s.candidates, counted), "count",
                n);
    report->Add("selection.select_us", select, "us", n);
    report->Add("selection.covers_computed", Ratio(s.covers, counted),
                "count", n);
    report->Add("selection.views_selected", Ratio(s.views_selected, counted),
                "count", n);
    report->Add("rewrite.refine_us", refine, "us", n);
    report->Add("rewrite.join_us", join, "us", n);
    report->Add("rewrite.extract_us", extract, "us", n);
    report->Add("rewrite.execute_self_us", execute - refine - join - extract,
                "us", n);
    report->Add("rewrite.fragments_scanned", Ratio(s.scanned, counted),
                "count", n);
    report->Add("rewrite.join_survivors", Ratio(s.survivors, counted),
                "count", n);
    report->Add("rewrite.refine_keep_ratio", Ratio(s.kept, s.scanned),
                "ratio", n);
    report->Add("rewrite.arena_kb", Ratio(s.arena_bytes, calls) / 1024.0,
                "KB", n);
    report->Add("storage.materialize_us", materialize_us_, "us", replayed_);
    report->Add("storage.fragment_mb",
                static_cast<double>(engine_->fragments().TotalByteSize()) / 1e6,
                "MB", 1);
    report->Add("exec.view_eval_us", view_eval_us_, "us", replayed_);
    report->Add("setup.xmark_s", xmark_s_, "s", 1);
    report->Add("setup.views_s", setup_s_ - xmark_s_, "s", 1);
    report->Add("trace.overhead_pct", overhead_pct_, "%", n);
  }

  double weight_total() const {
    double total = 0;
    for (const uint64_t c : sent_) {
      total += static_cast<double>(c);
    }
    return total;
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  xvr::PaperSetup setup_;
  Engine* engine_ = nullptr;
  std::unique_ptr<xvr::HttpServer> server_;
  xvr::HttpClient client_;
  double setup_s_ = 0;
  double inputs_s_ = 0;

  std::vector<PoolQuery> pool_;
  PoolStats pool_stats_;
  std::vector<TreePattern> churn_views_;
  std::unique_ptr<Checker> checker_;
  std::optional<Drawer> drawer_;
  std::optional<Mutator> mutator_;
  std::vector<uint64_t> sent_;
  xvr::Gauge* arena_gauge_ = nullptr;

  std::vector<double> latencies_us_;
  std::vector<Block> blocks_;
  size_t timed_queries_ = 0;
  size_t failed_ = 0;
  size_t failures_printed_ = 0;
  double elapsed_s_ = 0;

  std::vector<double> mutation_ms_;
  size_t mutations_failed_ = 0;
  double max_late_ms_ = 0;
  double publishes_ = 0;
  double invalidations_ = 0;
  double survivors_ = 0;

  LayerSums layers_;
  double engine_queries_ = 0;
  double overhead_pct_ = 0;
  double parse_us_ = 0;
  double xmark_s_ = 0;
  double view_eval_us_ = 0;
  double materialize_us_ = 0;
  double publish_us_ = 0;
  size_t replayed_ = 0;
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    Die("unknown workload '" + args.workload +
        "' (warm_http, cold_plan, churn)");
  }
  RefuseDifferentProgram();
  const CpuRotator rotator(spec->cpus);
  Workload workload(*spec, args);
  workload.SetUp();
  std::printf("ready %.6f\n", workload.setup_s());
  std::fflush(stdout);
  if (args.setup_only) {
    workload.Finish();
    return 0;
  }
  workload.BuildInputs();
  std::printf("%s\n", rotator.Describe().c_str());
  workload.PrintConfig();
  workload.WarmUp();
  workload.Run();
  workload.Finish();
  workload.PrintResult();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
