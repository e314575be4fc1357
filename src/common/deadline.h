#ifndef XVR_COMMON_DEADLINE_H_
#define XVR_COMMON_DEADLINE_H_

// Deadlines, cancellation and per-call resource budgets for the serving
// path.
//
// A query carries a QueryLimits in its ExecutionContext. Stage boundaries
// (plan, execute) and the hot loops (NFA filtering, exhaustive selection,
// refinement, holistic join) call CheckInterrupted / InterruptTicker::Tick;
// an expired deadline surfaces as DEADLINE_EXCEEDED, a tripped CancelToken
// as CANCELLED, and a blown budget as RESOURCE_EXHAUSTED — always through
// the normal Status plumbing, never by aborting.
//
// Degradation, not failure, where the paper sanctions it: when exhaustive
// minimum-set selection (§IV set cover, exponential in |LF(Q)|) meets a leaf
// universe too large for its DP, the planner falls back to the greedy
// heuristic (Algorithm 2) and records the degradation in AnswerStats
// instead of failing the query.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace xvr {

// A point in steady time after which work should stop. Default-constructed
// deadlines are infinite and cost one branch to check (no clock read).
class Deadline {
 public:
  Deadline() = default;  // infinite

  static Deadline Infinite() { return Deadline(); }

  // Expires `micros` microseconds from now; micros <= 0 is already expired.
  static Deadline AfterMicros(int64_t micros) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = Clock::now() + std::chrono::microseconds(micros);
    return d;
  }

  bool infinite() const { return !has_deadline_; }

  bool Expired() const { return has_deadline_ && Clock::now() >= at_; }

  // INT64_MAX when infinite; never negative.
  int64_t RemainingMicros() const {
    if (!has_deadline_) {
      return INT64_MAX;
    }
    const int64_t rem = std::chrono::duration_cast<std::chrono::microseconds>(
                            at_ - Clock::now())
                            .count();
    return rem < 0 ? 0 : rem;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool has_deadline_ = false;
  Clock::time_point at_{};
};

// Cooperative cancellation flag, shared by pointer between the caller and
// any number of in-flight queries. Thread-safe.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Per-call limits carried in the ExecutionContext. Zero-valued budgets are
// disabled; the default QueryLimits therefore imposes no limit at all.
struct QueryLimits {
  Deadline deadline;
  // Not owned; may be null. Must outlive the call.
  const CancelToken* cancel = nullptr;

  // Cap on the VFILTER candidate-set size handed to selection (0 = off).
  size_t max_candidates = 0;
  // Cap on refined fragments a single view may contribute to the holistic
  // join — bounds the intermediate join width (0 = off).
  size_t max_join_fragments = 0;
  // Cap on answer cardinality (0 = off). It bounds only the codes emitted:
  // the rewriter keeps the answer nodes of every refined primary fragment
  // before the join runs, whatever this cap (max_join_fragments bounds them).
  size_t max_result_codes = 0;
};

// The stage-boundary / hot-loop check. `where` names the checkpoint for the
// error message ("plan", "vfilter", "join", ...).
inline Status CheckInterrupted(const QueryLimits& limits, const char* where) {
  if (limits.cancel != nullptr && limits.cancel->Cancelled()) {
    return Status::Cancelled(std::string("query cancelled at ") + where);
  }
  if (limits.deadline.Expired()) {
    return Status::DeadlineExceeded(std::string("deadline expired at ") +
                                    where);
  }
  return Status::Ok();
}

// Strided variant for hot loops: reads the clock only every `stride`-th
// call (and on the first), keeping the per-iteration cost to one increment
// and one predictable branch.
class InterruptTicker {
 public:
  explicit InterruptTicker(const QueryLimits& limits, uint32_t stride = 64)
      : limits_(limits), stride_(stride == 0 ? 1 : stride) {}

  Status Tick(const char* where) {
    if (count_++ % stride_ != 0) {
      return Status::Ok();
    }
    return CheckInterrupted(limits_, where);
  }

 private:
  const QueryLimits& limits_;
  const uint32_t stride_;
  uint32_t count_ = 0;
};

}  // namespace xvr

#endif  // XVR_COMMON_DEADLINE_H_
