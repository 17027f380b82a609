#ifndef SQP_SERVE_DEADLINE_H_
#define SQP_SERVE_DEADLINE_H_

/// The serving-layer QoS vocabulary: a monotonic-clock deadline, the two
/// admission priority lanes, and the request/response types the
/// deadline-aware Recommend/RecommendMany overloads speak. The `net/`
/// tier carries the same contract across processes (the wire frame header
/// holds the deadline budget and the lane), so this header stays free of
/// queue implementation detail (serve/admission_queue.h holds that).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/prediction_model.h"
#include "util/status.h"

namespace sqp {

struct FeedbackHook;  // serve/feedback.h

/// Admission priority class. Interactive traffic (the paper's live
/// as-you-type suggestion requests) is always granted the execution slot
/// ahead of bulk traffic (offline scoring, eval sweeps, backfills),
/// regardless of arrival order; within a lane grants are FIFO. Not to be
/// confused with WorkerPool "lanes" (its worker threads).
enum class QosLane : uint8_t {
  kInteractive = 0,
  kBulk = 1,
};

inline constexpr size_t kNumQosLanes = 2;

inline const char* QosLaneName(QosLane lane) {
  return lane == QosLane::kInteractive ? "interactive" : "bulk";
}

/// An absolute monotonic-clock deadline. Default-constructed deadlines are
/// unbounded: the request waits however long it must and is never shed —
/// exactly the semantics the deadline-free API always had. Deadlines are
/// absolute (steady_clock time points), so queue wait, retries and
/// mid-batch checks all burn the same budget; callers with a latency
/// budget use Deadline::After(budget) at arrival.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unbounded (never expires, never shed).
  Deadline() = default;

  static Deadline None() { return Deadline(); }

  /// Expires `budget` from now.
  static Deadline After(std::chrono::microseconds budget) {
    return At(Clock::now() + budget);
  }

  /// Expires at the given absolute time.
  static Deadline At(Clock::time_point at) {
    Deadline d;
    d.bounded_ = true;
    d.at_ = at;
    return d;
  }

  bool bounded() const { return bounded_; }
  Clock::time_point time() const { return at_; }

  bool Expired(Clock::time_point now = Clock::now()) const {
    return bounded_ && now >= at_;
  }

  /// Microseconds until expiry (+inf when unbounded, <= 0 once expired).
  double RemainingMicros(Clock::time_point now = Clock::now()) const {
    if (!bounded_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::micro>(at_ - now).count();
  }

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

/// Per-request QoS options for the deadline-aware serving overloads.
struct ServeOptions {
  /// Unbounded by default: the request behaves exactly like the
  /// deadline-free API (waits, never shed, never degraded).
  Deadline deadline;

  /// Admission priority. Single queries and small inline batches never
  /// contend for the pool, so the lane only matters for pool-sized
  /// batches.
  QosLane lane = QosLane::kInteractive;

  /// Closed-loop serving hook (serve/feedback.h): when set, every served
  /// answer is passed through the hook's exploration reranker and logged
  /// as a feedback impression. Null (the default) — and a hook whose
  /// exploration is disabled — leave served answers bit-identical to
  /// hook-free serving. The hook must outlive the request; one hook may
  /// be shared by any number of concurrent requests.
  const FeedbackHook* feedback = nullptr;
};

/// Outcome of one deadline-aware single-query request.
struct ServeResult {
  Recommendation recommendation;

  /// kOk — served; kDeadlineExceeded — shed (deadline expired on
  /// arrival); kUnavailable — no published snapshot for the responsible
  /// replica/shard (recommendation is uncovered-empty either way).
  StatusCode status = StatusCode::kOk;

  /// Version of the snapshot that answered, 0 if none did.
  uint64_t served_version = 0;

  /// True when overload pressure reduced the effective top_n.
  bool degraded = false;

  /// Feedback record id assigned by ServeOptions::feedback's log (0 when
  /// no hook was set or nothing was logged). Callers use it to attribute
  /// a later click to this impression via FeedbackLog::RecordClick.
  uint64_t feedback_record_id = 0;
};

/// Outcome of one deadline-aware batch. The batch may be admitted in
/// full, admitted and cut mid-flight by its deadline (partial results),
/// or shed whole at admission — per-item `statuses` always says which.
struct BatchResult {
  /// Positionally aligned with the request's contexts. Items not served
  /// (shed, expired, unavailable) are uncovered-empty.
  std::vector<Recommendation> results;

  /// Per-item outcome, aligned with `results`: kOk — served;
  /// kDeadlineExceeded — the deadline expired before this item was
  /// answered (shed at admission or cut mid-batch); kResourceExhausted —
  /// shed because the lane's admission queue was full; kUnavailable — the
  /// owning replica/shard has no published snapshot.
  std::vector<StatusCode> statuses;

  /// Items actually answered (count of kOk statuses).
  size_t served = 0;

  /// Version of the snapshot that answered (single-engine batches; 0 for
  /// sharded fleets, whose per-shard versions are
  /// ShardedEngine::shard_versions()).
  uint64_t served_version = 0;

  /// The admission decision for the batch as a whole: OK when the batch
  /// got the execution slot (even if the deadline later cut it short),
  /// DeadlineExceeded / ResourceExhausted when it was shed outright.
  Status admission;

  /// The top_n actually served; < the requested top_n when the overload
  /// degrade ladder engaged.
  size_t effective_top_n = 0;
  bool degraded = false;
};

}  // namespace sqp

#endif  // SQP_SERVE_DEADLINE_H_
