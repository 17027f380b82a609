#ifndef SQP_SERVE_ADMISSION_QUEUE_H_
#define SQP_SERVE_ADMISSION_QUEUE_H_

/// Bounded two-lane admission control for the batch execution slot.
///
/// RecommenderEngine's one batch loop — which a ShardedEngine's batches
/// run through too — fans batches out on a WorkerPool that runs one job
/// at a time; before this queue existed, concurrent batch callers serialized on
/// a bare mutex — an unbounded convoy with no fairness, no deadline
/// awareness, and no way to tell the system was drowning. The admission
/// queue replaces that mutex with an explicit waiting room:
///
///  - Two priority lanes. A waiting interactive job is always granted the
///    slot before any waiting bulk job, whatever the arrival order; within
///    a lane grants are FIFO (so equal-priority callers all make
///    progress and a small batch is never starved behind a large one
///    that arrived later).
///  - Shed on arrival: a deadline-carrying job whose projected completion
///    (items ahead of it + its own items, times the EWMA per-item service
///    time) already overruns its deadline is refused immediately —
///    failing fast beats queueing work that is already dead.
///  - Shed on overflow: each lane bounds its waiting-job count; a
///    deadline-carrying job arriving at a full lane is refused with
///    kResourceExhausted instead of deepening the convoy.
///  - Expiry in queue: a job whose deadline passes while it waits is
///    dequeued and refused; it never occupies the slot.
///  - Degrade before shed: under queue pressure, deadline-carrying
///    requests are offered a reduced top_n (DegradedTopN) so the fleet
///    sheds quality before it sheds requests.
///
/// Jobs with an unbounded deadline (the default ServeOptions) are exempt
/// from all shedding: they wait however long the backlog takes, exactly
/// as the old mutex behaved — which is what keeps bounded-deadline
/// serving bit-identical to unbounded-deadline serving when there is no
/// overload.
///
/// The queue also owns the per-lane QoS counters and latency histograms
/// (inline fast paths that never contend for the slot report through
/// RecordServed / CountShed), so EngineStats can surface one coherent
/// admitted/shed/expired/degraded story.
///
/// Thread-safety: all methods are safe from any number of threads.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "serve/deadline.h"
#include "util/status.h"

namespace sqp {

/// Latency histogram resolution: bucket b counts requests whose
/// end-to-end latency was in [2^(b-1), 2^b) microseconds (bucket 0:
/// < 1us; the last bucket absorbs everything slower than ~0.5s).
inline constexpr size_t kLatencyBuckets = 20;

/// Returns the histogram bucket for a latency in microseconds.
size_t LatencyBucket(double latency_us);

/// Smoothing factor of the per-item service-time EWMA that drives
/// shed-on-arrival (higher = adapts faster, noisier).
inline constexpr double kServiceEwmaAlpha = 0.2;

/// Seed of that EWMA before the first job completes. Deliberately small:
/// the queue starts permissive and tightens as it observes real service
/// times.
inline constexpr double kInitialServiceUsPerItem = 0.5;

/// Degrade ladder: when the total waiting-job count reaches this fraction
/// of total capacity, deadline-carrying requests are served with a halved
/// top_n (floored at kDegradeMinTopN) instead of being shed.
inline constexpr double kDegradePressure = 0.5;
inline constexpr size_t kDegradeMinTopN = 3;

struct AdmissionOptions {
  /// Maximum waiting jobs per lane; a deadline-carrying job arriving at a
  /// full lane is shed with kResourceExhausted. Unbounded-deadline jobs
  /// are never shed and may exceed the bound (they keep the blocking
  /// contract). The degrade threshold scales with their sum.
  size_t interactive_capacity = 64;
  size_t bulk_capacity = 16;
};

/// Monotonic per-lane QoS counters (a plain snapshot copy; see
/// AdmissionQueue::stats()).
struct LaneCounters {
  uint64_t admitted = 0;         // requests that ran (fully or partially)
  uint64_t shed_queue_full = 0;  // refused: lane at capacity
  uint64_t shed_deadline = 0;    // refused: deadline unmeetable on arrival
  uint64_t expired_in_queue = 0; // refused: deadline passed while waiting
  uint64_t expired_items = 0;    // batch items cut by mid-batch checks
  uint64_t degraded = 0;         // requests served with reduced top_n
  std::array<uint64_t, kLatencyBuckets> latency_hist{};

  uint64_t shed_total() const {
    return shed_queue_full + shed_deadline + expired_in_queue;
  }

  void MergeFrom(const LaneCounters& other);
};

struct AdmissionStats {
  std::array<LaneCounters, kNumQosLanes> lanes;

  /// Current per-item service-time estimate in microseconds.
  double ewma_service_us_per_item = 0.0;

  const LaneCounters& lane(QosLane l) const {
    return lanes[static_cast<size_t>(l)];
  }

  /// Sums counters lane-wise (for fleet-level aggregation); the EWMA
  /// keeps this object's value.
  void MergeFrom(const AdmissionStats& other);
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options = {});

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Requests the execution slot for a job of `num_items`. Returns OK once
  /// the caller owns the slot (it MUST then call Release exactly once), or
  /// a shed decision: DeadlineExceeded (unmeetable on arrival, or expired
  /// while waiting) / ResourceExhausted (lane full). Shed outcomes are
  /// counted internally; admitted outcomes are counted by the paired
  /// RecordServed.
  Status Admit(QosLane lane, const Deadline& deadline, size_t num_items);

  /// Releases the slot. `items_served` / `service_us` (the slot-held
  /// wall time) feed the EWMA estimator; pass items_served = 0 when the
  /// whole job expired to leave the estimate untouched.
  void Release(size_t items_served, double service_us);

  /// The degrade ladder: the top_n to actually serve for a request with
  /// this deadline. Unbounded-deadline requests always get the full
  /// top_n; bounded ones get a halved top_n under queue pressure.
  size_t DegradedTopN(size_t top_n, const Deadline& deadline) const;

  /// Records a completed request in the lane counters and latency
  /// histogram. Used by every serving path, including inline ones that
  /// never called Admit.
  void RecordServed(QosLane lane, double latency_us, bool degraded,
                    size_t expired_items);

  /// Records a shed that happened outside Admit (e.g. an inline path
  /// observing an already-expired deadline). `code` must be
  /// kDeadlineExceeded or kResourceExhausted.
  void CountShed(QosLane lane, StatusCode code);

  /// Jobs currently waiting in one lane (diagnostic; racy by nature).
  size_t waiting_jobs(QosLane lane) const;

  AdmissionStats stats() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Waiter {
    size_t items = 0;
    bool granted = false;
  };

  /// Grants the slot to the highest-priority waiter if it is free.
  /// mu_ must be held.
  void MaybeGrantLocked();

  size_t capacity(QosLane lane) const {
    return lane == QosLane::kInteractive ? options_.interactive_capacity
                                         : options_.bulk_capacity;
  }

  /// Items that would be served before a new arrival on `lane` gets the
  /// slot. mu_ must be held.
  double ItemsAheadLocked(QosLane lane) const;

  AdmissionOptions options_;
  size_t degrade_threshold_jobs_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<Waiter*>, kNumQosLanes> waiting_;
  std::array<size_t, kNumQosLanes> waiting_items_{};
  bool busy_ = false;
  size_t running_items_ = 0;
  double ewma_us_per_item_ = kInitialServiceUsPerItem;  // guarded by mu_

  /// Lock-free mirror of the total waiting-job count so the inline
  /// serving paths can read degrade pressure without touching mu_.
  std::atomic<size_t> waiting_jobs_total_{0};

  /// Counters are relaxed atomics: they are bumped from paths that must
  /// not contend on mu_ (inline serving) and only ever read as
  /// monotonic approximations.
  struct AtomicLane {
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> shed_queue_full{0};
    std::atomic<uint64_t> shed_deadline{0};
    std::atomic<uint64_t> expired_in_queue{0};
    std::atomic<uint64_t> expired_items{0};
    std::atomic<uint64_t> degraded{0};
    std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_hist{};
  };
  mutable std::array<AtomicLane, kNumQosLanes> counters_;
};

}  // namespace sqp

#endif  // SQP_SERVE_ADMISSION_QUEUE_H_
