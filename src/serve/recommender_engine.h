#ifndef SQP_SERVE_RECOMMENDER_ENGINE_H_
#define SQP_SERVE_RECOMMENDER_ENGINE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/model_snapshot.h"
#include "serve/admission_queue.h"
#include "serve/deadline.h"
#include "serve/worker_pool.h"
#include "util/status.h"

namespace sqp {

/// A borrowed view of one online context (the user's session so far, oldest
/// query first). RecommendMany takes a span of these so callers can batch
/// requests without copying query sequences.
using ContextRef = std::span<const QueryId>;

/// Borrowed views of owned query sequences, for callers that hold their
/// contexts as vectors. The refs are valid only while `contexts` is.
inline std::vector<ContextRef> AsRefs(
    const std::vector<std::vector<QueryId>>& contexts) {
  std::vector<ContextRef> refs;
  refs.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    refs.emplace_back(context.data(), context.size());
  }
  return refs;
}

#if defined(__SANITIZE_THREAD__)
#define SQP_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SQP_THREAD_SANITIZER 1
#endif
#endif

/// Holder for the published snapshot pointer. Normal builds use the
/// lock-free std::atomic<std::shared_ptr> swap. Under ThreadSanitizer the
/// holder degrades to a mutex: libstdc++ 12's _Sp_atomic::load releases its
/// internal spinlock with a relaxed fetch_sub, which TSAN (correctly, per
/// the formal model) reports as a race against the next store's pointer
/// write — the fallback keeps the TSAN job signal-clean without muting real
/// races elsewhere.
class AtomicSnapshotPtr {
 public:
  std::shared_ptr<const CompactSnapshot> load() const {
#ifdef SQP_THREAD_SANITIZER
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
#else
    return ptr_.load(std::memory_order_acquire);
#endif
  }

  void store(std::shared_ptr<const CompactSnapshot> snapshot) {
#ifdef SQP_THREAD_SANITIZER
    // Swap under the lock but let the displaced snapshot (potentially the
    // last reference to a whole model) destruct outside it.
    std::shared_ptr<const CompactSnapshot> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = std::move(ptr_);
      ptr_ = std::move(snapshot);
    }
#else
    ptr_.store(std::move(snapshot), std::memory_order_release);
#endif
  }

 private:
#ifdef SQP_THREAD_SANITIZER
  mutable std::mutex mu_;
  std::shared_ptr<const CompactSnapshot> ptr_;
#else
  std::atomic<std::shared_ptr<const CompactSnapshot>> ptr_;
#endif
};

/// Batches smaller than this run inline on the calling thread — fanning
/// out a handful of microsecond-scale walks costs more than it buys.
inline constexpr size_t kMinBatchFanout = 32;

struct EngineOptions {
  /// Worker lanes for batched serving, including the calling thread
  /// (0 = hardware concurrency clamped to [1, 16]; explicit values are
  /// clamped to [1, 64]). Single-query Recommend never touches the pool.
  size_t num_threads = 0;

  /// Admission-control knobs for the batch execution slot (lane bounds,
  /// EWMA estimator, degrade ladder). Defaults keep no-deadline traffic
  /// behaving exactly like the pre-QoS engine.
  AdmissionOptions admission;
};

/// Serving counters (monotonic since engine construction).
struct EngineStats {
  uint64_t queries_served = 0;      // single + batched queries
  uint64_t batches_served = 0;      // RecommendMany calls
  uint64_t snapshots_published = 0; // Publish calls

  /// Per-lane QoS counters (admitted / shed / expired / degraded) and
  /// latency histograms, plus the admission EWMA. Populated by batch
  /// traffic and by deadline-bounded single queries; unbounded single
  /// queries take the fast path and stay out of it to keep the hot path
  /// clock-free.
  AdmissionStats admission;
};

/// The concurrent serving front-end of the recommender: any number of
/// threads call Recommend / RecommendMany while retraining publishes fresh
/// snapshots through a lock-free atomic shared_ptr swap. The engine serves
/// one model type, the CompactSnapshot blob (core/compact_snapshot.h), with
/// direct calls; the full ModelSnapshot is the trainer and reference and is
/// packed before it is published.
///
/// Consistency contract (the one-published-snapshot invariant): every query
/// is answered from exactly one fully-built, fully-published snapshot — a
/// query grabs the snapshot pointer once and never observes a model
/// mid-build; a batch is answered entirely from one snapshot even if a swap
/// lands mid-batch. Readers are never blocked by a publish, and a snapshot
/// stays alive (shared_ptr refcount) until the last in-flight query drops
/// it.
///
/// Thread-safety: all const methods are safe from any number of threads
/// concurrently with Publish from any other thread. Per-thread scratch is
/// managed internally; callers hold no serving state.
class RecommenderEngine {
 public:
  explicit RecommenderEngine(EngineOptions options = {});

  RecommenderEngine(const RecommenderEngine&) = delete;
  RecommenderEngine& operator=(const RecommenderEngine&) = delete;

  /// Atomically swaps the serving snapshot. Callers build the blob off to
  /// the side (ModelSnapshot::Build packed by CompactSnapshot::FromSnapshot,
  /// typically via a Retrainer, or a SnapshotIo load) and publish it here;
  /// in-flight queries finish on the snapshot they grabbed. Safe from any
  /// thread; never blocks readers.
  void Publish(std::shared_ptr<const CompactSnapshot> snapshot);

  /// Publish(CompactSnapshot::FromSnapshot(*model)): the default-layout pack.
  /// Kept for perfbench/tests/perfbench_tests.cc, which publishes a model.
  void Publish(std::shared_ptr<const ModelSnapshot> model);

  /// Cold-boot path: maps a persisted compact snapshot blob (written by
  /// core/snapshot_io — e.g. a Retrainer with persist_path set, or
  /// recommender_cli --save-snapshot) zero-copy and publishes it. The
  /// replica serves after O(file size) page-ins with no retraining; the
  /// published snapshot carries the version stored in the blob. On any
  /// validation failure (missing, truncated or corrupt blob) the current
  /// snapshot stays live and the error is returned.
  Status LoadAndPublish(const std::string& path);

  /// The currently-published snapshot (null before the first Publish).
  /// Safe from any thread.
  std::shared_ptr<const CompactSnapshot> CurrentSnapshot() const;

  /// Version of the current snapshot, 0 before the first Publish.
  uint64_t current_version() const;

  /// The single-query serving path: one snapshot grab, one shared-tree
  /// walk, per-thread scratch. With an unbounded deadline (the default
  /// ServeOptions) the request takes a fast path with no clock reads or
  /// QoS accounting; with a bounded one it may be shed on arrival (status
  /// kDeadlineExceeded) or served with a reduced top_n under overload
  /// (degraded = true). Single queries never wait for the batch slot —
  /// the deadline only guards against serving a request that is already
  /// dead. kUnavailable before the first Publish.
  ServeResult Recommend(ContextRef context, size_t top_n,
                        const ServeOptions& options = {}) const;

  /// The batched serving path: answers every context from ONE snapshot,
  /// fanning the batch out across the worker pool (small batches run
  /// inline). Results are positionally aligned with `contexts`. With an
  /// unbounded deadline the batch is never shed, cut or degraded (it
  /// waits however long the backlog takes); with a bounded one it may be
  /// shed whole at admission (queue full or deadline unmeetable given the
  /// EWMA backlog estimate), cut mid-batch when the deadline expires
  /// (partial results, remaining items marked kDeadlineExceeded), or
  /// served with a reduced top_n under overload. Per-item outcomes are in
  /// BatchResult::statuses.
  BatchResult RecommendMany(std::span<const ContextRef> contexts,
                            size_t top_n,
                            const ServeOptions& options = {}) const;

  size_t num_threads() const { return pool_.num_lanes(); }
  EngineStats stats() const;

 private:
  /// The one batch loop behind both engines' RecommendMany. Item i is
  /// answered from snapshots[ShardOfContext(contexts[i], snapshots.size())]
  /// (no routing hash when there is one snapshot); a null entry answers
  /// its items kUnavailable, and all entries null answers the whole batch
  /// so without touching the admission queue. The arrival check, degrade,
  /// inline-vs-pool choice, admission, mid-batch cut, feedback hook and
  /// counters all run on this engine's queue, pool and lane scratch.
  /// served_version is the snapshot's version when there is exactly one.
  BatchResult ServeBatch(
      std::span<const std::shared_ptr<const CompactSnapshot>> snapshots,
      std::span<const ContextRef> contexts, size_t top_n,
      const ServeOptions& options) const;

  /// A fleet runs its cross-shard batches through ServeBatch on an
  /// unpublished engine of its own (serve/sharded_engine.h).
  friend class ShardedEngine;

  AtomicSnapshotPtr snapshot_;
  mutable WorkerPool pool_;
  /// The batch execution slot: one job at a time on the pool; concurrent
  /// batch callers wait (or are shed) in the bounded two-lane admission
  /// queue instead of convoying on a mutex.
  mutable AdmissionQueue admission_;
  /// Per-lane scratch for batch jobs, guarded by admission-slot ownership.
  mutable std::vector<SnapshotScratch> lane_scratch_;
  /// The per-query counter is sharded across cache-line-padded slots
  /// (indexed by a thread-stable hash) so concurrent single-query readers
  /// don't ping-pong one line on the hot path; stats() sums the shards.
  struct alignas(64) CounterShard {
    std::atomic<uint64_t> value{0};
  };
  static constexpr size_t kCounterShards = 16;
  mutable std::array<CounterShard, kCounterShards> queries_served_;
  mutable std::atomic<uint64_t> batches_served_{0};
  std::atomic<uint64_t> snapshots_published_{0};
};

}  // namespace sqp

#endif  // SQP_SERVE_RECOMMENDER_ENGINE_H_
