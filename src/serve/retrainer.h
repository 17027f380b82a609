#ifndef SQP_SERVE_RETRAINER_H_
#define SQP_SERVE_RETRAINER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/model_snapshot.h"
#include "log/context_builder.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"

namespace sqp {

/// Persist failures retry this many times (beyond the first attempt) with
/// exponential backoff before the cycle gives up, so a transient full disk
/// or slow NFS rename does not silently drop a rebuild's blob. The publish
/// itself is never rolled back; after_persist fires only once a persist
/// succeeds.
inline constexpr size_t kPersistMaxRetries = 3;
/// Backoff before the first persist retry; doubles on each later one.
inline constexpr std::chrono::milliseconds kPersistRetryBackoff{10};

struct RetrainerOptions {
  /// Model configuration for every snapshot this retrainer builds. An empty
  /// component list is normalized to the paper's default set at
  /// construction. Components must fit in Pst::kMaxViews.
  MvmmOptions model;

  /// |Q| used for smoothing. 0 = derive from the corpus at each rebuild
  /// (largest query id seen + 1); set it explicitly when the dictionary's
  /// id space is known so retrained and from-scratch models agree exactly.
  size_t vocabulary_size = 0;

  /// Background mode: how often the worker checks for pending sessions
  /// (it retrains whenever any are pending).
  std::chrono::milliseconds poll_interval{20};

  /// When non-empty, every published rebuild (Bootstrap and each retrain
  /// cycle) is also written here as its snapshot blob (core/snapshot_io
  /// format) — the very bytes the engine serves — atomically via
  /// tmp+rename, so a crash or a concurrent cold-booting replica never
  /// observes a partial file. Serving replicas boot from it with
  /// RecommenderEngine::LoadAndPublish without retraining. A persist
  /// failure is reported through the returned Status / last_status() but
  /// does not roll back the in-memory publish.
  std::string persist_path;

  /// Invoked after every successful persist (Bootstrap and each retrain
  /// cycle), on the thread that rebuilt, with the publish already live.
  /// ShardedRetrainerSet uses this to re-pin the fleet manifest whenever
  /// a shard republishes its blob; anything slow belongs elsewhere (the
  /// rebuild path blocks on it).
  std::function<void()> after_persist;

  /// Unread; kept because perfbench/src/closed_loop.cc sets it.
  bool publish_compact = false;
};

/// Rebuild/persist counters (monotonic since construction).
struct RetrainerStats {
  uint64_t rebuilds = 0;          // snapshots published (incl. bootstrap)
  uint64_t retrain_failures = 0;  // rebuild attempts that failed to build
  uint64_t persist_retries = 0;   // extra persist attempts after a failure
  uint64_t persist_failures = 0;  // persists that gave up after retries
};

/// The streaming retrain/swap engine: consumes appended session batches,
/// extends the counting index incrementally (no from-scratch recount),
/// rebuilds the shared PST + sigma fit off to the side, packs the full
/// ModelSnapshot once into its CompactSnapshot blob (default layout), and
/// publishes that blob to a RecommenderEngine atomically; with a
/// persist_path the same bytes go to disk.
/// Serving is never blocked: readers keep answering from the previous
/// snapshot for the whole rebuild.
///
/// Equivalence guarantee (tested): after appending batches B1..Bk to a
/// Bootstrap corpus B0 and completing a retrain, the published snapshot is
/// equivalent to training from scratch on the concatenation B0+B1+...+Bk —
/// counting is associative and the rebuild consumes the same canonical
/// entry order either way.
///
/// Threading: AppendSessions and the observers are safe from any thread.
/// Rebuilds are internally serialized; Bootstrap/RetrainOnce may be called
/// directly or a background worker can poll via Start/Stop. A publish
/// never blocks the engine's readers (see the RecommenderEngine contract):
/// readers keep answering from the previous snapshot until the atomic
/// swap, and in-flight queries finish on the snapshot they grabbed.
class Retrainer {
 public:
  Retrainer(RecommenderEngine* engine, RetrainerOptions options);
  ~Retrainer();  // stops the background worker

  Retrainer(const Retrainer&) = delete;
  Retrainer& operator=(const Retrainer&) = delete;

  /// Seeds the corpus, builds the counting index that every later retrain
  /// extends, and publishes snapshot version 1: `prebuilt` when given — a
  /// snapshot already trained on exactly `corpus` under this retrainer's
  /// model options, e.g. a shard of TrainShardedSnapshots — else one
  /// trained here. `corpus` may be empty only with `prebuilt` (a shard whose
  /// corpus slice is empty); a `prebuilt` not carrying version 1 is
  /// InvalidArgument and publishes nothing. Must be called exactly once,
  /// before anything else.
  Status Bootstrap(std::vector<AggregatedSession> corpus,
                   std::shared_ptr<const ModelSnapshot> prebuilt = nullptr);

  /// Queues freshly-observed sessions for the next retrain cycle.
  /// Thread-safe; never blocks on a rebuild.
  void AppendSessions(std::vector<AggregatedSession> sessions);

  /// Closes the serving loop: queues the clicked impressions of the
  /// feedback log at `dir` that this retrainer has not consumed yet via
  /// AppendSessions, with FeedbackCursor's idempotence and click-before-
  /// consume contract (serve/feedback.h; consume at session boundaries,
  /// as the CLI does). Returns the number of sessions queued.
  /// Thread-safe; property-tested equal to appending the equivalent
  /// sessions directly.
  Result<size_t> ConsumeFeedback(const std::string& dir);

  /// Drains pending sessions and, if any were queued, rebuilds and
  /// publishes the next snapshot version synchronously. No-op (OK) when
  /// nothing is pending.
  Status RetrainOnce();

  /// Starts/stops the background worker that polls for pending sessions
  /// and retrains. Failures are retained in last_status().
  void Start();
  void Stop();
  bool running() const;

  /// Version of the last snapshot this retrainer published (0 before
  /// Bootstrap).
  uint64_t published_version() const;

  /// Blocks until published_version() >= version (e.g. await one background
  /// retrain cycle after an append).
  void WaitForVersionAtLeast(uint64_t version) const;

  /// Status of the most recent rebuild attempt.
  Status last_status() const;

  /// Rebuild/persist counters (see RetrainerStats).
  RetrainerStats stats() const;

  size_t pending_sessions() const;
  /// Sessions in the training corpus so far; blocks while a rebuild is in
  /// flight (diagnostic accessor, not a serving-path API).
  size_t corpus_size() const;

 private:
  Status RebuildAndPublish(std::vector<AggregatedSession> fresh);
  void BackgroundLoop();
  size_t EffectiveVocabulary() const;
  /// Packs `full` once, publishes the blob to the engine, advances
  /// published_version() to `version` as soon as the swap is live (persist
  /// failures never roll a publish back, so the version moves with the
  /// publish — and after_persist observers see the version the blob they
  /// are pinning carries), then persists the same blob to persist_path if
  /// configured. Returns the persist status; the publish itself cannot
  /// fail.
  Status PublishAndPersist(const ModelSnapshot& full, uint64_t version);

  RecommenderEngine* engine_;
  RetrainerOptions options_;

  /// Relaxed counters (read via stats(); bumped on the rebuild thread and
  /// the persist retry loop).
  mutable std::atomic<uint64_t> rebuilds_{0};
  mutable std::atomic<uint64_t> retrain_failures_{0};
  mutable std::atomic<uint64_t> persist_retries_{0};
  mutable std::atomic<uint64_t> persist_failures_{0};

  /// Guards pending_, version_, last_status_, bootstrapped_.
  mutable std::mutex mu_;
  mutable std::condition_variable version_cv_;
  std::vector<AggregatedSession> pending_;
  uint64_t version_ = 0;
  Status last_status_;
  bool bootstrapped_ = false;

  /// ConsumeFeedback's watermark and its lock.
  FeedbackCursor feedback_;

  /// Serializes rebuilds; corpus_, index_ and observed_max_id_ are only
  /// touched with this held.
  mutable std::mutex retrain_mu_;
  std::vector<AggregatedSession> corpus_;
  ContextIndex index_;
  QueryId observed_max_id_ = 0;

  /// Background worker state. lifecycle_mu_ serializes Start/Stop (the run
  /// flag and worker_ must change together); stop_ is the run flag (true =
  /// not running); stop_cv_ interrupts the poll sleep.
  std::mutex lifecycle_mu_;
  std::thread worker_;
  mutable std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stop_{true};
};

}  // namespace sqp

#endif  // SQP_SERVE_RETRAINER_H_
