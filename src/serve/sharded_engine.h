#ifndef SQP_SERVE_SHARDED_ENGINE_H_
#define SQP_SERVE_SHARDED_ENGINE_H_

/// Sharded serving: the query-id space is partitioned across N independent
/// RecommenderEngine shards (log/shard_partitioner.h routes by the
/// context's most recent query), each serving its own packed blob through
/// the usual atomic swap. The load-bearing property is *bit-identical
/// output*: the suffix-keyed PST walk for a context only ever visits nodes
/// whose newest query is context.back(), every such node's counts, KL
/// growth decision and view mask depend only on data from sessions where
/// that query occurs at a non-final position — exactly the sessions the
/// partitioner gives the owning shard — and the serving mixture never
/// scores the root. A shard therefore answers its contexts exactly as the
/// unsharded model would (tested for shard counts {1, 2, 4, 7}).
///
/// The per-component Gaussian widths are the one global quantity: the
/// sharded trainer fits them ONCE over the full corpus with the unsharded
/// build's own fit (internal::FitSigmas), each pseudo-test walk of the
/// Eq. 8-10 sample routed to the owning shard's tree, then stamps the same
/// sigma vector onto every shard (ModelSnapshot::WithSigmas /
/// MvmmOptions::fixed_sigmas). Rebuilding one shard keeps the fleet
/// weight-consistent because rebuilds reuse the fixed vector.
///
/// Persistence: per-shard compact blobs (core/snapshot_io) indexed by a
/// SnapshotManifest; a fleet cold-boots with one
/// ShardedEngine::BootFromManifest(manifest) call.

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/model_snapshot.h"
#include "core/snapshot_io.h"
#include "log/shard_partitioner.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "util/status.h"

namespace sqp {

struct ShardedEngineOptions {
  /// Number of engine shards (>= 1; clamped to [1, 4096]).
  size_t num_shards = 1;

  /// Worker lanes for cross-shard batched serving, including the calling
  /// thread (0 = hardware concurrency clamped to [1, 16]; explicit values
  /// clamped to [1, 64]). Shard engines themselves run single-lane — the
  /// fleet's batch engine owns all batch parallelism, so lanes are not
  /// multiplied by shards.
  size_t num_threads = 0;
};

/// The sharded serving front-end: routes every request to the shard owning
/// its context and reassembles batch results positionally. Because each
/// context is answered entirely by its owning shard — which serves the
/// unsharded model's exact scores for that context, with the same
/// (score desc, query asc) tie-breaking — the merged global top-N equals
/// the single-engine output bit for bit.
///
/// Batches run through RecommenderEngine's one batch loop on an
/// unpublished engine the fleet owns: that engine's pool is the fleet's
/// lanes and its admission queue the fleet's batch slot, so a fleet batch
/// has exactly the admission / mid-batch-expiry / degrade semantics of a
/// single-engine batch. Single queries run through the same engine's one
/// single-query loop, on the owning shard's snapshot. Shard engines only
/// hold the snapshots: they are single-lane and see none of the fleet's
/// traffic.
///
/// Thread-safety: mirrors RecommenderEngine — all const methods are safe
/// from any number of threads concurrently with shard(s)->Publish from
/// any other thread. A batch grabs each shard's
/// snapshot once, so even a swap landing mid-batch cannot mix generations
/// within one shard's answers.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const { return batch_engine_.num_threads(); }

  /// The shard owning `context` (shard 0 for empty contexts, which are
  /// uncovered everywhere).
  uint32_t OwningShard(ContextRef context) const {
    return ShardOfContext(context,
                          static_cast<uint32_t>(shards_.size()));
  }

  /// Direct access to one shard's engine — the seam a per-shard Retrainer
  /// publishes through (shard(s)->Publish swaps one shard; readers of the
  /// others are untouched).
  RecommenderEngine* shard(size_t s) { return shards_[s].get(); }
  const RecommenderEngine& shard(size_t s) const { return *shards_[s]; }

  /// The fleet cold boot, the one way a fleet loads persisted state:
  /// reads the manifest (refusing a partition function this build cannot
  /// route), sizes a fresh engine from its shard count (`base.num_shards`
  /// is ignored) and publishes every shard through SnapshotIo::MapShard
  /// (manifest pin and section CRCs checked). All or nothing: on any
  /// failure no engine is returned.
  static Result<std::unique_ptr<ShardedEngine>> BootFromManifest(
      const std::string& manifest_path, ShardedEngineOptions base = {});

  /// The single-query path: one routing decision, then the owning shard's
  /// snapshot served through the fleet's batch engine, whose admission
  /// queue holds the fleet's waiting batches — a bounded query degrades
  /// under the backlog a fleet batch sees (kUnavailable if that shard has
  /// no published snapshot). Unbounded deadlines read no clock.
  ServeResult Recommend(ContextRef context, size_t top_n,
                        const ServeOptions& options = {}) const;

  /// The cross-shard batched path: grabs every shard's snapshot once and
  /// serves the batch through the fleet's batch engine (see the class
  /// comment); items owned by an unpublished shard are kUnavailable.
  /// BatchResult::served_version is 0 — per-shard versions live in
  /// shard_versions().
  BatchResult RecommendMany(std::span<const ContextRef> contexts,
                            size_t top_n,
                            const ServeOptions& options = {}) const;

  /// Per-shard snapshot versions (0 for never-published shards), index ==
  /// shard id. With independent shard rebuilds the versions may diverge;
  /// max - min is the fleet's staleness skew (bounded by however many
  /// rebuilds the slowest shard is behind — tested in
  /// tests/serve/sharded_engine_test.cc).
  std::vector<uint64_t> shard_versions() const;

  /// Fleet-wide counters: the batch engine's summed with every shard
  /// engine's (which count single queries routed to them). The admission
  /// lanes merge the same way; the EWMA is the batch engine's.
  EngineStats stats() const;

 private:
  std::vector<std::unique_ptr<RecommenderEngine>> shards_;
  /// Never published: its pool, admission queue and lane scratch serve
  /// the fleet's cross-shard batches.
  RecommenderEngine batch_engine_;
};

// --------------------------------------------------------------- training

struct ShardedTrainOptions {
  /// Model configuration applied to every shard (empty component list =
  /// the paper's default set). If `model.fixed_sigmas` is set the global
  /// fit is skipped and every shard serves with the given vector.
  MvmmOptions model;

  uint32_t num_shards = 1;

  /// |Q| for smoothing; 0 = largest query id in the corpus + 1. The SAME
  /// value is handed to every shard (per-shard maxima would skew the
  /// sigma-fit smoothing).
  size_t vocabulary_size = 0;

  /// Version tag stamped on every shard snapshot.
  uint64_t version = 1;
};

struct ShardedTrainResult {
  /// One snapshot per shard, all serving with `sigmas`.
  std::vector<std::shared_ptr<const ModelSnapshot>> shards;

  /// The globally fitted (or fixed) per-component Gaussian widths. Feed
  /// them to MvmmOptions::fixed_sigmas for independent shard rebuilds.
  std::vector<double> sigmas;

  /// The resolved global vocabulary bound.
  size_t vocabulary_size = 0;

  /// The per-shard training corpora (`shards[s]` was trained on
  /// `corpora[s]`), kept so callers seeding per-shard retrainers reuse
  /// the partition instead of recomputing it.
  std::vector<std::vector<AggregatedSession>> corpora;
};

/// Trains a sharded fleet from one corpus: partitions the sessions
/// (log/shard_partitioner.h), builds every shard's shared-PST snapshot
/// independently, fits the mixture sigmas ONCE over the full corpus with
/// ModelSnapshot::Build's fit (internal::FitSigmas, each sample walk
/// routed to the owning shard's tree), and stamps the global vector onto
/// every shard. The resulting fleet answers every
/// context bit-identically to ModelSnapshot::Build on the undivided
/// corpus (property-tested for shard counts {1, 2, 4, 7}).
Result<ShardedTrainResult> TrainShardedSnapshots(
    const std::vector<AggregatedSession>& corpus,
    const ShardedTrainOptions& options);

/// Persists a trained fleet: one compact blob per shard at
/// ShardBlobName(manifest_path, k) (`<manifest>.shard<k>`, core/snapshot_io)
/// plus the SnapshotManifest at `manifest_path` (shard paths stored
/// relative to it), everything written atomically. The manifest records
/// `partition_function` = kShardPartitionLastQueryFnv1a and the version of
/// shards[0].
/// `compact` is kept for perfbench/src/interactive_tcp.cc's CompactOptions{}.
Status SaveShardedSnapshots(
    std::span<const std::shared_ptr<const ModelSnapshot>> shards,
    const CompactOptions& compact, const std::string& manifest_path);

/// (Re)writes the manifest at `manifest_path` from the per-shard blobs
/// already on disk at ShardBlobName(manifest_path, k) — e.g. after a
/// ShardedRetrainerSet with persist_path == manifest_path republished
/// some shards — re-pinning their current sizes and checksums. `version`
/// tags the manifest (conventionally the newest shard version).
Status WriteManifestForShardBlobs(const std::string& manifest_path,
                                  size_t num_shards, uint64_t version);

// -------------------------------------------------------------- retraining

/// Per-shard streaming retrain: one Retrainer per shard, each owning its
/// shard's corpus slice (possibly empty) and publishing through that
/// shard's engine, all pinned to the bootstrap's global sigma fit so
/// independently rebuilt shards stay weight-consistent with the rest of
/// the fleet. Appended sessions are routed to exactly the shards whose
/// counts they affect (OwningShards), so a shard rebuild folds in
/// precisely the evidence the unsharded retrainer would have given it.
///
/// Shards rebuild independently: RetrainShard(s) advances one shard's
/// version while the others keep serving their current snapshots — the
/// skew between shard versions is bounded by the number of retrain cycles
/// the slowest shard is behind.
///
/// Persistence: when `base.persist_path` is set it doubles as the
/// manifest path — each shard persists to its ShardBlobName blob,
/// Bootstrap writes the initial manifest once every blob exists, and
/// every later successful shard persist re-pins the manifest
/// (Retrainer's after_persist hook), so the on-disk fleet stays
/// cold-bootable across background rebuilds, not just at clean exit.
///
/// Threading: AppendSessions and the observers are safe from any thread;
/// per-shard rebuild serialization is inherited from Retrainer.
class ShardedRetrainerSet {
 public:
  /// `base` configures every per-shard retrainer; its model's fixed_sigmas
  /// (if empty) are filled from the bootstrap's global fit, and
  /// vocabulary_size (if 0) from the bootstrap corpus. base.after_persist
  /// must be unset (the set owns that hook for manifest re-pinning).
  ShardedRetrainerSet(ShardedEngine* engine, RetrainerOptions base);
  ~ShardedRetrainerSet();

  ShardedRetrainerSet(const ShardedRetrainerSet&) = delete;
  ShardedRetrainerSet& operator=(const ShardedRetrainerSet&) = delete;

  /// Trains the fleet once (TrainShardedSnapshots, global sigma fit) and
  /// bootstraps every shard's Retrainer with its corpus slice and the
  /// prebuilt shard snapshot (Retrainer::Bootstrap(corpus, prebuilt); no
  /// second tree build), so every shard publishes — and, with
  /// persistence, persists — version 1. A shard whose slice is empty
  /// bootstraps the same way with its trained empty snapshot. Call
  /// exactly once.
  Status Bootstrap(std::vector<AggregatedSession> corpus);

  /// Routes freshly observed sessions to the owning shards' pending
  /// queues (PartitionSessionsByShard, the routing Bootstrap's training
  /// pass used); each shard folds them in at its next retrain. Never
  /// blocks on a rebuild. Thread-safe.
  void AppendSessions(const std::vector<AggregatedSession>& sessions);

  /// Fleet spelling of Retrainer::ConsumeFeedback: the sessions go
  /// through AppendSessions, so each lands on exactly the shards whose
  /// counts it affects. Returns the number of sessions routed.
  /// Thread-safe.
  Result<size_t> ConsumeFeedback(const std::string& dir);

  /// Rebuilds and republishes one shard (no-op when nothing is pending
  /// there); the rest of the fleet keeps serving untouched.
  Status RetrainShard(size_t s);

  /// RetrainShard over every shard; returns the first error.
  Status RetrainAll();

  /// Starts/stops every shard's background worker.
  void StartAll();
  void StopAll();

  /// Re-pins the manifest at base.persist_path from the shard blobs on
  /// disk (no-op without a persist path). Runs automatically after every
  /// successful shard persist; exposed for callers that move or copy the
  /// snapshot directory. The most recent outcome — including refreshes
  /// triggered by background rebuilds, which have no caller to return to
  /// — is retained in last_manifest_status().
  Status RefreshManifest() const;

  /// Outcome of the most recent manifest re-pin (OK before the first).
  /// A failure here means the on-disk manifest may pin stale blobs and a
  /// fleet cold boot will refuse until a RefreshManifest() succeeds.
  Status last_manifest_status() const;

  size_t num_shards() const { return retrainers_.size(); }
  Retrainer* shard_retrainer(size_t s) { return retrainers_[s].get(); }

  /// The global sigma vector every shard is pinned to (empty before
  /// Bootstrap).
  const std::vector<double>& sigmas() const { return sigmas_; }

 private:
  ShardedEngine* engine_;
  RetrainerOptions base_;
  std::vector<std::unique_ptr<Retrainer>> retrainers_;
  std::vector<double> sigmas_;
  /// ConsumeFeedback's watermark and its lock.
  FeedbackCursor feedback_;
  std::atomic<bool> refresh_enabled_{false};
  /// Serializes manifest rewrites and guards manifest_status_.
  mutable std::mutex manifest_mu_;
  mutable Status manifest_status_;
};

}  // namespace sqp

#endif  // SQP_SERVE_SHARDED_ENGINE_H_
