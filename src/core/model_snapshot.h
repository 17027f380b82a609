#ifndef SQP_CORE_MODEL_SNAPSHOT_H_
#define SQP_CORE_MODEL_SNAPSHOT_H_

#include <memory>
#include <span>
#include <vector>

#include "core/prediction_model.h"
#include "core/serving_walk.h"
#include "core/vmm_model.h"

namespace sqp {

/// How MVMM weighs its components for an online context. The paper uses
/// the Gaussian-of-edit-distance scheme (Eq. 4); the alternatives exist for
/// ablation studies. The definition lives in the runtime-free walk layer
/// (core/serving_walk.h) so the slim embedded predictor shares it; this is
/// the engine-side spelling.
using MixtureWeighting = serving::MixtureWeighting;

/// Configuration of the Mixture Variable Memory Markov model (paper
/// Section IV-C). The default component set mirrors the paper's experiment:
/// 11 VMMs with epsilon in {0.0, 0.01, ..., 0.1}. The sigma fit itself
/// (Eq. 7-10) has no settings: the paper fits the widths, it does not tune
/// the fit, so its sample size, iteration cap, tolerance, sigma box and
/// starting point are constants of core/model_snapshot.
struct MvmmOptions {
  /// Component VMM configurations. Empty = the paper's 11-epsilon default.
  std::vector<VmmOptions> components;

  /// Component weighting scheme (ablation switch; the paper's is default).
  MixtureWeighting weighting = MixtureWeighting::kGaussianEditDistance;

  /// Depth bound applied to default components (0 = unbounded).
  size_t default_max_depth = 0;

  /// When non-empty (one finite, positive width per component), the
  /// Gaussian widths are taken verbatim and the per-corpus sigma fit is
  /// skipped. This is how a sharded deployment keeps every shard serving
  /// with ONE globally fitted sigma vector (serve/sharded_engine.h) and how
  /// a shard rebuild stays weight-consistent with the rest of the fleet; it
  /// also lets ablations replay a previously fitted weighting exactly.
  std::vector<double> fixed_sigmas;

  /// Worker threads for training (paper Section V-F.1). The trees come
  /// from one shared single-pass build; the threads shard the counting
  /// pass (including Retrainer's incremental one) and the sigma-fit sample
  /// sweep. 0 = sequential. Results are identical either way.
  size_t training_threads = 0;

  /// Returns the paper's default component set.
  static std::vector<VmmOptions> DefaultComponents(size_t max_depth);
};

/// Diagnostics from the sigma (mixture-weight) optimization.
struct MvmmFitReport {
  size_t iterations = 0;   // ascent steps taken
  size_t evaluations = 0;  // objective (+ gradient) evaluations
  double initial_objective = 0.0;
  double final_objective = 0.0;
  /// True iff the fit stopped by its convergence test rather than at the
  /// iteration cap or with no ascent step left.
  bool converged = false;
};

/// What a served blob knows about the scratch capacity its inference needs,
/// so serving threads can reserve every per-thread buffer up front instead
/// of growing them across the first requests (CompactSnapshot::ScratchHint
/// / SnapshotScratch::Prepare). Defined in the walk layer
/// (core/serving_walk.h), where the blob bind computes it, so slim callers
/// size scratch without engine headers.
using ScratchSizing = serving::ScratchSizing;

/// Vector-backed storage behind a serving::DenseAccumulator view: the
/// engine-side owner of the epoch-stamped dense score array (one per
/// SnapshotScratch). The walk layer itself only ever sees the raw view,
/// so the same scoring code serves the slim predictor's malloc'ed arena.
struct AccumulatorStorage {
  std::vector<double> score;
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> touched;
  uint32_t epoch = 0;

  /// Grows the slot arrays to `bound` slots (never shrinks). New slots
  /// carry stamp 0, which is never a live epoch.
  void Reserve(size_t bound) {
    if (score.size() < bound) {
      score.resize(bound, 0.0);
      stamp.resize(bound, 0u);
      touched.resize(bound, 0u);
    }
  }

  /// Starts a new accumulation generation over `bound` query slots and
  /// returns the view to accumulate through. The epoch lives here (the
  /// view is per-request); the wraparound re-zero happens inside the
  /// view's BeginGeneration. (Regression-tested; a serving thread reaches
  /// the wraparound once per 4 billion requests.)
  serving::DenseAccumulator BeginGeneration(size_t bound) {
    Reserve(bound);
    serving::DenseAccumulator acc{score.data(),   stamp.data(),
                                  touched.data(), score.size(),
                                  /*touched_count=*/0, epoch};
    acc.BeginGeneration();
    epoch = acc.epoch;
    return acc;
  }
};

/// Per-thread scratch buffers for snapshot inference. A snapshot itself is
/// immutable; every mutable byte a query touches lives here, so any number
/// of threads can serve off one snapshot with one scratch each.
///
/// Thread-safety: a SnapshotScratch must be used by at most one thread at a
/// time, but carries no state between calls — sharing one instance per
/// thread across snapshots and models is safe.
struct SnapshotScratch {
  std::vector<int32_t> path;
  std::vector<size_t> matched;
  std::vector<double> level_weight;
  std::vector<double> weights;
  std::vector<double> cond_at;
  std::vector<ScoredQuery> raw;
  /// Storage behind the compact walk's epoch-stamped dense accumulator
  /// (core/serving_walk.h); unused by the reference walk.
  AccumulatorStorage acc;
  /// Ranked-list staging of the compact walk (the raw-pointer walk layer
  /// ranks into these).
  std::vector<uint32_t> topn_query;
  std::vector<double> topn_score;
  /// Identity of the snapshot this scratch was last Prepare()d for (the
  /// engines' once-per-generation pre-sizing token; perf-only — serving
  /// with an unprepared scratch is always correct).
  const void* prepared_for = nullptr;

  /// Reserves every buffer for `sizing` so steady-state serving performs
  /// no allocations. Idempotent and cheap once capacities are in place.
  void Prepare(const ScratchSizing& sizing) {
    path.reserve(sizing.path_depth);
    level_weight.reserve(sizing.path_depth);
    cond_at.reserve(sizing.path_depth + 1);
    matched.reserve(sizing.num_components);
    weights.reserve(sizing.num_components);
    acc.Reserve(sizing.dense_queries);
  }
};

/// An immutable, fully-trained MVMM: the shared multi-view PST, the fitted
/// per-component sigma weights, and the corpus/dictionary version it was
/// trained against. It is the trainer and the exact reference walk (paper
/// Section IV-C); engines never serve it. Retrainer packs each build into a
/// CompactSnapshot and publishes that blob; a keep-all pack answers
/// bit-identically to Recommend here whenever its counts fit 16 bits.
///
/// Thread-safety: after Build returns a snapshot is deeply immutable; any
/// number of threads may call the const methods concurrently with one
/// SnapshotScratch per thread and no other synchronization.
class ModelSnapshot {
 public:
  /// Trains a snapshot from `data`. `options.components` (or the default
  /// set) must fit in Pst::kMaxViews — the snapshot is always a shared-tree
  /// build. `version` tags the corpus/dictionary state the snapshot reflects
  /// (e.g. a retrain generation); it is carried, not interpreted. A
  /// mis-sized `fixed_sigmas`, or one holding a width that is not finite
  /// and > 0, is InvalidArgument.
  static Result<std::shared_ptr<const ModelSnapshot>> Build(
      const TrainingData& data, const MvmmOptions& options,
      uint64_t version = 0);

  /// A snapshot sharing this snapshot's tree (the Pst is shared_ptr-owned,
  /// so no node is copied) but serving with `sigmas` instead of the fitted
  /// ones. Returns InvalidArgument on a component-count mismatch or a width
  /// that is not finite and > 0 (as Build does for fixed_sigmas). The
  /// sharded trainer uses this to stamp one global sigma fit onto
  /// independently built per-shard trees.
  Result<std::shared_ptr<const ModelSnapshot>> WithSigmas(
      std::vector<double> sigmas) const;

  /// Mixture recommendation over the shared tree (paper Section IV-C.3).
  Recommendation Recommend(std::span<const QueryId> context, size_t top_n,
                           SnapshotScratch* scratch) const;

  /// Smoothed mixture conditional P(next | context). Full-precision only:
  /// the compact serving variant drops the exact counts this needs.
  double ConditionalProb(std::span<const QueryId> context, QueryId next,
                         SnapshotScratch* scratch) const;

  /// True iff at least one component matches a non-root state.
  bool Covers(std::span<const QueryId> context) const;

  /// Normalized per-component mixture weights for `context`.
  std::vector<double> MixtureWeights(std::span<const QueryId> context,
                                     SnapshotScratch* scratch) const;

  /// Merged-tree accounting (paper Table VII / Section V-F.2).
  ModelStats Stats() const;

  /// The corpus/dictionary generation this snapshot reflects (e.g. a
  /// retrain counter). Carried, never interpreted.
  uint64_t version() const { return version_; }
  const std::shared_ptr<const Pst>& pst() const { return pst_; }
  const std::vector<double>& sigmas() const { return sigmas_; }
  const MvmmFitReport& fit_report() const { return fit_report_; }
  const MvmmOptions& options() const { return options_; }
  size_t vocabulary_size() const { return vocabulary_size_; }
  size_t num_components() const { return options_.components.size(); }

  /// One shared-tree walk: fills `path` with the matched chain and
  /// `matched` with each component's matched length (the deepest path node
  /// carrying the component's view bit). Returns the full-tree match depth.
  size_t SharedMatchDepths(std::span<const QueryId> context,
                           std::vector<int32_t>* path,
                           std::vector<size_t>* matched) const;

 private:
  ModelSnapshot() = default;

  /// Normalized component weights under the configured weighting scheme
  /// (serving::ComputeWeights + NormalizeWeights) into scratch->weights,
  /// for a context of `context_len` queries matched as scratch->matched.
  void Weights(size_t context_len, SnapshotScratch* scratch) const;

  MvmmOptions options_;
  std::shared_ptr<const Pst> pst_;
  std::vector<double> sigmas_;
  MvmmFitReport fit_report_;
  size_t vocabulary_size_ = 0;
  uint64_t version_ = 0;
};

namespace internal {

/// Starting point of the sigma fit, for every component.
inline constexpr double kInitialSigma = 1.0;
/// The box every fitted sigma lies in. At kMinSigma a component that
/// dropped one context query already weighs exp(-200) ~ 1e-87 of one
/// that dropped none, so narrower widths only shrink negligible weights;
/// at kMaxSigma every weight is within 2% of its peak for distances up to
/// 20, the uniform-weighting limit.
inline constexpr double kMinSigma = 0.05;
inline constexpr double kMaxSigma = 100.0;
/// Safety net on the sigma fit's ascent steps. The fit stops by its own
/// convergence test, in 5 to 26 steps on the bench corpora and the
/// corpora that grow them; the cap only bounds a pathological sample
/// table.
inline constexpr size_t kMaxFitIterations = 100;

/// The sigma fit (paper Eq. 7-10): projected gradient ascent in log sigma
/// on the served (normalized) mixture's log-likelihood of the Eq. 3 sample
/// walks of the most frequent multi-query `sessions`. Each prefix walks
/// the one tree owning it,
/// trees[ShardOfContext(prefix, trees.size())] — the snapshot's own tree in
/// ModelSnapshot::Build, every shard tree in TrainShardedSnapshots — and a
/// component matched at depth 0 reads `root`: the tree's own root, or the
/// fleet's global root prior. A fleet therefore fits exactly the sigmas of
/// the unsharded build. The walks run on `options.training_threads`
/// workers with a bit-identical result for any count. `options.components`
/// must be resolved; `sigmas` carries the initial point (kInitialSigma
/// each) and receives the fitted values, each in [kMinSigma, kMaxSigma].
MvmmFitReport FitSigmas(const std::vector<AggregatedSession>& sessions,
                        std::span<const ModelSnapshot* const> trees,
                        const Pst::Node& root, const MvmmOptions& options,
                        size_t vocabulary_size, std::vector<double>* sigmas);

/// Deduplicates (query, score) contributions by query and fills the top-N
/// ranking (score desc, query asc). `raw` is scratch owned by the caller.
void MergeAndRank(std::vector<ScoredQuery>* raw, size_t top_n,
                  Recommendation* rec);

/// The ranking tail of MergeAndRank for already-deduplicated candidates
/// (each query at most once in `merged`): fills the top-N ranking
/// (score desc, query asc). The ranking order is a strict total order, so
/// the result is independent of the input order — the dense-accumulator
/// walk hands its touched list over in first-touch order and still ranks
/// identically to the sort-merge path.
void RankTopN(std::vector<ScoredQuery>* merged, size_t top_n,
              Recommendation* rec);

/// Per-thread reusable inference scratch. Scratch carries no state between
/// calls, so sharing one instance per thread across snapshots/models is
/// safe.
inline SnapshotScratch& ThreadScratch() {
  thread_local SnapshotScratch scratch;
  return scratch;
}

/// Depth a shared kSubstring ContextIndex must cover for `options`'
/// components (0 = unbounded), i.e. the deepest component bound.
size_t SharedIndexDepth(const MvmmOptions& options);

}  // namespace internal
}  // namespace sqp

#endif  // SQP_CORE_MODEL_SNAPSHOT_H_
