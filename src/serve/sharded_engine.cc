#include "serve/sharded_engine.h"

#include <algorithm>
#include <unordered_map>

#include "core/pst.h"

namespace sqp {
namespace {

/// The global root state of the undivided corpus: the prior over next
/// queries that Pst::BuildImpl derives from the depth-1 entries, which
/// algebraically equals the weighted occurrence count of every query
/// across sessions with >= 2 queries. Per-shard roots pool only the
/// shard's corpus slice, so the fleet's sigma fit (internal::FitSigmas)
/// reads this reconstruction whenever a component matches at depth 0.
/// parent stays -1 so EscapeMass takes the same (count-independent) root
/// branch as on the unsharded tree.
Pst::Node GlobalRootState(const std::vector<AggregatedSession>& corpus) {
  std::unordered_map<QueryId, uint64_t> prior;
  for (const AggregatedSession& session : corpus) {
    if (session.queries.size() < 2) continue;  // counting skips these too
    for (const QueryId q : session.queries) {
      prior[q] += session.frequency;
    }
  }
  Pst::Node root;
  root.nexts.reserve(prior.size());
  for (const auto& [query, count] : prior) {
    root.nexts.push_back(NextQueryCount{query, count});
    root.total_count += count;
  }
  std::sort(root.nexts.begin(), root.nexts.end(),
            [](const NextQueryCount& a, const NextQueryCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.query < b.query;
            });
  return root;
}

}  // namespace

// ----------------------------------------------------------------- engine

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : batch_engine_(EngineOptions{.num_threads = options.num_threads}) {
  const size_t shards = std::clamp<size_t>(options.num_shards, 1, 4096);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<RecommenderEngine>(EngineOptions{.num_threads = 1}));
  }
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::BootFromManifest(
    const std::string& manifest_path, ShardedEngineOptions base) {
  Result<SnapshotManifest> manifest =
      SnapshotIo::LoadRoutableManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  base.num_shards = manifest->num_shards();
  auto engine = std::make_unique<ShardedEngine>(base);
  // All or nothing: a shard that fails drops the half-booted engine.
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    Result<std::shared_ptr<const CompactSnapshot>> mapped =
        SnapshotIo::MapShard(*manifest, manifest_path, s);
    if (!mapped.ok()) return mapped.status();
    engine->shards_[s]->Publish(std::move(mapped.value()));
  }
  return Result<std::unique_ptr<ShardedEngine>>(std::move(engine));
}

ServeResult ShardedEngine::Recommend(ContextRef context, size_t top_n,
                                     const ServeOptions& options) const {
  // The owning shard's engine handles the deadline check, degrade and
  // QoS accounting; its counters roll up through stats().
  return shards_[OwningShard(context)]->Recommend(context, top_n, options);
}

BatchResult ShardedEngine::RecommendMany(
    std::span<const ContextRef> contexts, size_t top_n,
    const ServeOptions& options) const {
  // One snapshot grab per shard for the whole batch: a swap landing
  // mid-batch cannot mix generations within a shard's answers.
  std::vector<std::shared_ptr<const CompactSnapshot>> snapshots(
      shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    snapshots[s] = shards_[s]->CurrentSnapshot();
  }
  BatchResult out =
      batch_engine_.ServeBatch(snapshots, contexts, top_n, options);
  out.served_version = 0;
  return out;
}

std::vector<uint64_t> ShardedEngine::shard_versions() const {
  std::vector<uint64_t> versions(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    versions[s] = shards_[s]->current_version();
  }
  return versions;
}

EngineStats ShardedEngine::stats() const {
  EngineStats stats = batch_engine_.stats();
  for (const auto& shard : shards_) {
    const EngineStats shard_stats = shard->stats();
    stats.queries_served += shard_stats.queries_served;
    stats.batches_served += shard_stats.batches_served;
    stats.snapshots_published += shard_stats.snapshots_published;
    stats.admission.MergeFrom(shard_stats.admission);
  }
  return stats;
}

// --------------------------------------------------------------- training

Result<ShardedTrainResult> TrainShardedSnapshots(
    const std::vector<AggregatedSession>& corpus,
    const ShardedTrainOptions& options) {
  if (options.num_shards == 0 || options.num_shards > 4096) {
    return Status::InvalidArgument("num_shards must be in [1, 4096]");
  }
  MvmmOptions model = options.model;
  if (model.components.empty()) {
    model.components =
        MvmmOptions::DefaultComponents(model.default_max_depth);
  }
  const size_t k = model.components.size();
  if (!model.fixed_sigmas.empty() && model.fixed_sigmas.size() != k) {
    return Status::InvalidArgument(
        "fixed_sigmas must match the component count");
  }

  ShardedTrainResult result;
  result.vocabulary_size = options.vocabulary_size;
  if (result.vocabulary_size == 0) {
    QueryId max_id = 0;
    for (const AggregatedSession& session : corpus) {
      for (const QueryId q : session.queries) max_id = std::max(max_id, q);
    }
    result.vocabulary_size = static_cast<size_t>(max_id) + 1;
  }

  const bool needs_global_fit =
      model.weighting == MixtureWeighting::kGaussianEditDistance &&
      model.fixed_sigmas.empty();

  // Per-shard builds always run with pinned sigmas: either the caller's
  // vector, or a placeholder replaced by the global fit below. The
  // per-corpus sigma fit must never run per shard — that would weight
  // each shard by its own slice and break the exact-equality guarantee.
  MvmmOptions shard_model = model;
  if (needs_global_fit) {
    shard_model.fixed_sigmas.assign(k, internal::kInitialSigma);
  }

  result.corpora = PartitionSessionsByShard(corpus, options.num_shards);
  result.shards.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    TrainingData data;
    data.sessions = &result.corpora[s];
    data.vocabulary_size = result.vocabulary_size;
    Result<std::shared_ptr<const ModelSnapshot>> built =
        ModelSnapshot::Build(data, shard_model, options.version);
    if (!built.ok()) return built.status();
    result.shards.push_back(std::move(built.value()));
  }

  if (needs_global_fit) {
    // The unsharded fit, each sample walk routed to its owning shard's
    // tree: every such tree equals the unsharded tree on the contexts it
    // owns, so the sigmas are the unsharded build's bit for bit.
    std::vector<const ModelSnapshot*> trees;
    trees.reserve(result.shards.size());
    for (const auto& shard : result.shards) trees.push_back(shard.get());
    result.sigmas.assign(k, internal::kInitialSigma);
    internal::FitSigmas(corpus, trees, GlobalRootState(corpus), model,
                        result.vocabulary_size, &result.sigmas);
    for (auto& shard : result.shards) {
      Result<std::shared_ptr<const ModelSnapshot>> stamped =
          shard->WithSigmas(result.sigmas);
      if (!stamped.ok()) return stamped.status();
      shard = std::move(stamped.value());
    }
  } else {
    result.sigmas = result.shards.empty()
                        ? shard_model.fixed_sigmas
                        : result.shards.front()->sigmas();
  }
  return result;
}

Status WriteManifestForShardBlobs(const std::string& manifest_path,
                                  size_t num_shards, uint64_t version) {
  SnapshotManifest manifest;
  manifest.partition_function = kShardPartitionLastQueryFnv1a;
  manifest.version = version;
  manifest.shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string relative = ShardBlobName(manifest_path, s);
    Result<ShardBlobRef> ref = SnapshotIo::DescribeBlob(
        ResolveAgainstManifest(manifest_path, relative), relative);
    if (!ref.ok()) return ref.status();
    manifest.shards.push_back(std::move(ref.value()));
  }
  return SnapshotIo::SaveManifest(manifest, manifest_path);
}

Status SaveShardedSnapshots(
    std::span<const std::shared_ptr<const ModelSnapshot>> shards,
    const CompactOptions& compact, const std::string& manifest_path) {
  if (shards.empty()) {
    return Status::InvalidArgument("SaveShardedSnapshots needs shards");
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    const std::shared_ptr<const CompactSnapshot> packed =
        CompactSnapshot::FromSnapshot(*shards[s], compact);
    SQP_RETURN_IF_ERROR(SnapshotIo::Save(
        *packed, ResolveAgainstManifest(manifest_path,
                                        ShardBlobName(manifest_path, s))));
  }
  return WriteManifestForShardBlobs(manifest_path, shards.size(),
                                    shards.front()->version());
}

// -------------------------------------------------------------- retraining

ShardedRetrainerSet::ShardedRetrainerSet(ShardedEngine* engine,
                                         RetrainerOptions base)
    : engine_(engine), base_(std::move(base)) {
  SQP_CHECK(engine_ != nullptr);
  SQP_CHECK(!base_.after_persist);  // the set owns the persist hook
}

ShardedRetrainerSet::~ShardedRetrainerSet() { StopAll(); }

Status ShardedRetrainerSet::Bootstrap(std::vector<AggregatedSession> corpus) {
  if (!retrainers_.empty()) {
    return Status::FailedPrecondition(
        "ShardedRetrainerSet already bootstrapped");
  }
  // One global training pass builds every shard snapshot, pins the sigma
  // vector and the vocabulary bound; the per-shard retrainers are seeded
  // with the prebuilt snapshots (no second tree build) and every later
  // incremental rebuild reuses the fixed constants, staying
  // weight-consistent with the fleet.
  ShardedTrainOptions train;
  train.model = base_.model;
  train.num_shards = static_cast<uint32_t>(engine_->num_shards());
  train.vocabulary_size = base_.vocabulary_size;
  Result<ShardedTrainResult> trained =
      TrainShardedSnapshots(corpus, train);
  if (!trained.ok()) return trained.status();
  sigmas_ = trained->sigmas;

  retrainers_.reserve(engine_->num_shards());
  Status first_error;
  for (size_t s = 0; s < engine_->num_shards(); ++s) {
    RetrainerOptions options = base_;
    options.model.fixed_sigmas = sigmas_;
    // base_.vocabulary_size passes through untouched: 0 keeps the
    // caller's grow-with-interned-queries semantics for rebuilds (with
    // the sigmas pinned, |Q| no longer feeds any served score).
    if (!base_.persist_path.empty()) {
      options.persist_path = ResolveAgainstManifest(
          base_.persist_path, ShardBlobName(base_.persist_path, s));
      options.after_persist = [this] {
        // Bootstrap writes the initial manifest itself once every blob
        // exists; after that, each shard persist re-pins it. Background
        // rebuilds have no caller to return the status to — it is
        // retained in last_manifest_status().
        if (refresh_enabled_.load(std::memory_order_acquire)) {
          (void)RefreshManifest();
        }
      };
    }
    retrainers_.push_back(
        std::make_unique<Retrainer>(engine_->shard(s), options));
    // An empty slice bootstraps like any other: the shard publishes (and
    // persists) its trained empty snapshot, answers uncovered as the
    // unsharded model would, and folds its first routed sessions in at
    // its next retrain.
    const Status status = retrainers_.back()->Bootstrap(
        std::move(trained->corpora[s]), std::move(trained->shards[s]));
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  if (!base_.persist_path.empty() && first_error.ok()) {
    first_error = RefreshManifest();
  }
  refresh_enabled_.store(true, std::memory_order_release);
  return first_error;
}

Status ShardedRetrainerSet::RefreshManifest() const {
  if (base_.persist_path.empty()) return Status::OK();
  uint64_t version = 0;
  for (const auto& retrainer : retrainers_) {
    version = std::max(version, retrainer->published_version());
  }
  std::lock_guard<std::mutex> lock(manifest_mu_);
  manifest_status_ = WriteManifestForShardBlobs(base_.persist_path,
                                                retrainers_.size(), version);
  return manifest_status_;
}

Status ShardedRetrainerSet::last_manifest_status() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_status_;
}

void ShardedRetrainerSet::AppendSessions(
    const std::vector<AggregatedSession>& sessions) {
  std::vector<std::vector<AggregatedSession>> routed =
      PartitionSessionsByShard(sessions,
                               static_cast<uint32_t>(retrainers_.size()));
  for (size_t s = 0; s < retrainers_.size(); ++s) {
    retrainers_[s]->AppendSessions(std::move(routed[s]));
  }
}

Result<size_t> ShardedRetrainerSet::ConsumeFeedback(const std::string& dir) {
  return feedback_.Consume(
      dir, [this](std::vector<AggregatedSession> sessions) {
        AppendSessions(sessions);
      });
}

Status ShardedRetrainerSet::RetrainShard(size_t s) {
  return retrainers_[s]->RetrainOnce();
}

Status ShardedRetrainerSet::RetrainAll() {
  Status first_error;
  for (size_t s = 0; s < retrainers_.size(); ++s) {
    const Status status = RetrainShard(s);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

void ShardedRetrainerSet::StartAll() {
  for (const auto& retrainer : retrainers_) retrainer->Start();
}

void ShardedRetrainerSet::StopAll() {
  for (const auto& retrainer : retrainers_) retrainer->Stop();
}

}  // namespace sqp
