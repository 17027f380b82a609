#include "serve/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "core/pst.h"
#include "serve/feedback.h"
#include "util/timer.h"

namespace sqp {
namespace {

size_t ResolvePoolThreads(size_t requested) {
  if (requested != 0) return std::clamp<size_t>(requested, 1, 64);
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 16);
}

/// The global root state of the undivided corpus: the prior over next
/// queries that Pst::BuildImpl derives from the depth-1 entries, which
/// algebraically equals the weighted occurrence count of every query
/// across sessions with >= 2 queries. Per-shard roots pool only the
/// shard's corpus slice, so the routed sigma fit below must consult this
/// reconstruction whenever a component matches at depth 0. parent stays
/// -1 so EscapeMass takes the same (count-independent) root branch as on
/// the unsharded tree.
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

/// ModelSnapshot::BuildWeightSample with the tree walk routed to the
/// owning shard per prefix: every matched state of prefix [q1..qi] lives
/// in shard(q_{i-1})'s tree (bit-identical to the unsharded tree there),
/// and depth-0 matches read the reconstructed global root. Keeping the
/// arithmetic order identical to the unsharded path makes the fitted
/// sigmas — and with them every served score — exactly equal.
void BuildWeightSampleSharded(
    std::span<const std::shared_ptr<const ModelSnapshot>> shards,
    const Pst::Node& global_root, const MvmmOptions& options,
    size_t vocabulary_size, const AggregatedSession& session,
    internal::WeightSample* sample) {
  const size_t k = options.components.size();
  const std::vector<QueryId>& q = session.queries;
  sample->edit_distance.resize(k);
  sample->sequence_prob.assign(k, 1.0);

  thread_local std::vector<int32_t> path;
  thread_local std::vector<size_t> matched;
  thread_local std::vector<double> cond_at;

  const uint32_t num_shards = static_cast<uint32_t>(shards.size());
  for (size_t i = 1; i < q.size(); ++i) {
    const std::span<const QueryId> prefix(q.data(), i);
    const ModelSnapshot& owner =
        *shards[ShardOfContext(prefix, num_shards)];
    const size_t depth = owner.SharedMatchDepths(prefix, &path, &matched);
    const std::vector<Pst::Node>& nodes = owner.pst()->nodes();
    cond_at.assign(depth + 1, -1.0);
    for (size_t c = 0; c < k; ++c) {
      const size_t m = matched[c];
      const Pst::Node& state =
          m == 0 ? global_root : nodes[static_cast<size_t>(path[m - 1])];
      if (cond_at[m] < 0.0) {
        cond_at[m] = internal::SmoothedProb(state.nexts, state.total_count,
                                            vocabulary_size, q[i]);
      }
      const size_t dropped = i - m;
      const double escape =
          dropped == 0 ? 1.0
                       : internal::EscapeMass(
                             state, dropped,
                             options.components[c].default_escape);
      sample->sequence_prob[c] *= escape * cond_at[m];
    }
    if (i + 1 == q.size()) {  // prefix == full context
      for (size_t c = 0; c < k; ++c) {
        sample->edit_distance[c] = static_cast<double>(i - matched[c]);
      }
    }
  }
}

std::vector<double> FitShardedSigmas(
    const std::vector<AggregatedSession>& corpus,
    std::span<const std::shared_ptr<const ModelSnapshot>> shards,
    const MvmmOptions& options, size_t vocabulary_size) {
  std::vector<double> sigmas(options.components.size(),
                             options.initial_sigma);
  const std::vector<const AggregatedSession*> pool =
      internal::SelectWeightPool(corpus, options.weight_sample_size);
  if (pool.empty()) return sigmas;

  const Pst::Node global_root = GlobalRootState(corpus);
  std::vector<internal::WeightSample> samples(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    samples[i].weight = static_cast<double>(pool[i]->frequency);
  }
  // Per-sample evaluation is independent and writes only its own slot, so
  // sharding it across workers leaves the result bit-identical — the same
  // argument as the unsharded FitSigmas pass.
  if (options.training_threads > 1 && samples.size() > 1) {
    std::vector<std::thread> workers;
    const size_t num_workers =
        std::min(options.training_threads, samples.size());
    std::atomic<size_t> next{0};
    for (size_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([&] {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= samples.size()) return;
          BuildWeightSampleSharded(shards, global_root, options,
                                   vocabulary_size, *pool[i], &samples[i]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < samples.size(); ++i) {
      BuildWeightSampleSharded(shards, global_root, options,
                               vocabulary_size, *pool[i], &samples[i]);
    }
  }
  internal::FitSigmasFromSamples(&samples, options, &sigmas);
  return sigmas;
}

}  // namespace

// ----------------------------------------------------------------- engine

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options),
      pool_(ResolvePoolThreads(options.num_threads)),
      admission_(options.admission) {
  const size_t shards = std::clamp<size_t>(options.num_shards, 1, 4096);
  shards_.reserve(shards);
  EngineOptions shard_options;
  shard_options.num_threads = 1;
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<RecommenderEngine>(shard_options));
  }
  lane_scratch_.resize(pool_.num_lanes());
}

Status ShardedEngine::LoadAndPublish(const std::string& manifest_path,
                                     const SnapshotLoadOptions& options) {
  Result<SnapshotManifest> manifest = SnapshotIo::LoadManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (manifest->num_shards() != shards_.size()) {
    return Status::InvalidArgument(
        "manifest has " + std::to_string(manifest->num_shards()) +
        " shards but the engine has " + std::to_string(shards_.size()) +
        ": " + manifest_path);
  }
  if (manifest->partition_function != kShardPartitionLastQueryFnv1a) {
    return Status::InvalidArgument(
        "manifest partition function " +
        std::to_string(manifest->partition_function) +
        " is not the last-query FNV-1a scheme this build routes with: " +
        manifest_path);
  }
  // Stage everything before publishing anything: a fleet boot is all or
  // nothing, and a failure leaves the current snapshots serving.
  std::vector<std::shared_ptr<const CompactSnapshot>> staged;
  staged.reserve(shards_.size());
  for (const ShardBlobRef& ref : manifest->shards) {
    const std::string blob_path =
        ResolveAgainstManifest(manifest_path, ref.path);
    SQP_RETURN_IF_ERROR(SnapshotIo::VerifyBlobRef(ref, blob_path));
    Result<std::shared_ptr<const CompactSnapshot>> mapped =
        SnapshotIo::Map(blob_path, options);
    if (!mapped.ok()) return mapped.status();
    staged.push_back(std::move(mapped.value()));
  }
  for (size_t s = 0; s < staged.size(); ++s) {
    shards_[s]->Publish(std::move(staged[s]));
  }
  return Status::OK();
}

Result<FleetBootReport> ShardedEngine::LoadAndPublishAvailable(
    const std::string& manifest_path, const SnapshotLoadOptions& options) {
  Result<SnapshotManifest> manifest = SnapshotIo::LoadManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (manifest->num_shards() != shards_.size()) {
    return Status::InvalidArgument(
        "manifest has " + std::to_string(manifest->num_shards()) +
        " shards but the engine has " + std::to_string(shards_.size()) +
        ": " + manifest_path);
  }
  if (manifest->partition_function != kShardPartitionLastQueryFnv1a) {
    return Status::InvalidArgument(
        "manifest partition function " +
        std::to_string(manifest->partition_function) +
        " is not the last-query FNV-1a scheme this build routes with: " +
        manifest_path);
  }
  FleetBootReport report;
  report.shard_status.reserve(shards_.size());
  for (size_t s = 0; s < manifest->shards.size(); ++s) {
    const ShardBlobRef& ref = manifest->shards[s];
    const std::string blob_path =
        ResolveAgainstManifest(manifest_path, ref.path);
    Status status = SnapshotIo::VerifyBlobRef(ref, blob_path);
    if (status.ok()) {
      Result<std::shared_ptr<const CompactSnapshot>> mapped =
          SnapshotIo::Map(blob_path, options);
      if (mapped.ok()) {
        shards_[s]->Publish(std::move(mapped.value()));
        ++report.healthy_shards;
      } else {
        status = mapped.status();
      }
    }
    report.shard_status.push_back(std::move(status));
  }
  if (report.healthy_shards == 0) {
    for (const Status& status : report.shard_status) {
      if (!status.ok()) return status;
    }
  }
  return report;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::BootFromManifest(
    const std::string& manifest_path, ShardedEngineOptions base,
    const SnapshotLoadOptions& load_options) {
  Result<SnapshotManifest> manifest = SnapshotIo::LoadManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  base.num_shards = manifest->num_shards();
  auto engine = std::make_unique<ShardedEngine>(base);
  SQP_RETURN_IF_ERROR(engine->LoadAndPublish(manifest_path, load_options));
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
  const Deadline::Clock::time_point start = Deadline::Clock::now();
  const size_t n = contexts.size();
  BatchResult out;
  out.results.resize(n);
  out.statuses.assign(n, StatusCode::kOk);
  out.effective_top_n = top_n;

  batch_queries_.fetch_add(n, std::memory_order_relaxed);
  batches_served_.fetch_add(1, std::memory_order_relaxed);

  if (options.deadline.Expired(start)) {
    admission_.CountShed(options.lane, StatusCode::kDeadlineExceeded);
    out.admission = Status::DeadlineExceeded("deadline expired on arrival");
    std::fill(out.statuses.begin(), out.statuses.end(),
              StatusCode::kDeadlineExceeded);
    return out;
  }
  if (n == 0) return out;

  // One snapshot grab per shard for the whole batch: a swap landing
  // mid-batch cannot mix generations within a shard's answers.
  std::vector<std::shared_ptr<const ServingSnapshot>> snapshots(
      shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    snapshots[s] = shards_[s]->CurrentSnapshot();
  }

  const size_t effective_top_n =
      admission_.DegradedTopN(top_n, options.deadline);
  out.effective_top_n = effective_top_n;
  out.degraded = effective_top_n < top_n;
  size_t expired_items = 0;

  const auto answer = [&](size_t i, SnapshotScratch* scratch) {
    const ServingSnapshot* snapshot =
        snapshots[OwningShard(contexts[i])].get();
    if (snapshot != nullptr) {
      // First-touch pre-sizing per routed shard; Prepare only ever grows
      // capacities, so a scratch hopping between shards settles at the
      // fleet-wide maxima and the re-checks become no-ops.
      if (scratch->prepared_for != snapshot) {
        scratch->Prepare(snapshot->ScratchHint());
        scratch->prepared_for = snapshot;
      }
      out.results[i] =
          snapshot->Recommend(contexts[i], effective_top_n, scratch);
      if (options.feedback != nullptr) {
        options.feedback->OnServed(contexts[i], snapshot->version(),
                                   &out.results[i]);
      }
    } else {
      // Dead / never-published shard: uncovered-empty answer with an
      // explicit status — healthy shards keep serving around it.
      out.statuses[i] = StatusCode::kUnavailable;
    }
  };

  if (pool_.num_lanes() == 1 || n < options_.min_batch_fanout) {
    SnapshotScratch& scratch = internal::ThreadScratch();
    for (size_t i = 0; i < n; ++i) {
      if (options.deadline.bounded() && (i & 31u) == 0 && i != 0 &&
          options.deadline.Expired()) {
        for (size_t j = i; j < n; ++j) {
          out.statuses[j] = StatusCode::kDeadlineExceeded;
        }
        expired_items = n - i;
        break;
      }
      answer(i, &scratch);
    }
  } else {
    const Status admitted =
        admission_.Admit(options.lane, options.deadline, n);
    if (!admitted.ok()) {
      std::fill(out.statuses.begin(), out.statuses.end(), admitted.code());
      out.admission = admitted;
      return out;
    }
    std::atomic<bool> expired{false};
    const bool bounded = options.deadline.bounded();
    WallTimer service;
    pool_.Run(n, [&](size_t i, size_t lane) {
      if (bounded) {
        if (expired.load(std::memory_order_relaxed)) {
          out.statuses[i] = StatusCode::kDeadlineExceeded;
          return;
        }
        if ((i & 31u) == 0 && options.deadline.Expired()) {
          expired.store(true, std::memory_order_relaxed);
          out.statuses[i] = StatusCode::kDeadlineExceeded;
          return;
        }
      }
      answer(i, &lane_scratch_[lane]);
    });
    if (expired.load(std::memory_order_relaxed)) {
      for (const StatusCode code : out.statuses) {
        if (code == StatusCode::kDeadlineExceeded) ++expired_items;
      }
    }
    admission_.Release(n - expired_items, service.ElapsedSeconds() * 1e6);
  }

  for (const StatusCode code : out.statuses) {
    if (code == StatusCode::kOk) ++out.served;
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(Deadline::Clock::now() -
                                                start)
          .count();
  admission_.RecordServed(options.lane, latency_us, out.degraded,
                          expired_items);
  return out;
}

std::vector<uint64_t> ShardedEngine::shard_versions() const {
  std::vector<uint64_t> versions(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    versions[s] = shards_[s]->current_version();
  }
  return versions;
}

ShardedStats ShardedEngine::stats() const {
  ShardedStats stats;
  stats.shard_versions = shard_versions();
  stats.min_version = stats.shard_versions.empty()
                          ? 0
                          : *std::min_element(stats.shard_versions.begin(),
                                              stats.shard_versions.end());
  stats.max_version = stats.shard_versions.empty()
                          ? 0
                          : *std::max_element(stats.shard_versions.begin(),
                                              stats.shard_versions.end());
  stats.queries_served = batch_queries_.load(std::memory_order_relaxed);
  stats.admission = admission_.stats();
  for (const auto& shard : shards_) {
    const EngineStats shard_stats = shard->stats();
    stats.queries_served += shard_stats.queries_served;
    stats.admission.MergeFrom(shard_stats.admission);
  }
  stats.batches_served = batches_served_.load(std::memory_order_relaxed);
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
  // per-corpus Newton fit must never run per shard — that would weight
  // each shard by its own slice and break the exact-equality guarantee.
  MvmmOptions shard_model = model;
  if (needs_global_fit) {
    shard_model.fixed_sigmas.assign(k, model.initial_sigma);
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
    result.sigmas = FitShardedSigmas(corpus, result.shards, model,
                                     result.vocabulary_size);
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
  const std::string manifest_name =
      std::filesystem::path(manifest_path).filename().string();
  SnapshotManifest manifest;
  manifest.partition_function = kShardPartitionLastQueryFnv1a;
  manifest.version = version;
  manifest.shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string relative =
        manifest_name + ".shard" + std::to_string(s);
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
  const std::string manifest_name =
      std::filesystem::path(manifest_path).filename().string();
  for (size_t s = 0; s < shards.size(); ++s) {
    const std::string blob_path = ResolveAgainstManifest(
        manifest_path, manifest_name + ".shard" + std::to_string(s));
    const std::shared_ptr<const CompactSnapshot> packed =
        CompactSnapshot::FromSnapshot(*shards[s], compact);
    SQP_RETURN_IF_ERROR(SnapshotIo::Save(*packed, blob_path));
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
  lazy_pending_.resize(engine_->num_shards());
  Status first_error;
  const auto note_error = [&first_error](const Status& status) {
    if (!status.ok() && first_error.ok()) first_error = status;
  };
  for (size_t s = 0; s < engine_->num_shards(); ++s) {
    RetrainerOptions options = base_;
    options.model.fixed_sigmas = sigmas_;
    // base_.vocabulary_size passes through untouched: 0 keeps the
    // caller's grow-with-interned-queries semantics for rebuilds (with
    // the sigmas pinned, |Q| no longer feeds any served score).
    if (!base_.persist_path.empty()) {
      options.persist_path = base_.persist_path + ".shard" +
                             std::to_string(s);
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
    // An empty shard slice is legal for serving (the shard answers
    // uncovered, as the unsharded model would) but Retrainer requires a
    // non-empty bootstrap corpus: publish — and, with persistence,
    // persist — the trained (empty) snapshot directly; the retrainer
    // bootstraps lazily on the shard's first routed sessions.
    if (trained->corpora[s].empty()) {
      engine_->PublishShard(s, trained->shards[s]);
      if (!options.persist_path.empty()) {
        note_error(SnapshotIo::Save(
            *CompactSnapshot::FromSnapshot(*trained->shards[s],
                                           base_.compact),
            options.persist_path));
      }
      continue;
    }
    note_error(retrainers_.back()->Bootstrap(
        std::move(trained->corpora[s]), std::move(trained->shards[s])));
  }
  if (!base_.persist_path.empty() && first_error.ok()) {
    note_error(RefreshManifest());
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

Status ShardedRetrainerSet::LazyBootstrapShard(
    size_t s, std::vector<AggregatedSession> corpus) {
  const Status status = retrainers_[s]->Bootstrap(std::move(corpus));
  if (status.ok() && workers_started_) retrainers_[s]->Start();
  return status;
}

void ShardedRetrainerSet::AppendSessions(
    const std::vector<AggregatedSession>& sessions) {
  std::lock_guard<std::mutex> lock(append_mu_);
  const uint32_t num_shards = static_cast<uint32_t>(retrainers_.size());
  std::vector<std::vector<AggregatedSession>> routed(num_shards);
  for (const AggregatedSession& session : sessions) {
    OwningShards(session, num_shards, &owners_scratch_);
    for (const uint32_t shard : owners_scratch_) {
      routed[shard].push_back(session);
    }
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (routed[s].empty()) continue;
    if (retrainers_[s]->published_version() == 0) {
      // The shard bootstrapped with an empty slice; everything routed to
      // it so far IS its corpus. One-time synchronous build of a tiny
      // corpus — exact, because the base corpus contributed nothing to
      // the contexts this shard owns. On failure the sessions stay in
      // the stash and the bootstrap retries with the next append (the
      // error itself lands in the retrainer's last_status()).
      std::vector<AggregatedSession>& stash = lazy_pending_[s];
      stash.insert(stash.end(),
                   std::make_move_iterator(routed[s].begin()),
                   std::make_move_iterator(routed[s].end()));
      if (LazyBootstrapShard(s, stash).ok()) stash.clear();
      continue;
    }
    retrainers_[s]->AppendSessions(std::move(routed[s]));
  }
}

Result<size_t> ShardedRetrainerSet::ConsumeFeedback(const std::string& dir) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  Result<std::vector<FeedbackRecord>> records = ReadFeedbackLog(dir);
  if (!records.ok()) return records.status();
  std::vector<FeedbackRecord> fresh;
  uint64_t max_id = feedback_watermark_;
  for (FeedbackRecord& record : *records) {
    if (record.record_id <= feedback_watermark_) continue;
    max_id = std::max(max_id, record.record_id);
    fresh.push_back(std::move(record));
  }
  std::vector<AggregatedSession> sessions = SessionsFromFeedback(fresh);
  const size_t routed = sessions.size();
  if (!sessions.empty()) AppendSessions(sessions);
  feedback_watermark_ = max_id;
  return routed;
}

Status ShardedRetrainerSet::RetrainShard(size_t s) {
  if (retrainers_[s]->published_version() == 0) {
    return Status::OK();  // empty shard, nothing routed to it yet
  }
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
  std::lock_guard<std::mutex> lock(append_mu_);
  workers_started_ = true;
  for (const auto& retrainer : retrainers_) {
    if (retrainer->published_version() > 0 && !retrainer->running()) {
      retrainer->Start();
    }
  }
}

void ShardedRetrainerSet::StopAll() {
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    workers_started_ = false;
  }
  for (const auto& retrainer : retrainers_) retrainer->Stop();
}

}  // namespace sqp
