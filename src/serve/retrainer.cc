#include "serve/retrainer.h"

#include <algorithm>
#include <utility>

#include "core/snapshot_io.h"

namespace sqp {

Retrainer::Retrainer(RecommenderEngine* engine, RetrainerOptions options)
    : engine_(engine), options_(std::move(options)) {
  SQP_CHECK(engine_ != nullptr);
  if (options_.model.components.empty()) {
    options_.model.components =
        MvmmOptions::DefaultComponents(options_.model.default_max_depth);
  }
}

Retrainer::~Retrainer() { Stop(); }

Status Retrainer::PublishAndPersist(
    std::shared_ptr<const ModelSnapshot> full, uint64_t version) {
  // The compact re-pack is needed when it is the published variant or
  // when a blob must be persisted (the on-disk format IS the compact
  // layout); one pack serves both purposes.
  std::shared_ptr<const CompactSnapshot> compact;
  if (options_.publish_compact || !options_.persist_path.empty()) {
    compact = CompactSnapshot::FromSnapshot(*full, options_.compact);
  }
  if (options_.publish_compact) {
    engine_->Publish(compact);
  } else {
    engine_->Publish(std::move(full));
  }
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  // The published version must be visible the moment the engine swap is
  // live — before the persist loop and before after_persist — so hook
  // observers (ShardedRetrainerSet's manifest re-pin) read the version
  // this publish carries, not the previous cycle's.
  {
    std::lock_guard<std::mutex> lock(mu_);
    version_ = version;
  }
  version_cv_.notify_all();
  if (!options_.persist_path.empty()) {
    // Bounded retry with exponential backoff: a transient persist failure
    // (full disk, slow rename) must not silently drop this rebuild's
    // blob. The publish above is already live either way.
    Status persist;
    std::chrono::milliseconds backoff = options_.persist_retry_backoff;
    for (size_t attempt = 0;; ++attempt) {
      persist = SnapshotIo::Save(*compact, options_.persist_path);
      if (persist.ok()) break;
      if (attempt >= options_.persist_max_retries) {
        persist_failures_.fetch_add(1, std::memory_order_relaxed);
        return persist;
      }
      persist_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    if (options_.after_persist) options_.after_persist();
  }
  return Status::OK();
}

RetrainerStats Retrainer::stats() const {
  RetrainerStats stats;
  stats.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  stats.retrain_failures =
      retrain_failures_.load(std::memory_order_relaxed);
  stats.persist_retries = persist_retries_.load(std::memory_order_relaxed);
  stats.persist_failures =
      persist_failures_.load(std::memory_order_relaxed);
  return stats;
}

size_t Retrainer::EffectiveVocabulary() const {
  if (options_.vocabulary_size != 0) return options_.vocabulary_size;
  return static_cast<size_t>(observed_max_id_) + 1;
}

Status Retrainer::Bootstrap(std::vector<AggregatedSession> corpus,
                            std::shared_ptr<const ModelSnapshot> prebuilt) {
  std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (bootstrapped_) {
      return Status::FailedPrecondition("Retrainer already bootstrapped");
    }
  }
  if (prebuilt == nullptr && corpus.empty()) {
    return Status::InvalidArgument("Bootstrap needs a non-empty corpus");
  }
  if (prebuilt != nullptr && prebuilt->version() != 1) {
    return Status::InvalidArgument(
        "Bootstrap's prebuilt snapshot must carry version 1, not " +
        std::to_string(prebuilt->version()));
  }
  corpus_ = std::move(corpus);
  for (const AggregatedSession& session : corpus_) {
    for (QueryId q : session.queries) {
      observed_max_id_ = std::max(observed_max_id_, q);
    }
  }
  index_.Build(corpus_, ContextIndex::Mode::kSubstring,
               internal::SharedIndexDepth(options_.model),
               options_.model.training_threads);

  std::shared_ptr<const ModelSnapshot> snapshot = std::move(prebuilt);
  if (snapshot == nullptr) {
    TrainingData data;
    data.sessions = &corpus_;
    data.vocabulary_size = EffectiveVocabulary();
    data.substring_index = &index_;
    Result<std::shared_ptr<const ModelSnapshot>> built =
        ModelSnapshot::Build(data, options_.model, /*version=*/1);
    if (!built.ok()) {
      retrain_failures_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      last_status_ = built.status();
      return built.status();
    }
    snapshot = std::move(built.value());
  }
  // Serving goes live even if persistence fails; the persist status is
  // surfaced to the caller and in last_status().
  const Status persist = PublishAndPersist(std::move(snapshot), /*version=*/1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    bootstrapped_ = true;
    last_status_ = persist;
  }
  return persist;
}

void Retrainer::AppendSessions(std::vector<AggregatedSession> sessions) {
  if (sessions.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.insert(pending_.end(),
                  std::make_move_iterator(sessions.begin()),
                  std::make_move_iterator(sessions.end()));
}

Result<size_t> Retrainer::ConsumeFeedback(const std::string& dir) {
  return feedback_.Consume(
      dir, [this](std::vector<AggregatedSession> sessions) {
        AppendSessions(std::move(sessions));
      });
}

Status Retrainer::RetrainOnce() {
  std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
  std::vector<AggregatedSession> fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!bootstrapped_) {
      return Status::FailedPrecondition("RetrainOnce before Bootstrap");
    }
    fresh.swap(pending_);
  }
  if (fresh.empty()) return Status::OK();
  const Status status = RebuildAndPublish(std::move(fresh));
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_status_ = status;
  }
  return status;
}

Status Retrainer::RebuildAndPublish(std::vector<AggregatedSession> fresh) {
  // retrain_mu_ is held: corpus_, index_ and observed_max_id_ are ours.
  // Serving continues on the previous snapshot for this whole function;
  // the engine only learns about the new model in the final Publish.
  index_.Append(fresh, options_.model.training_threads);
  for (const AggregatedSession& session : fresh) {
    for (QueryId q : session.queries) {
      observed_max_id_ = std::max(observed_max_id_, q);
    }
  }
  corpus_.insert(corpus_.end(), std::make_move_iterator(fresh.begin()),
                 std::make_move_iterator(fresh.end()));

  uint64_t next_version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_version = version_ + 1;
  }
  TrainingData data;
  data.sessions = &corpus_;
  data.vocabulary_size = EffectiveVocabulary();
  data.substring_index = &index_;
  Result<std::shared_ptr<const ModelSnapshot>> built =
      ModelSnapshot::Build(data, options_.model, next_version);
  if (!built.ok()) {
    retrain_failures_.fetch_add(1, std::memory_order_relaxed);
    return built.status();
  }

  return PublishAndPersist(std::move(built.value()), next_version);
}

void Retrainer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SQP_CHECK(bootstrapped_);  // Start requires a published baseline
  }
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!stop_.load()) return;  // already running
  stop_.store(false);
  worker_ = std::thread(&Retrainer::BackgroundLoop, this);
}

void Retrainer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (stop_.load()) return;  // not running
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
  }
  stop_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool Retrainer::running() const { return !stop_.load(); }

void Retrainer::BackgroundLoop() {
  while (!stop_.load()) {
    if (pending_sessions() > 0) {
      RetrainOnce();  // outcome lands in last_status()
    }
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait_for(lock, options_.poll_interval,
                      [this] { return stop_.load(); });
  }
}

uint64_t Retrainer::published_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

void Retrainer::WaitForVersionAtLeast(uint64_t version) const {
  std::unique_lock<std::mutex> lock(mu_);
  version_cv_.wait(lock, [&] { return version_ >= version; });
}

Status Retrainer::last_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

size_t Retrainer::pending_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

size_t Retrainer::corpus_size() const {
  std::lock_guard<std::mutex> lock(retrain_mu_);
  return corpus_.size();
}

}  // namespace sqp
