#include "serve/recommender_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/snapshot_io.h"
#include "log/shard_partitioner.h"
#include "serve/feedback.h"
#include "util/timer.h"

namespace sqp {
namespace {

using internal::ThreadScratch;

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return std::clamp<size_t>(requested, 1, 64);
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 16);
}

/// First-touch scratch pre-sizing: the first request a scratch serves
/// against a given snapshot reserves every buffer to the snapshot's hint,
/// so steady-state serving allocates nothing. Done lazily per
/// (scratch, snapshot) pair — publish-time sizing would mutate lane
/// scratch buffers that in-flight batches are still using. A scratch
/// hopping between a fleet's shards re-prepares on each hop; reserve only
/// grows, so those settle into no-ops at the fleet-wide maxima.
SnapshotScratch& PreparedFor(const CompactSnapshot* model,
                             SnapshotScratch& scratch) {
  if (scratch.prepared_for != model) {
    scratch.Prepare(model->ScratchHint());
    scratch.prepared_for = model;
  }
  return scratch;
}

}  // namespace

RecommenderEngine::RecommenderEngine(EngineOptions options)
    : pool_(ResolveThreads(options.num_threads)),
      admission_(options.admission) {
  lane_scratch_.resize(pool_.num_lanes());
}

void RecommenderEngine::Publish(
    std::shared_ptr<const CompactSnapshot> snapshot) {
  snapshot_.store(std::move(snapshot));
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
}

void RecommenderEngine::Publish(std::shared_ptr<const ModelSnapshot> model) {
  Publish(CompactSnapshot::FromSnapshot(*model));
}

Status RecommenderEngine::LoadAndPublish(const std::string& path) {
  Result<std::shared_ptr<const CompactSnapshot>> mapped =
      SnapshotIo::Map(path);
  if (!mapped.ok()) return mapped.status();
  Publish(std::move(mapped.value()));
  return Status::OK();
}

std::shared_ptr<const CompactSnapshot> RecommenderEngine::CurrentSnapshot()
    const {
  return snapshot_.load();
}

uint64_t RecommenderEngine::current_version() const {
  const std::shared_ptr<const CompactSnapshot> snapshot = CurrentSnapshot();
  return snapshot == nullptr ? 0 : snapshot->version();
}

BatchResult RecommenderEngine::RecommendMany(
    std::span<const ContextRef> contexts, size_t top_n,
    const ServeOptions& options) const {
  // One snapshot grab for the whole batch: even if a retrain publishes
  // mid-batch, every result comes from the same model generation.
  const std::shared_ptr<const CompactSnapshot> snapshot = CurrentSnapshot();
  return ServeBatch({&snapshot, 1}, contexts, top_n, options);
}

BatchResult RecommenderEngine::ServeBatch(
    std::span<const std::shared_ptr<const CompactSnapshot>> snapshots,
    std::span<const ContextRef> contexts, size_t top_n,
    const ServeOptions& options) const {
  const Deadline::Clock::time_point start = Deadline::Clock::now();
  const size_t n = contexts.size();
  BatchResult out;
  out.results.resize(n);
  out.statuses.assign(n, StatusCode::kOk);
  out.effective_top_n = top_n;

  queries_served_[0].value.fetch_add(n, std::memory_order_relaxed);
  batches_served_.fetch_add(1, std::memory_order_relaxed);

  if (options.deadline.Expired(start)) {
    admission_.CountShed(options.lane, StatusCode::kDeadlineExceeded);
    out.admission = Status::DeadlineExceeded("deadline expired on arrival");
    std::fill(out.statuses.begin(), out.statuses.end(),
              StatusCode::kDeadlineExceeded);
    return out;
  }
  if (std::ranges::none_of(snapshots,
                           [](const auto& s) { return s != nullptr; })) {
    // No published model: uncovered-empty answers, with the per-item
    // status making the cause explicit.
    std::fill(out.statuses.begin(), out.statuses.end(),
              StatusCode::kUnavailable);
    return out;
  }
  const uint32_t num_shards = static_cast<uint32_t>(snapshots.size());
  if (num_shards == 1) out.served_version = snapshots[0]->version();
  if (n == 0) return out;

  const size_t effective_top_n =
      admission_.DegradedTopN(top_n, options.deadline);
  out.effective_top_n = effective_top_n;
  out.degraded = effective_top_n < top_n;

  const auto serve = [&](size_t i, SnapshotScratch& scratch) {
    const CompactSnapshot* model =
        snapshots[num_shards == 1 ? 0 : ShardOfContext(contexts[i],
                                                       num_shards)]
            .get();
    if (model == nullptr) {
      // Dead / never-published shard: uncovered-empty answer with an
      // explicit status — healthy shards keep serving around it.
      out.statuses[i] = StatusCode::kUnavailable;
      return;
    }
    out.results[i] = model->Recommend(contexts[i], effective_top_n,
                                      &PreparedFor(model, scratch));
    if (options.feedback != nullptr) {
      options.feedback->OnServed(contexts[i], model->version(),
                                 &out.results[i]);
    }
  };

  size_t expired_items = 0;
  if (pool_.num_lanes() == 1 || n < kMinBatchFanout) {
    // Inline path: no slot contention, but the deadline still cuts the
    // batch short so a caller never blocks past it on a huge inline run.
    SnapshotScratch& scratch = ThreadScratch();
    for (size_t i = 0; i < n; ++i) {
      if (options.deadline.bounded() && (i & 31u) == 0 && i != 0 &&
          options.deadline.Expired()) {
        for (size_t j = i; j < n; ++j) {
          out.statuses[j] = StatusCode::kDeadlineExceeded;
        }
        expired_items = n - i;
        break;
      }
      serve(i, scratch);
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
        // Mid-batch deadline checks: one stride-32 clock read flips the
        // flag; every task after it returns its item unserved with an
        // explicit per-item status instead of blocking past the deadline.
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
      serve(i, lane_scratch_[lane]);
    });
    if (expired.load(std::memory_order_relaxed)) {
      expired_items = static_cast<size_t>(std::ranges::count(
          out.statuses, StatusCode::kDeadlineExceeded));
    }
    admission_.Release(n - expired_items, service.ElapsedSeconds() * 1e6);
  }

  out.served =
      static_cast<size_t>(std::ranges::count(out.statuses, StatusCode::kOk));
  const double latency_us =
      std::chrono::duration<double, std::micro>(Deadline::Clock::now() -
                                                start)
          .count();
  admission_.RecordServed(options.lane, latency_us, out.degraded,
                          expired_items);
  return out;
}

ServeResult RecommenderEngine::Recommend(ContextRef context, size_t top_n,
                                         const ServeOptions& options) const {
  ServeResult out;
  thread_local const size_t counter_slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kCounterShards;
  queries_served_[counter_slot].value.fetch_add(1,
                                                std::memory_order_relaxed);
  if (!options.deadline.bounded()) {
    // Unbounded fast path — the single-query hot path: no clock reads,
    // no degrade check, no QoS accounting (an unbounded request is
    // by contract never shed or degraded, so there is nothing to record
    // that the serving counters above don't already).
    const std::shared_ptr<const CompactSnapshot> snapshot =
        CurrentSnapshot();
    if (snapshot == nullptr) {
      out.status = StatusCode::kUnavailable;
      return out;
    }
    out.served_version = snapshot->version();
    out.recommendation = snapshot->Recommend(
        context, top_n, &PreparedFor(snapshot.get(), ThreadScratch()));
    if (options.feedback != nullptr) {
      out.feedback_record_id = options.feedback->OnServed(
          context, out.served_version, &out.recommendation);
    }
    return out;
  }
  const Deadline::Clock::time_point start = Deadline::Clock::now();
  if (options.deadline.Expired(start)) {
    admission_.CountShed(options.lane, StatusCode::kDeadlineExceeded);
    out.status = StatusCode::kDeadlineExceeded;
    return out;
  }
  const std::shared_ptr<const CompactSnapshot> snapshot = CurrentSnapshot();
  if (snapshot == nullptr) {
    out.status = StatusCode::kUnavailable;
    return out;
  }
  out.served_version = snapshot->version();
  const size_t effective_top_n =
      admission_.DegradedTopN(top_n, options.deadline);
  out.degraded = effective_top_n < top_n;
  out.recommendation = snapshot->Recommend(
      context, effective_top_n,
      &PreparedFor(snapshot.get(), ThreadScratch()));
  if (options.feedback != nullptr) {
    out.feedback_record_id = options.feedback->OnServed(
        context, out.served_version, &out.recommendation);
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(Deadline::Clock::now() -
                                                start)
          .count();
  admission_.RecordServed(options.lane, latency_us, out.degraded, 0);
  return out;
}

EngineStats RecommenderEngine::stats() const {
  EngineStats stats;
  for (const CounterShard& shard : queries_served_) {
    stats.queries_served += shard.value.load(std::memory_order_relaxed);
  }
  stats.batches_served = batches_served_.load(std::memory_order_relaxed);
  stats.snapshots_published =
      snapshots_published_.load(std::memory_order_relaxed);
  stats.admission = admission_.stats();
  return stats;
}

}  // namespace sqp
