// Deadline-aware serving: the acceptance property is that with no
// overload bounded-deadline serving is bit-identical to unbounded-deadline
// serving on both engines (on both lanes), and that under
// pressure the engine sheds whole requests, cuts batches mid-flight with
// explicit per-item statuses, and degrades top_n — never deadlocking and
// never touching deadline-free traffic.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/recommender_engine.h"
#include "serve/sharded_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

/// The served blob of a model trained on `sessions`.
std::shared_ptr<const CompactSnapshot> BuildSnapshot(
    const std::vector<AggregatedSession>& sessions, uint64_t version) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return CompactSnapshot::FromSnapshot(**built);
}

Deadline Generous() { return Deadline::After(std::chrono::seconds(30)); }

// ------------------------------------------------- no-overload equivalence

// "Legacy" in the two test names below is the unbounded-deadline default
// ServeOptions, which every bounded variant must match bit for bit.
TEST(DeadlineServingTest, EngineQosMatchesLegacyWithoutOverload) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 7);
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(snapshot);

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 300);
  const BatchResult unbounded =
      engine.RecommendMany(AsRefs(contexts), 5, ServeOptions{});
  ASSERT_EQ(unbounded.served_version, 7u);
  const std::vector<Recommendation>& expected = unbounded.results;

  // Unbounded and generous bounded deadlines, on both lanes: same
  // answers, same order, same scores.
  for (const Deadline& deadline : {Deadline::None(), Generous()}) {
    for (const QosLane lane : {QosLane::kInteractive, QosLane::kBulk}) {
      ServeOptions options;
      options.deadline = deadline;
      options.lane = lane;
      const BatchResult batch =
          engine.RecommendMany(AsRefs(contexts), 5, options);
      ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
      EXPECT_EQ(batch.served, contexts.size());
      EXPECT_EQ(batch.served_version, 7u);
      EXPECT_EQ(batch.effective_top_n, 5u);
      EXPECT_FALSE(batch.degraded);
      ASSERT_EQ(batch.results.size(), contexts.size());
      ASSERT_EQ(batch.statuses.size(), contexts.size());
      for (size_t i = 0; i < contexts.size(); ++i) {
        EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
        ExpectSameRecommendation(expected[i], batch.results[i]);
      }
    }
  }

  // Single-query parity.
  for (size_t i = 0; i < 50; ++i) {
    ServeOptions options;
    options.deadline = Generous();
    const ServeResult served = engine.Recommend(contexts[i], 5, options);
    EXPECT_EQ(served.status, StatusCode::kOk);
    EXPECT_EQ(served.served_version, 7u);
    EXPECT_FALSE(served.degraded);
    ExpectSameRecommendation(expected[i], served.recommendation);
  }
}

TEST(DeadlineServingTest, ShardedQosMatchesLegacyWithoutOverload) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  ShardedTrainOptions train;
  train.model.default_max_depth = 5;
  train.num_shards = 4;
  train.vocabulary_size = kVocabularyBound;
  auto trained = TrainShardedSnapshots(corpus, train);
  ASSERT_TRUE(trained.ok());

  ShardedEngine engine(
      ShardedEngineOptions{.num_shards = 4, .num_threads = 2});
  for (size_t s = 0; s < 4; ++s) {
    engine.shard(s)->Publish(trained->shards[s]);
  }

  const std::vector<std::vector<QueryId>> owned =
      CollectContexts(corpus, 300);
  std::vector<ContextRef> contexts(owned.begin(), owned.end());
  const std::vector<Recommendation> expected =
      engine.RecommendMany(AsRefs(owned), 5, ServeOptions{}).results;

  for (const Deadline& deadline : {Deadline::None(), Generous()}) {
    ServeOptions options;
    options.deadline = deadline;
    const BatchResult batch = engine.RecommendMany(
        std::span<const ContextRef>(contexts), 5, options);
    ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
    EXPECT_EQ(batch.served, owned.size());
    ASSERT_EQ(batch.results.size(), owned.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
      ExpectSameRecommendation(expected[i], batch.results[i]);
    }
  }

  for (size_t i = 0; i < 50; ++i) {
    ServeOptions options;
    options.deadline = Generous();
    const ServeResult served = engine.Recommend(contexts[i], 5, options);
    EXPECT_EQ(served.status, StatusCode::kOk);
    ExpectSameRecommendation(expected[i], served.recommendation);
  }
}

// A fleet batch runs the single engine's batch loop, so with one shard the
// two must agree on every BatchResult field but served_version (the fleet
// reports per-shard versions instead) and on the counters — inline (31
// items) and pooled (64), with no, a generous and an expired-on-arrival
// deadline, published or not.
TEST(DeadlineServingTest, OneShardFleetBatchEqualsSingleEngineBatch) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 3);
  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 64);
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - std::chrono::milliseconds(1));

  for (const bool published : {true, false}) {
    RecommenderEngine engine(EngineOptions{.num_threads = 4});
    ShardedEngine fleet(
        ShardedEngineOptions{.num_shards = 1, .num_threads = 4});
    if (published) {
      engine.Publish(snapshot);
      fleet.shard(0)->Publish(snapshot);
    }
    size_t batches = 0;
    size_t items = 0;
    for (const size_t n : {kMinBatchFanout - 1, size_t{64}}) {
      const std::vector<std::vector<QueryId>> contexts(
          seed.begin(), seed.begin() + static_cast<ptrdiff_t>(n));
      for (const Deadline& deadline :
           {Deadline::None(), Generous(), expired}) {
        ServeOptions options;
        options.deadline = deadline;
        const BatchResult want =
            engine.RecommendMany(AsRefs(contexts), 5, options);
        const BatchResult got =
            fleet.RecommendMany(AsRefs(contexts), 5, options);
        ++batches;
        items += n;
        EXPECT_EQ(got.admission.code(), want.admission.code());
        EXPECT_EQ(got.served, want.served);
        EXPECT_EQ(got.effective_top_n, want.effective_top_n);
        EXPECT_EQ(got.degraded, want.degraded);
        EXPECT_EQ(got.served_version, 0u);
        EXPECT_EQ(want.served_version,
                  published && !deadline.Expired() ? 3u : 0u);
        ASSERT_EQ(got.statuses, want.statuses);
        ASSERT_EQ(got.results.size(), want.results.size());
        for (size_t i = 0; i < n; ++i) {
          ExpectSameRecommendation(want.results[i], got.results[i]);
        }
        if (!published && !deadline.Expired()) {
          EXPECT_EQ(want.statuses.front(), StatusCode::kUnavailable);
        }
      }
    }
    EXPECT_EQ(engine.stats().batches_served, batches);
    EXPECT_EQ(fleet.stats().batches_served, batches);
    EXPECT_EQ(engine.stats().queries_served, items);
    EXPECT_EQ(fleet.stats().queries_served, items);
  }
}

// ----------------------------------------------------------- shed paths

TEST(DeadlineServingTest, EngineShedsRequestsThatArriveExpired) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(BuildSnapshot(SharedCorpus().base, 1));
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 40);

  ServeOptions options;
  options.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::milliseconds(1));
  const BatchResult batch =
      engine.RecommendMany(AsRefs(contexts), 5, options);
  EXPECT_EQ(batch.admission.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batch.served, 0u);
  ASSERT_EQ(batch.statuses.size(), contexts.size());
  for (const StatusCode code : batch.statuses) {
    EXPECT_EQ(code, StatusCode::kDeadlineExceeded);
  }

  const ServeResult single = engine.Recommend(contexts[0], 5, options);
  EXPECT_EQ(single.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(single.recommendation.queries.empty());

  const AdmissionStats stats = engine.stats().admission;
  EXPECT_GE(stats.lane(QosLane::kInteractive).shed_deadline, 2u);
  // An unbounded deadline is oblivious: same engine, same instant, full
  // answer.
  EXPECT_EQ(engine.RecommendMany(AsRefs(contexts), 5, ServeOptions{}).served,
            contexts.size());
}

TEST(DeadlineServingTest, UnpublishedEnginesReportUnavailable) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  ServeOptions options;
  options.deadline = Generous();
  const std::vector<QueryId> context = {1, 2, 3};
  const ServeResult single = engine.Recommend(context, 5, options);
  EXPECT_EQ(single.status, StatusCode::kUnavailable);
  EXPECT_FALSE(single.recommendation.covered);

  const BatchResult batch = engine.RecommendMany(
      AsRefs(std::vector<std::vector<QueryId>>{{1}, {2}}), 5, options);
  ASSERT_TRUE(batch.admission.ok());
  EXPECT_EQ(batch.served, 0u);
  for (const StatusCode code : batch.statuses) {
    EXPECT_EQ(code, StatusCode::kUnavailable);
  }
}

TEST(DeadlineServingTest, ShardWithNoSnapshotIsUnavailableOthersServe) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  ShardedTrainOptions train;
  train.model.default_max_depth = 5;
  train.num_shards = 4;
  train.vocabulary_size = kVocabularyBound;
  auto trained = TrainShardedSnapshots(corpus, train);
  ASSERT_TRUE(trained.ok());

  ShardedEngine engine(
      ShardedEngineOptions{.num_shards = 4, .num_threads = 2});
  for (size_t s = 1; s < 4; ++s) {
    engine.shard(s)->Publish(trained->shards[s]);
  }

  const std::vector<std::vector<QueryId>> owned =
      CollectContexts(corpus, 200);
  std::vector<ContextRef> contexts(owned.begin(), owned.end());
  ServeOptions options;
  options.deadline = Generous();
  const BatchResult batch = engine.RecommendMany(
      std::span<const ContextRef>(contexts), 5, options);
  ASSERT_TRUE(batch.admission.ok());
  ASSERT_EQ(batch.statuses.size(), owned.size());

  size_t unavailable = 0;
  for (size_t i = 0; i < owned.size(); ++i) {
    if (engine.OwningShard(contexts[i]) == 0) {
      EXPECT_EQ(batch.statuses[i], StatusCode::kUnavailable);
      EXPECT_FALSE(batch.results[i].covered);
      ++unavailable;
    } else {
      EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
    }
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_EQ(batch.served, owned.size() - unavailable);

  // Single-query routing to the dead shard reports the same.
  for (size_t i = 0; i < owned.size(); ++i) {
    if (engine.OwningShard(contexts[i]) == 0) {
      const ServeResult served = engine.Recommend(contexts[i], 5, options);
      EXPECT_EQ(served.status, StatusCode::kUnavailable);
      break;
    }
  }
}

// ------------------------------------------------------ mid-batch expiry

TEST(DeadlineServingTest, BatchIsCutMidFlightWhenTheDeadlineExpires) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(BuildSnapshot(SharedCorpus().base, 1));

  // ~240k items: far more work than 25 ms even on the fastest box, so the
  // deadline lands mid-batch. Build the ContextRef view *before* starting
  // the clock — on a loaded CI box the O(n) setup alone can otherwise eat
  // the whole budget and the request is shed on arrival instead of cut.
  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 4000);
  std::vector<std::vector<QueryId>> contexts;
  contexts.reserve(seed.size() * 60);
  for (int rep = 0; rep < 60; ++rep) {
    contexts.insert(contexts.end(), seed.begin(), seed.end());
  }
  const std::vector<ContextRef> refs = AsRefs(contexts);

  ServeOptions options;
  options.deadline = Deadline::After(std::chrono::milliseconds(25));
  const BatchResult batch = engine.RecommendMany(
      std::span<const ContextRef>(refs), 5, options);
  ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
  EXPECT_GT(batch.served, 0u);          // made real progress...
  EXPECT_LT(batch.served, contexts.size());  // ...but not the whole batch
  ASSERT_EQ(batch.statuses.size(), contexts.size());
  EXPECT_EQ(batch.statuses.back(), StatusCode::kDeadlineExceeded);

  // Served prefix is exact; expired suffix is explicit and empty.
  const std::vector<Recommendation> expected =
      engine.RecommendMany(AsRefs(seed), 5, ServeOptions{}).results;
  size_t checked = 0;
  for (size_t i = 0; i < contexts.size(); ++i) {
    if (batch.statuses[i] == StatusCode::kOk) {
      ExpectSameRecommendation(expected[i % seed.size()], batch.results[i]);
      if (++checked >= 64) break;  // spot-check; the full loop is O(n^2) logs
    } else {
      EXPECT_EQ(batch.statuses[i], StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(batch.results[i].queries.empty());
    }
  }
  EXPECT_GT(checked, 0u);

  const AdmissionStats stats = engine.stats().admission;
  EXPECT_GT(stats.lane(QosLane::kInteractive).expired_items, 0u);
}

// ------------------------------------------- convoy fairness (regression)

// The pre-QoS engine serialized batches on a plain mutex: a convoy of
// large batches could starve small ones indefinitely. Now every caller
// either holds the slot or waits in a bounded lane; all of them finish,
// and interactive batches are never shed by deadline-free bulk traffic.
TEST(DeadlineServingTest, ConcurrentBatchCallersAllMakeProgress) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 1);
  RecommenderEngine engine(EngineOptions{.num_threads = 4});
  engine.Publish(snapshot);

  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 2048);
  const std::vector<std::vector<QueryId>> small(seed.begin(),
                                                seed.begin() + 40);
  const std::vector<Recommendation> expected_small =
      engine.RecommendMany(AsRefs(small), 5, ServeOptions{}).results;

  std::atomic<size_t> bulk_done{0};
  std::atomic<size_t> interactive_done{0};
  std::atomic<bool> interactive_clean{true};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      ServeOptions bulk;
      bulk.lane = QosLane::kBulk;
      for (int round = 0; round < 3; ++round) {
        const BatchResult got = engine.RecommendMany(AsRefs(seed), 5, bulk);
        if (got.served == seed.size()) bulk_done.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 15; ++round) {
        ServeOptions options;
        options.deadline = Generous();
        options.lane = QosLane::kInteractive;
        const BatchResult got =
            engine.RecommendMany(AsRefs(small), 5, options);
        if (!got.admission.ok() || got.served != small.size()) {
          interactive_clean.store(false);
          continue;
        }
        for (size_t i = 0; i < small.size(); ++i) {
          if (!serve_test::SameRecommendation(expected_small[i],
                                              got.results[i])) {
            interactive_clean.store(false);
          }
        }
        interactive_done.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(bulk_done.load(), 9u);
  EXPECT_EQ(interactive_done.load(), 45u);
  EXPECT_TRUE(interactive_clean.load());
}

// -------------------------------------------------- degrade under pressure

TEST(DeadlineServingTest, BoundedRequestsDegradeTopNUnderPressure) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.admission.interactive_capacity = 1;
  engine_options.admission.bulk_capacity = 1;
  // Threshold = ceil(0.5 * 2) = 1 waiting job triggers the ladder.
  RecommenderEngine engine(engine_options);
  engine.Publish(BuildSnapshot(SharedCorpus().base, 1));

  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 4000);
  std::vector<std::vector<QueryId>> huge;
  huge.reserve(seed.size() * 25);
  for (int rep = 0; rep < 25; ++rep) {
    huge.insert(huge.end(), seed.begin(), seed.end());
  }
  const std::vector<std::vector<QueryId>> small(seed.begin(),
                                                seed.begin() + 4);

  // A holds the batch slot for the duration of a ~100k-item batch; B
  // queues behind it (deadline-free: it just waits). While B waits, a
  // bounded request must see the degrade ladder.
  std::atomic<int> giants_done{0};
  ServeOptions bulk;
  bulk.lane = QosLane::kBulk;
  std::thread holder([&] {
    engine.RecommendMany(AsRefs(huge), 10, bulk);
    giants_done.fetch_add(1);
  });
  std::thread waiter([&] {
    engine.RecommendMany(AsRefs(huge), 10, bulk);
    giants_done.fetch_add(1);
  });

  bool saw_degraded = false;
  while (!saw_degraded && giants_done.load() < 2) {
    ServeOptions options;
    options.deadline = Generous();
    // 4 contexts < kMinBatchFanout: runs inline, never queues, so this
    // probe can't deadlock no matter what the slot is doing.
    const BatchResult probe =
        engine.RecommendMany(AsRefs(small), 10, options);
    if (probe.degraded) {
      EXPECT_EQ(probe.effective_top_n, 5u);
      for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(probe.statuses[i], StatusCode::kOk);
        EXPECT_LE(probe.results[i].queries.size(), 5u);
      }
      saw_degraded = true;
    }
  }
  holder.join();
  waiter.join();

  EXPECT_TRUE(saw_degraded)
      << "no degraded probe observed while a batch was queued";
  EXPECT_GT(engine.stats().admission.lane(QosLane::kInteractive).degraded,
            0u);

  // Pressure gone: the same probe serves the full top_n again.
  ServeOptions options;
  options.deadline = Generous();
  const BatchResult after =
      engine.RecommendMany(AsRefs(small), 10, options);
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.effective_top_n, 10u);
}

/// Queues kBacklog unbounded bulk batches on `engine` — past the default
/// admission queue's degrade threshold, half of its 80 slots — and probes
/// bounded single queries while they wait. True once a probe comes back
/// degraded to the ladder's top_n.
template <typename Engine>
bool SingleQueryDegradesUnderBatchBacklog(const Engine& engine) {
  constexpr size_t kBacklog = 45;
  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 4000);
  std::vector<std::vector<QueryId>> batch;
  for (int rep = 0; rep < 5; ++rep) {
    batch.insert(batch.end(), seed.begin(), seed.end());
  }
  const std::vector<ContextRef> refs = AsRefs(batch);
  std::atomic<size_t> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kBacklog);
  for (size_t t = 0; t < kBacklog; ++t) {
    threads.emplace_back([&] {
      ServeOptions bulk;
      bulk.lane = QosLane::kBulk;
      engine.RecommendMany(refs, 10, bulk);
      done.fetch_add(1);
    });
  }
  bool saw_degraded = false;
  while (!saw_degraded && done.load() < kBacklog) {
    ServeOptions options;
    options.deadline = Generous();
    const ServeResult probe = engine.Recommend(seed[0], 10, options);
    if (probe.degraded) {
      EXPECT_EQ(probe.status, StatusCode::kOk);
      EXPECT_LE(probe.recommendation.queries.size(), 5u);
      saw_degraded = true;
    }
  }
  for (std::thread& thread : threads) thread.join();
  return saw_degraded;
}

TEST(DeadlineServingTest, BoundedSingleQueriesDegradeUnderBatchBacklog) {
  // A fleet's single queries and its batches share one admission queue,
  // as an engine's do: a backlog of waiting fleet batches degrades a
  // bounded fleet.Recommend exactly as it degrades an engine's Recommend.
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 1);
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(snapshot);
  ShardedEngine fleet(
      ShardedEngineOptions{.num_shards = 2, .num_threads = 2});
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    fleet.shard(s)->Publish(snapshot);
  }
  // The backlog races its own drain, so give each engine a few tries.
  const auto degrades = [](const auto& serving) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (SingleQueryDegradesUnderBatchBacklog(serving)) return true;
    }
    return false;
  };
  EXPECT_TRUE(degrades(engine)) << "engine single query never degraded";
  EXPECT_TRUE(degrades(fleet)) << "fleet single query never degraded";
  EXPECT_GT(engine.stats().admission.lane(QosLane::kInteractive).degraded,
            0u);
  EXPECT_GT(fleet.stats().admission.lane(QosLane::kInteractive).degraded,
            0u);

  // Backlog gone: bounded single queries serve the full top_n again.
  ServeOptions options;
  options.deadline = Generous();
  const std::vector<QueryId> context =
      CollectContexts(SharedCorpus().base, 1)[0];
  EXPECT_FALSE(engine.Recommend(context, 10, options).degraded);
  EXPECT_FALSE(fleet.Recommend(context, 10, options).degraded);
}

}  // namespace
}  // namespace sqp
