// The sharded serving suite: the acceptance property is that a fleet of N
// engine shards answers every context bit-identically to the unsharded
// model — top-10 lists, scores, matched lengths, coverage — for shard
// counts {1, 2, 4, 7}, through the in-memory, compact and manifest-booted
// (mmap) serving variants; plus the independent-rebuild story (per-shard
// retrainers, bounded stale-shard skew).

#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;
constexpr size_t kShardCounts[] = {1, 2, 4, 7};

MvmmOptions DefaultModel() {
  MvmmOptions options;
  options.default_max_depth = 5;
  return options;
}

std::shared_ptr<const ModelSnapshot> BuildUnsharded(
    const std::vector<AggregatedSession>& sessions, uint64_t version = 1) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  auto built = ModelSnapshot::Build(data, DefaultModel(), version);
  SQP_CHECK(built.ok());
  return built.value();
}

ShardedTrainResult TrainSharded(const std::vector<AggregatedSession>& corpus,
                                uint32_t num_shards, uint64_t version = 1) {
  ShardedTrainOptions options;
  options.model = DefaultModel();
  // Train the fleets with workers while the unsharded reference stays
  // sequential: the parallel counting pass and the parallel routed sigma
  // fit both claim bit-identical results, so equivalence must survive.
  options.model.training_threads = 2;
  options.num_shards = num_shards;
  options.vocabulary_size = kVocabularyBound;
  options.version = version;
  auto trained = TrainShardedSnapshots(corpus, options);
  SQP_CHECK(trained.ok());
  return std::move(trained.value());
}

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("sqp_sharded_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

// ----------------------------------------------------------- equivalence

TEST(ShardedEngineTest, TopNBitIdenticalToUnshardedForEveryShardCount) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  const auto full = BuildUnsharded(corpus);
  // Covered and drifted (partially uncovered) contexts alike must agree.
  std::vector<std::vector<QueryId>> contexts = CollectContexts(corpus, 500);
  const auto drifted = CollectContexts(SharedCorpus().drifted, 200);
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());

  SnapshotScratch scratch;
  for (const size_t num_shards : kShardCounts) {
    const ShardedTrainResult trained =
        TrainSharded(corpus, static_cast<uint32_t>(num_shards));
    ASSERT_EQ(trained.shards.size(), num_shards);
    // The routed global sigma fit must reproduce the unsharded Newton fit
    // exactly — this is what makes every served score equal, not close.
    EXPECT_EQ(trained.sigmas, full->sigmas()) << num_shards << " shards";

    ShardedEngine engine(ShardedEngineOptions{.num_shards = num_shards,
                                              .num_threads = 2});
    ASSERT_EQ(engine.num_shards(), num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      engine.shard(s)->Publish(trained.shards[s]);
    }

    for (const std::vector<QueryId>& context : contexts) {
      const Recommendation want = full->Recommend(context, 10, &scratch);
      ExpectSameRecommendation(want,
                               engine.Recommend(context, 10).recommendation);
    }

    // The batched path routes and merges back positionally; results must
    // be the same answers in the same slots.
    const std::vector<Recommendation> batch =
        engine.RecommendMany(AsRefs(contexts), 10).results;
    ASSERT_EQ(batch.size(), contexts.size());
    for (size_t i = 0; i < contexts.size(); ++i) {
      const Recommendation want = full->Recommend(contexts[i], 10, &scratch);
      ExpectSameRecommendation(want, batch[i]);
    }
  }
}

TEST(ShardedEngineTest, ManifestBootedFleetServesIdentically) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  const auto full = BuildUnsharded(corpus, /*version=*/3);
  const auto full_compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(corpus, 400);
  SnapshotScratch scratch;

  for (const size_t num_shards : {size_t{2}, size_t{4}}) {
    const ShardedTrainResult trained =
        TrainSharded(corpus, static_cast<uint32_t>(num_shards),
                     /*version=*/3);
    TempDir dir;
    const std::string manifest_path = dir.file("fleet.manifest");
    ASSERT_TRUE(SaveShardedSnapshots(trained.shards,
                                     CompactOptions{.top_k = 10},
                                     manifest_path)
                    .ok());

    // One call boots the whole fleet (shard count from the manifest).
    auto booted = ShardedEngine::BootFromManifest(manifest_path);
    ASSERT_TRUE(booted.ok()) << booted.status().ToString();
    ASSERT_EQ((*booted)->num_shards(), num_shards);
    EXPECT_EQ(std::ranges::min((*booted)->shard_versions()), 3u);
    EXPECT_EQ(std::ranges::max((*booted)->shard_versions()), 3u);

    // The mapped fleet serves exactly like the unsharded *compact*
    // snapshot (same top-K truncation on both sides).
    for (const std::vector<QueryId>& context : contexts) {
      const Recommendation want =
          full_compact->Recommend(context, 10, &scratch);
      ExpectSameRecommendation(
          want, (*booted)->Recommend(context, 10).recommendation);
    }
  }
}

TEST(ShardedEngineTest, EmptyAndUnknownContextsBehaveLikeUnsharded) {
  const ShardedTrainResult trained = TrainSharded(SharedCorpus().base, 4);
  ShardedEngine engine(ShardedEngineOptions{.num_shards = 4});
  for (size_t s = 0; s < 4; ++s) engine.shard(s)->Publish(trained.shards[s]);

  EXPECT_FALSE(engine.Recommend({}, 5).recommendation.covered);
  const std::vector<QueryId> unknown = {kInvalidQueryId - 1};
  EXPECT_FALSE(engine.Recommend(unknown, 5).recommendation.covered);
}

TEST(ShardedEngineTest, UnpublishedShardAnswersUncovered) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  const ShardedTrainResult trained = TrainSharded(corpus, 4);
  ShardedEngine engine(ShardedEngineOptions{.num_shards = 4});
  // Publish every shard but 0: contexts owned by shard 0 must answer
  // uncovered (version 0), everything else normally — readers of healthy
  // shards are unaffected by a missing one.
  for (size_t s = 1; s < 4; ++s) engine.shard(s)->Publish(trained.shards[s]);

  size_t unowned_covered = 0;
  for (const std::vector<QueryId>& context : CollectContexts(corpus, 300)) {
    const ServeResult served = engine.Recommend(context, 5);
    const Recommendation& rec = served.recommendation;
    if (engine.OwningShard(context) == 0) {
      EXPECT_FALSE(rec.covered);
      EXPECT_EQ(served.served_version, 0u);
    } else if (rec.covered) {
      EXPECT_EQ(served.served_version, 1u);
      ++unowned_covered;
    }
  }
  EXPECT_GT(unowned_covered, 0u);
  const BatchResult batch =
      engine.RecommendMany(AsRefs(CollectContexts(corpus, 300)), 5);
  EXPECT_EQ(batch.results.size(), 300u);
}

// ------------------------------------------------------- fixed sigma seam

TEST(ShardedEngineTest, FixedSigmasSkipTheFitAndServeIdentically) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  const auto fitted = BuildUnsharded(corpus);

  TrainingData data;
  data.sessions = &corpus;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions pinned = DefaultModel();
  pinned.fixed_sigmas = fitted->sigmas();
  auto rebuilt = ModelSnapshot::Build(data, pinned, 1);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)->sigmas(), fitted->sigmas());

  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : CollectContexts(corpus, 200)) {
    ExpectSameRecommendation(fitted->Recommend(context, 10, &scratch),
                             (*rebuilt)->Recommend(context, 10, &scratch));
  }

  // Mis-sized vectors are rejected, in Build and in WithSigmas.
  pinned.fixed_sigmas.push_back(1.0);
  EXPECT_FALSE(ModelSnapshot::Build(data, pinned, 1).ok());
  EXPECT_FALSE(fitted->WithSigmas({1.0, 2.0}).ok());

  // WithSigmas shares the tree (no copy) and swaps only the weights.
  auto stamped = fitted->WithSigmas(fitted->sigmas());
  ASSERT_TRUE(stamped.ok());
  EXPECT_EQ((*stamped)->pst().get(), fitted->pst().get());
}

// --------------------------------------------- independent shard rebuilds

/// Sessions whose non-final queries all belong to `shard` (so appending
/// them dirties exactly that shard), drawn from the drifted period.
std::vector<AggregatedSession> SessionsOwnedBy(uint32_t shard,
                                               uint32_t num_shards,
                                               size_t limit) {
  std::vector<AggregatedSession> out;
  std::vector<uint32_t> owners;
  for (const AggregatedSession& session : SharedCorpus().drifted) {
    OwningShards(session, num_shards, &owners);
    if (owners.size() == 1 && owners[0] == shard) {
      out.push_back(session);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

TEST(ShardedRetrainerSetTest, OneShardRebuildsWhileOthersStayBitFrozen) {
  constexpr uint32_t kShards = 4;
  ShardedEngine engine(ShardedEngineOptions{.num_shards = kShards});
  RetrainerOptions base;
  base.model = DefaultModel();
  base.vocabulary_size = kVocabularyBound;
  ShardedRetrainerSet retrainers(&engine, base);
  ASSERT_TRUE(retrainers.Bootstrap(SharedCorpus().base).ok());
  EXPECT_EQ(retrainers.sigmas().size(), DefaultModel()
                                            .DefaultComponents(5)
                                            .size());
  EXPECT_EQ(std::ranges::min(engine.shard_versions()), 1u);
  EXPECT_EQ(std::ranges::max(engine.shard_versions()), 1u);

  // The bootstrapped fleet equals the unsharded model (the retrainers
  // rebuild under the pinned global sigmas).
  const auto full = BuildUnsharded(SharedCorpus().base);
  SnapshotScratch scratch;
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 300);
  for (const std::vector<QueryId>& context : contexts) {
    ExpectSameRecommendation(full->Recommend(context, 10, &scratch),
                             engine.Recommend(context, 10).recommendation);
  }

  // Pick a target shard with single-owner drift sessions available.
  uint32_t target = 0;
  std::vector<AggregatedSession> fresh;
  for (uint32_t s = 0; s < kShards && fresh.empty(); ++s) {
    fresh = SessionsOwnedBy(s, kShards, 40);
    target = s;
  }
  ASSERT_FALSE(fresh.empty());

  // Freeze the answers every non-target shard currently gives.
  std::vector<Recommendation> before;
  before.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    before.push_back(engine.Recommend(context, 10).recommendation);
  }

  retrainers.AppendSessions(fresh);
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s != target) {
      EXPECT_EQ(retrainers.shard_retrainer(s)->pending_sessions(), 0u);
    }
  }
  ASSERT_TRUE(retrainers.RetrainShard(target).ok());

  // Bounded skew: exactly the target advanced.
  const std::vector<uint64_t> versions = engine.shard_versions();
  EXPECT_EQ(versions[target], 2u);
  EXPECT_EQ(std::ranges::min(versions), 1u);
  EXPECT_EQ(std::ranges::max(versions), 2u);

  // Non-target shards answer bit-identically to before the rebuild; the
  // target shard now serves the grown corpus (equal to an unsharded model
  // trained on base + fresh under the same pinned sigmas, restricted to
  // its contexts).
  std::vector<AggregatedSession> grown = SharedCorpus().base;
  grown.insert(grown.end(), fresh.begin(), fresh.end());
  TrainingData grown_data;
  grown_data.sessions = &grown;
  grown_data.vocabulary_size = kVocabularyBound;
  MvmmOptions pinned = DefaultModel();
  pinned.fixed_sigmas = retrainers.sigmas();
  auto grown_full = ModelSnapshot::Build(grown_data, pinned, 2);
  ASSERT_TRUE(grown_full.ok());

  for (size_t i = 0; i < contexts.size(); ++i) {
    const Recommendation now =
        engine.Recommend(contexts[i], 10).recommendation;
    if (engine.OwningShard(contexts[i]) == target) {
      ExpectSameRecommendation(
          (*grown_full)->Recommend(contexts[i], 10, &scratch), now);
    } else {
      ExpectSameRecommendation(before[i], now);
    }
  }
}

TEST(ShardedRetrainerSetTest, PersistedFleetColdBootsAfterShardRebuild) {
  constexpr uint32_t kShards = 2;
  TempDir dir;
  const std::string manifest_path = dir.file("fleet.manifest");

  ShardedEngine engine(ShardedEngineOptions{.num_shards = kShards});
  RetrainerOptions base;
  base.model = DefaultModel();
  base.vocabulary_size = kVocabularyBound;
  base.persist_path = manifest_path;  // per-shard blobs + manifest naming
  ShardedRetrainerSet retrainers(&engine, base);
  // Bootstrap persists every shard blob AND the manifest indexing them.
  ASSERT_TRUE(retrainers.Bootstrap(SharedCorpus().base).ok());

  {
    auto booted = ShardedEngine::BootFromManifest(manifest_path);
    ASSERT_TRUE(booted.ok()) << booted.status().ToString();
    EXPECT_EQ(std::ranges::max((*booted)->shard_versions()), 1u);
  }

  // Rebuild one shard: its blob on disk changes AND the manifest is
  // re-pinned automatically (the after_persist hook), so the on-disk
  // fleet stays cold-bootable at every moment — not just at clean exit.
  std::vector<AggregatedSession> fresh;
  uint32_t target = 0;
  for (uint32_t s = 0; s < kShards && fresh.empty(); ++s) {
    fresh = SessionsOwnedBy(s, kShards, 20);
    target = s;
  }
  ASSERT_FALSE(fresh.empty());
  retrainers.AppendSessions(fresh);
  ASSERT_TRUE(retrainers.RetrainShard(target).ok());

  auto rebooted = ShardedEngine::BootFromManifest(manifest_path);
  ASSERT_TRUE(rebooted.ok()) << rebooted.status().ToString();
  const std::vector<uint64_t> versions = (*rebooted)->shard_versions();
  EXPECT_EQ(versions[target], 2u);
  EXPECT_EQ(versions[1 - target], 1u);

  // The cold-booted fleet serves what the live fleet serves (compact
  // truncation on both sides: compare against the live engines'
  // re-packed snapshots via the blobs themselves — spot-check coverage
  // and exact agreement on the batch path).
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 150);
  const std::vector<Recommendation> live =
      engine.RecommendMany(AsRefs(contexts), 10).results;
  const std::vector<Recommendation> cold =
      (*rebooted)->RecommendMany(AsRefs(contexts), 10).results;
  size_t covered = 0;
  for (size_t i = 0; i < contexts.size(); ++i) {
    if (live[i].covered) ++covered;
    EXPECT_EQ(live[i].covered, cold[i].covered);
    if (live[i].covered && cold[i].covered) {
      ASSERT_GE(live[i].queries.size(), 1u);
      ASSERT_GE(cold[i].queries.size(), 1u);
      EXPECT_EQ(live[i].queries[0].query, cold[i].queries[0].query);
    }
  }
  EXPECT_GT(covered, 0u);
}

TEST(ShardedRetrainerSetTest, ManifestRePinRecordsRepublishedShardVersion) {
  // Regression: the automatic manifest re-pin runs inside the retrainer's
  // after_persist hook, which used to fire before published_version()
  // advanced — so a shard republishing version 2 re-pinned the manifest
  // tagged version 1. The manifest version must equal the newest shard
  // version the moment the hook-driven re-pin lands, with no manual
  // RefreshManifest() call.
  constexpr uint32_t kShards = 2;
  TempDir dir;
  const std::string manifest_path = dir.file("repin.manifest");

  ShardedEngine engine(ShardedEngineOptions{.num_shards = kShards});
  RetrainerOptions base;
  base.model = DefaultModel();
  base.vocabulary_size = kVocabularyBound;
  base.persist_path = manifest_path;
  ShardedRetrainerSet retrainers(&engine, base);
  ASSERT_TRUE(retrainers.Bootstrap(SharedCorpus().base).ok());
  {
    auto manifest = SnapshotIo::LoadManifest(manifest_path);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->version, 1u);
  }

  std::vector<AggregatedSession> fresh;
  uint32_t target = 0;
  for (uint32_t s = 0; s < kShards && fresh.empty(); ++s) {
    fresh = SessionsOwnedBy(s, kShards, 20);
    target = s;
  }
  ASSERT_FALSE(fresh.empty());
  retrainers.AppendSessions(fresh);
  ASSERT_TRUE(retrainers.RetrainShard(target).ok());
  ASSERT_TRUE(retrainers.last_manifest_status().ok());

  auto manifest = SnapshotIo::LoadManifest(manifest_path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->version, 2u);  // stale (1) before the ordering fix

  // And the re-pinned fleet cold-boots at the mixed shard versions.
  auto booted = ShardedEngine::BootFromManifest(manifest_path);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  const std::vector<uint64_t> versions = (*booted)->shard_versions();
  EXPECT_EQ(versions[target], 2u);
  EXPECT_EQ(versions[1 - target], 1u);
}

TEST(ShardedRetrainerSetTest, EmptyShardSlicesPersistAndBootstrapLazily) {
  // A corpus over two distinct queries: with 7 shards, most slices are
  // empty. Every shard must still publish AND persist at bootstrap (the
  // manifest needs all blobs), and an empty shard must fold in its first
  // routed sessions instead of queueing them forever.
  constexpr uint32_t kShards = 7;
  const std::vector<AggregatedSession> tiny = {
      {{QueryId{0}, QueryId{1}}, 5},
      {{QueryId{1}, QueryId{0}}, 3},
  };
  TempDir dir;
  const std::string manifest_path = dir.file("tiny.manifest");

  ShardedEngine engine(ShardedEngineOptions{.num_shards = kShards});
  RetrainerOptions base;
  base.model = DefaultModel();
  base.vocabulary_size = 16;
  base.persist_path = manifest_path;
  ShardedRetrainerSet retrainers(&engine, base);
  ASSERT_TRUE(retrainers.Bootstrap(tiny).ok());

  // All 7 blobs + the manifest exist and the fleet cold-boots whole.
  auto booted = ShardedEngine::BootFromManifest(manifest_path);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  EXPECT_EQ((*booted)->num_shards(), kShards);
  EXPECT_EQ(std::ranges::min(engine.shard_versions()), 1u);

  // Route sessions to a shard whose slice was empty: query id 3 hashes
  // to shard 4 (see ShardPartitionerTest), owned by neither query 0 nor 1.
  const uint32_t lazy_shard = ShardOfQuery(3, kShards);
  ASSERT_EQ(retrainers.shard_retrainer(lazy_shard)->corpus_size(), 0u)
      << "test premise: shard owning query 3 bootstrapped empty";
  ASSERT_EQ(retrainers.shard_retrainer(lazy_shard)->published_version(), 1u);
  const std::vector<QueryId> context = {3};
  EXPECT_FALSE(engine.Recommend(context, 5).recommendation.covered);

  retrainers.AppendSessions({AggregatedSession{{3, 4}, 4}});
  // The empty shard folds its first sessions in at its next retrain.
  ASSERT_TRUE(retrainers.RetrainShard(lazy_shard).ok());
  EXPECT_EQ(retrainers.shard_retrainer(lazy_shard)->published_version(), 2u);
  const Recommendation rec = engine.Recommend(context, 5).recommendation;
  EXPECT_TRUE(rec.covered);
  ASSERT_FALSE(rec.queries.empty());
  EXPECT_EQ(rec.queries[0].query, 4u);

  // The retrain also persisted + re-pinned the manifest.
  auto rebooted = ShardedEngine::BootFromManifest(manifest_path);
  ASSERT_TRUE(rebooted.ok()) << rebooted.status().ToString();
  EXPECT_TRUE((*rebooted)->Recommend(context, 5).recommendation.covered);
}

// ------------------------------------------------------------------ stats

TEST(ShardedEngineTest, StatsAggregateAcrossShards) {
  const ShardedTrainResult trained = TrainSharded(SharedCorpus().base, 2);
  ShardedEngine engine(ShardedEngineOptions{.num_shards = 2});
  for (size_t s = 0; s < 2; ++s) engine.shard(s)->Publish(trained.shards[s]);

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 64);
  for (size_t i = 0; i < 10; ++i) engine.Recommend(contexts[i], 5);
  engine.RecommendMany(AsRefs(contexts), 5);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 10u + contexts.size());
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(engine.shard_versions(), std::vector<uint64_t>({1u, 1u}));
}

}  // namespace
}  // namespace sqp
