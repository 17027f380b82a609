// RecommenderEngine basics: snapshot publish/swap semantics, single-query
// serving parity with the underlying snapshot, and batched RecommendMany
// parity across pool configurations.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "serve/recommender_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

std::shared_ptr<const ModelSnapshot> BuildSnapshot(
    const std::vector<AggregatedSession>& sessions, uint64_t version) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

TEST(RecommenderEngineTest, UnpublishedEngineServesEmpty) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  EXPECT_EQ(engine.CurrentSnapshot(), nullptr);
  EXPECT_EQ(engine.current_version(), 0u);

  const std::vector<QueryId> context = {1, 2, 3};
  const ServeResult served = engine.Recommend(context, 5);
  EXPECT_FALSE(served.recommendation.covered);
  EXPECT_TRUE(served.recommendation.queries.empty());
  EXPECT_EQ(served.served_version, 0u);

  const std::vector<std::vector<QueryId>> contexts = {{1}, {2}};
  const BatchResult batch = engine.RecommendMany(AsRefs(contexts), 5);
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_FALSE(batch.results[0].covered);
  EXPECT_EQ(batch.served_version, 0u);
}

TEST(RecommenderEngineTest, SingleQueryMatchesSnapshot) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 7);
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(snapshot);
  EXPECT_EQ(engine.current_version(), 7u);

  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 200)) {
    const ServeResult actual = engine.Recommend(context, 5);
    EXPECT_EQ(actual.served_version, 7u);
    ExpectSameRecommendation(snapshot->Recommend(context, 5, &scratch),
                             actual.recommendation);
  }
  EXPECT_GE(engine.stats().queries_served, 200u);
}

TEST(RecommenderEngineTest, BatchedMatchesSingleAcrossPoolConfigs) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 3);
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 300);

  SnapshotScratch scratch;
  std::vector<Recommendation> expected;
  expected.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    expected.push_back(snapshot->Recommend(context, 5, &scratch));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RecommenderEngine engine(EngineOptions{.num_threads = threads});
    engine.Publish(snapshot);
    const BatchResult actual = engine.RecommendMany(AsRefs(contexts), 5);
    EXPECT_EQ(actual.served_version, 3u);
    ASSERT_EQ(actual.results.size(), expected.size());
    for (size_t i = 0; i < actual.results.size(); ++i) {
      ExpectSameRecommendation(expected[i], actual.results[i]);
    }
  }

  // Below the fan-out threshold the batch runs inline; results are the same.
  RecommenderEngine engine(EngineOptions{.num_threads = 4});
  engine.Publish(snapshot);
  const std::vector<std::vector<QueryId>> small(
      contexts.begin(), contexts.begin() + (kMinBatchFanout - 1));
  const std::vector<Recommendation> inline_results =
      engine.RecommendMany(AsRefs(small), 5).results;
  ASSERT_EQ(inline_results.size(), small.size());
  for (size_t i = 0; i < inline_results.size(); ++i) {
    ExpectSameRecommendation(expected[i], inline_results[i]);
  }
}

TEST(RecommenderEngineTest, PublishSwapsAtomicallyBetweenVersions) {
  const auto v1 = BuildSnapshot(SharedCorpus().base, 1);
  std::vector<AggregatedSession> all = SharedCorpus().base;
  all.insert(all.end(), SharedCorpus().drifted.begin(),
             SharedCorpus().drifted.end());
  const auto v2 = BuildSnapshot(all, 2);

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(v1);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_EQ(engine.CurrentSnapshot().get(), v1.get());
  engine.Publish(v2);
  EXPECT_EQ(engine.current_version(), 2u);
  EXPECT_EQ(engine.CurrentSnapshot().get(), v2.get());
  EXPECT_EQ(engine.stats().snapshots_published, 2u);

  // The old snapshot object stays valid for holders of the pointer.
  SnapshotScratch scratch;
  const std::vector<QueryId> context = CollectContexts(all, 1)[0];
  EXPECT_NO_FATAL_FAILURE(v1->Recommend(context, 5, &scratch));
}

TEST(RecommenderEngineTest, EmptyBatchIsFine) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(BuildSnapshot(SharedCorpus().base, 1));
  EXPECT_TRUE(engine.RecommendMany({}, 5).results.empty());
}

}  // namespace
}  // namespace sqp
