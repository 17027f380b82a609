// The streaming retrain/swap engine. The load-bearing property: appending a
// drifted log slice and completing one retrain cycle must publish the very
// blob a from-scratch ModelSnapshot::Build on the concatenated corpus packs
// to — the incremental counting path (ContextIndex::Append) and the shared
// rebuild consume the same canonical entries either way.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compact_snapshot.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

RetrainerOptions TestOptions() {
  RetrainerOptions options;
  options.model.default_max_depth = 5;
  options.vocabulary_size = kVocabularyBound;
  return options;
}

/// The blob a from-scratch build on `corpus` packs to, at `version`.
std::shared_ptr<const CompactSnapshot> FromScratchBlob(
    const std::vector<AggregatedSession>& corpus, uint64_t version) {
  MvmmOptions model_options;
  model_options.default_max_depth = 5;
  TrainingData data;
  data.sessions = &corpus;
  data.vocabulary_size = kVocabularyBound;
  auto built = ModelSnapshot::Build(data, model_options, version);
  EXPECT_TRUE(built.ok());
  return built.ok() ? CompactSnapshot::FromSnapshot(**built) : nullptr;
}

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return std::ranges::equal(a, b);
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(RetrainerTest, BootstrapPublishesVersionOneEquivalentToTrain) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());
  EXPECT_EQ(retrainer.published_version(), 1u);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_EQ(retrainer.corpus_size(), SharedCorpus().base.size());

  const auto expected = FromScratchBlob(SharedCorpus().base, 1);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(engine.CurrentSnapshot(), nullptr);
  EXPECT_TRUE(SameBytes(engine.CurrentSnapshot()->blob_bytes(),
                        expected->blob_bytes()));
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 200)) {
    ExpectSameRecommendation(expected->Recommend(context, 5, &scratch),
                             engine.Recommend(context, 5).recommendation);
  }
}

TEST(RetrainerTest, RetrainEquivalentToFromScratchOnConcatenatedCorpus) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  retrainer.AppendSessions(SharedCorpus().drifted);
  EXPECT_EQ(retrainer.pending_sessions(), SharedCorpus().drifted.size());
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_EQ(retrainer.pending_sessions(), 0u);
  EXPECT_EQ(retrainer.published_version(), 2u);
  EXPECT_EQ(engine.current_version(), 2u);
  EXPECT_EQ(retrainer.corpus_size(),
            SharedCorpus().base.size() + SharedCorpus().drifted.size());

  // From-scratch reference on the concatenation, same options: the
  // published blob must be its pack byte for byte (tree, counts, sigmas
  // and version).
  std::vector<AggregatedSession> concatenated = SharedCorpus().base;
  concatenated.insert(concatenated.end(), SharedCorpus().drifted.begin(),
                      SharedCorpus().drifted.end());
  const auto expected = FromScratchBlob(concatenated, /*version=*/2);
  ASSERT_NE(expected, nullptr);
  const std::shared_ptr<const CompactSnapshot> published =
      engine.CurrentSnapshot();
  ASSERT_NE(published, nullptr);
  EXPECT_TRUE(SameBytes(published->blob_bytes(), expected->blob_bytes()));

  // ...and so must the served recommendations, on both stale and drifted
  // contexts (the drifted slice is what the retrain absorbed).
  SnapshotScratch scratch;
  size_t covered = 0;
  for (const std::vector<QueryId>& context :
       CollectContexts(concatenated, 250)) {
    const Recommendation want = expected->Recommend(context, 5, &scratch);
    ExpectSameRecommendation(want,
                             engine.Recommend(context, 5).recommendation);
    covered += want.covered ? 1 : 0;
  }
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().drifted, 150)) {
    ExpectSameRecommendation(expected->Recommend(context, 5, &scratch),
                             engine.Recommend(context, 5).recommendation);
  }
  EXPECT_GT(covered, 0u);
}

TEST(RetrainerTest, PublishesExactlyTheBytesItPersists) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("sqp_retrainer_same_bytes_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  const std::string persist_path = (root / "model.blob").string();

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options = TestOptions();
  options.persist_path = persist_path;
  Retrainer retrainer(&engine, options);

  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());
  ASSERT_NE(engine.CurrentSnapshot(), nullptr);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_TRUE(SameBytes(engine.CurrentSnapshot()->blob_bytes(),
                        ReadFile(persist_path)));

  retrainer.AppendSessions(SharedCorpus().drifted);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_EQ(engine.current_version(), 2u);
  EXPECT_TRUE(SameBytes(engine.CurrentSnapshot()->blob_bytes(),
                        ReadFile(persist_path)));

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

TEST(RetrainerTest, RetrainOnceWithoutPendingIsANoop) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());
  const std::shared_ptr<const CompactSnapshot> before =
      engine.CurrentSnapshot();
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_EQ(retrainer.published_version(), 1u);
  EXPECT_EQ(engine.CurrentSnapshot().get(), before.get());
}

TEST(RetrainerTest, LifecycleErrorsAreReported) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  EXPECT_FALSE(retrainer.RetrainOnce().ok());  // before Bootstrap
  EXPECT_FALSE(retrainer.Bootstrap({}).ok());  // empty corpus
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());
  EXPECT_FALSE(retrainer.Bootstrap(SharedCorpus().base).ok());  // twice
}

TEST(RetrainerTest, PrebuiltBootstrapMustCarryVersionOne) {
  // Regression: a prebuilt snapshot at version 7 used to serve as 7 while
  // published_version() read 1, so the next rebuild published version 2
  // and the served version went backwards.
  const RetrainerOptions options = TestOptions();
  TrainingData data;
  data.sessions = &SharedCorpus().base;
  data.vocabulary_size = kVocabularyBound;
  auto stale = ModelSnapshot::Build(data, options.model, /*version=*/7);
  ASSERT_TRUE(stale.ok());

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, options);
  const Status status =
      retrainer.Bootstrap(SharedCorpus().base, stale.value());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CurrentSnapshot(), nullptr);  // nothing published
  EXPECT_EQ(retrainer.published_version(), 0u);
  EXPECT_EQ(retrainer.stats().rebuilds, 0u);

  // The rejected call left the retrainer unbootstrapped.
  auto fresh = ModelSnapshot::Build(data, options.model, /*version=*/1);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base, fresh.value()).ok());
  EXPECT_EQ(engine.current_version(), 1u);
  retrainer.AppendSessions(SharedCorpus().drifted);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_EQ(engine.current_version(), 2u);
}

TEST(RetrainerTest, PersistFailuresRetryWithBackoffThenRecover) {
  // A persist path whose parent directory does not exist: every Save
  // attempt fails (the atomic tmp file cannot even be opened) — the
  // injection point for "disk is broken, then comes back".
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("sqp_retrainer_persist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  const std::filesystem::path missing_dir = root / "missing";
  const std::string persist_path = (missing_dir / "model.blob").string();

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options = TestOptions();
  options.persist_path = persist_path;
  Retrainer retrainer(&engine, options);

  // Bootstrap: the rebuild publishes (serving goes live), the persist
  // exhausts its retries and the failure is surfaced — not swallowed.
  const Status boot = retrainer.Bootstrap(SharedCorpus().base);
  EXPECT_FALSE(boot.ok());
  EXPECT_EQ(retrainer.published_version(), 1u);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_FALSE(retrainer.last_status().ok());

  RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.persist_retries, kPersistMaxRetries);  // extra tries
  EXPECT_EQ(stats.persist_failures, 1u);
  EXPECT_EQ(stats.retrain_failures, 0u);

  // The disk "recovers": the next cycle persists first try and the
  // blob cold-boots a replica at the new version.
  std::filesystem::create_directories(missing_dir);
  retrainer.AppendSessions(SharedCorpus().drifted);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_TRUE(retrainer.last_status().ok());
  EXPECT_EQ(retrainer.published_version(), 2u);

  stats = retrainer.stats();
  EXPECT_EQ(stats.rebuilds, 2u);
  EXPECT_EQ(stats.persist_retries,
            kPersistMaxRetries);  // unchanged: no new failures
  EXPECT_EQ(stats.persist_failures, 1u);
  EXPECT_EQ(stats.retrain_failures, 0u);

  RecommenderEngine replica(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(replica.LoadAndPublish(persist_path).ok());
  EXPECT_EQ(replica.current_version(), 2u);

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

TEST(RetrainerTest, AfterPersistHookSeesNewVersionAcrossRetriedPersist) {
  // Regression: the after_persist hook used to fire before the caller
  // advanced published_version(), so a hook re-pinning a manifest (the
  // ShardedRetrainerSet wiring) recorded the PREVIOUS version. The hook
  // must fire exactly once per successful persist, only after the blob
  // exists, and observe the version the persisted blob carries — even
  // when the persist only succeeds on a backoff retry mid-republish.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("sqp_retrainer_hook_" + std::to_string(::getpid()));
  const std::filesystem::path blob_dir = root / "blobs";
  std::filesystem::create_directories(blob_dir);
  const std::string persist_path = (blob_dir / "model.blob").string();

  std::atomic<uint64_t> hook_fires{0};
  std::atomic<uint64_t> hook_version{0};
  std::atomic<bool> hook_saw_blob{false};

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options = TestOptions();
  options.persist_path = persist_path;
  Retrainer* observed = nullptr;
  options.after_persist = [&] {
    hook_fires.fetch_add(1);
    hook_version.store(observed->published_version());
    hook_saw_blob.store(std::filesystem::exists(persist_path));
  };
  Retrainer hooked(&engine, options);
  observed = &hooked;

  ASSERT_TRUE(hooked.Bootstrap(SharedCorpus().base).ok());
  EXPECT_EQ(hook_fires.load(), 1u);
  EXPECT_EQ(hook_version.load(), 1u);
  EXPECT_TRUE(hook_saw_blob.load());

  // Break the disk mid-republish: the retrain publishes version 2, the
  // persist fails and backs off until the directory reappears.
  hooked.AppendSessions(SharedCorpus().drifted);
  std::filesystem::remove_all(blob_dir);
  std::thread heal([&] {
    // Wait for the first failed attempt (persist_retries moves before the
    // backoff sleep), then bring the disk back so a retry succeeds.
    while (hooked.stats().persist_retries == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::filesystem::create_directories(blob_dir);
  });
  ASSERT_TRUE(hooked.RetrainOnce().ok());
  heal.join();

  // The heal lands after the first failed attempt, before the last retry.
  static_assert(kPersistMaxRetries >= 2);
  EXPECT_GE(hooked.stats().persist_retries, 1u);
  EXPECT_LE(hooked.stats().persist_retries, kPersistMaxRetries);
  EXPECT_EQ(hooked.stats().persist_failures, 0u);
  EXPECT_EQ(hook_fires.load(), 2u);  // once per successful persist
  EXPECT_EQ(hook_version.load(), 2u);  // the version the blob carries
  EXPECT_TRUE(hook_saw_blob.load());

  RecommenderEngine replica(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(replica.LoadAndPublish(persist_path).ok());
  EXPECT_EQ(replica.current_version(), 2u);

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

TEST(RetrainerTest, BackgroundWorkerRetrainsAppendedSessions) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options = TestOptions();
  options.poll_interval = std::chrono::milliseconds(5);
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  retrainer.Start();
  EXPECT_TRUE(retrainer.running());
  retrainer.AppendSessions(SharedCorpus().drifted);
  retrainer.WaitForVersionAtLeast(2);
  // Serving keeps answering while (and after) the background cycle runs.
  const std::vector<QueryId> context =
      CollectContexts(SharedCorpus().base, 1)[0];
  EXPECT_GE(engine.Recommend(context, 5).served_version, 1u);
  retrainer.Stop();
  EXPECT_FALSE(retrainer.running());

  EXPECT_GE(retrainer.published_version(), 2u);
  EXPECT_TRUE(retrainer.last_status().ok());
  EXPECT_EQ(engine.current_version(), retrainer.published_version());
}

}  // namespace
}  // namespace sqp
