// Concurrency stress for the serving swap: N reader threads hammer
// Recommend / RecommendMany while snapshots are published underneath them.
// Every answer must be attributable to exactly one fully-published snapshot
// — we precompute the expected result per (version, context) and fail on
// any response that matches no published generation. Run this binary under
// ThreadSanitizer in CI (the SQP_TSAN build) to catch ordering bugs the
// assertions can't see.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SameRecommendation;
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

TEST(EngineStressTest, ReadersAlwaysSeeFullyPublishedSnapshots) {
  // Three model generations over growing corpora, versions 1..3.
  std::vector<std::vector<AggregatedSession>> corpora;
  corpora.push_back(SharedCorpus().base);
  {
    std::vector<AggregatedSession> grown = corpora.back();
    const auto& drifted = SharedCorpus().drifted;
    grown.insert(grown.end(), drifted.begin(),
                 drifted.begin() + static_cast<ptrdiff_t>(drifted.size() / 2));
    corpora.push_back(grown);
    grown.insert(grown.end(),
                 drifted.begin() + static_cast<ptrdiff_t>(drifted.size() / 2),
                 drifted.end());
    corpora.push_back(grown);
  }
  // Generations 1 and 3 are default packs, generation 2 a top-10 pack and
  // generation 4 a memory-mapped blob restored from disk, so the swap loop
  // keeps hot-swapping owned layouts and a mapping underneath the readers:
  // a cold-booted (mmap) replica must behave like any other snapshot under
  // concurrent readers.
  std::vector<std::shared_ptr<const CompactSnapshot>> snapshots;
  for (size_t i = 0; i < corpora.size(); ++i) {
    const std::shared_ptr<const ModelSnapshot> full =
        BuildSnapshot(corpora[i], i + 1);
    snapshots.push_back(CompactSnapshot::FromSnapshot(
        *full, i == 1 ? CompactOptions{.top_k = 10} : CompactOptions{}));
  }
  // Process-unique path: concurrent ctest runs (e.g. release and ASan
  // trees on one machine) must not race on one blob file.
  const std::string blob_path =
      (std::filesystem::temp_directory_path() /
       ("sqp_stress_gen4_" + std::to_string(::getpid()) + ".blob"))
          .string();
  {
    const std::shared_ptr<const ModelSnapshot> full =
        BuildSnapshot(corpora.back(), snapshots.size() + 1);
    const auto compact =
        CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
    ASSERT_TRUE(SnapshotIo::Save(*compact, blob_path).ok());
    auto mapped = SnapshotIo::Map(blob_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    snapshots.push_back(std::move(mapped.value()));
  }

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(corpora.back(), 64);
  // expected[v][i]: the answer version v+1 must give for context i.
  std::vector<std::vector<Recommendation>> expected(snapshots.size());
  {
    SnapshotScratch scratch;
    for (size_t v = 0; v < snapshots.size(); ++v) {
      for (const std::vector<QueryId>& context : contexts) {
        expected[v].push_back(snapshots[v]->Recommend(context, 5, &scratch));
      }
    }
  }

  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(snapshots[0]);

  constexpr size_t kReaders = 4;
  constexpr size_t kIterations = 400;
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> queries{0};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t it = 0; it < kIterations && !done.load(); ++it) {
        const size_t i = (r * 131 + it * 17) % contexts.size();
        const ServeResult served = engine.Recommend(contexts[i], 5);
        const uint64_t version = served.served_version;
        queries.fetch_add(1);
        if (version < 1 || version > snapshots.size() ||
            !SameRecommendation(expected[version - 1][i],
                                served.recommendation)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // A batch reader: every result in a batch must come from ONE version.
  std::thread batch_reader([&] {
    const std::vector<ContextRef> refs = AsRefs(contexts);
    for (size_t it = 0; it < 60; ++it) {
      const BatchResult batch = engine.RecommendMany(refs, 5);
      const uint64_t version = batch.served_version;
      queries.fetch_add(batch.results.size());
      if (version < 1 || version > snapshots.size()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < batch.results.size(); ++i) {
        if (!SameRecommendation(expected[version - 1][i],
                                batch.results[i])) {
          mismatches.fetch_add(1);
        }
      }
    }
  });

  // The "retrainer": keep swapping generations under the readers.
  for (size_t swap = 0; swap < 150; ++swap) {
    engine.Publish(snapshots[swap % snapshots.size()]);
    std::this_thread::yield();
  }

  for (std::thread& reader : readers) reader.join();
  batch_reader.join();
  done.store(true);

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(queries.load(), kReaders * kIterations);
  EXPECT_GE(engine.stats().snapshots_published, 151u);

  // The mapped generation must have served during the rotation; drop the
  // engine's reference before removing the backing file.
  engine.Publish(snapshots[0]);
  std::error_code ec;
  std::filesystem::remove(blob_path, ec);
}

TEST(EngineStressTest, ReadersHammerWhileRealRetrainerSwaps) {
  // End-to-end variant: a live Retrainer rebuilds and publishes while
  // readers serve. Answers must come from a published generation (any
  // version >= 1) and never block on the rebuild.
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  RetrainerOptions options;
  options.model.default_max_depth = 5;
  options.vocabulary_size = kVocabularyBound;
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 48);

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      size_t it = 0;
      while (!stop.load()) {
        const ServeResult result =
            engine.Recommend(contexts[(r + it++) % contexts.size()], 5);
        served.fetch_add(1);
        // Must never see "no snapshot".
        if (result.served_version == 0) bad.fetch_add(1);
      }
    });
  }

  // Feed three slices and complete three synchronous retrain cycles while
  // the readers run.
  const auto& drifted = SharedCorpus().drifted;
  const size_t slice = drifted.size() / 3;
  for (size_t s = 0; s < 3; ++s) {
    const auto begin = drifted.begin() + static_cast<ptrdiff_t>(s * slice);
    const auto end = s == 2 ? drifted.end()
                            : drifted.begin() +
                                  static_cast<ptrdiff_t>((s + 1) * slice);
    retrainer.AppendSessions(std::vector<AggregatedSession>(begin, end));
    ASSERT_TRUE(retrainer.RetrainOnce().ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(retrainer.published_version(), 4u);
  EXPECT_EQ(engine.current_version(), 4u);
}

}  // namespace
}  // namespace sqp
