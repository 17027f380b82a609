// Concurrency stress for the sharded serving layer: reader threads hammer
// cross-shard Recommend / RecommendMany batches while ONE shard is
// hot-swapped between generations (full -> compact -> full) underneath
// them. Contexts owned by untouched shards must answer bit-identically
// throughout; contexts owned by the swapped shard must always match one
// of its fully-published generations. Runs under ThreadSanitizer in CI
// (the SQP_TSAN build) with the rest of sqp_serve_tests.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compact_snapshot.h"
#include "serve/sharded_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;
constexpr uint32_t kShards = 4;

TEST(ShardedStressTest, SwappingOneShardNeverDisturbsCrossShardBatches) {
  // Generation 1: the fleet trained on the base corpus. Generation 2 (for
  // the swapped shard only): trained on base + drifted under the same
  // pinned global sigmas, published alternately as the full snapshot and
  // its compact re-pack.
  ShardedTrainOptions train;
  train.model.default_max_depth = 5;
  train.num_shards = kShards;
  train.vocabulary_size = kVocabularyBound;
  auto gen1 = TrainShardedSnapshots(SharedCorpus().base, train);
  ASSERT_TRUE(gen1.ok());

  std::vector<AggregatedSession> grown = SharedCorpus().base;
  grown.insert(grown.end(), SharedCorpus().drifted.begin(),
               SharedCorpus().drifted.end());
  train.model.fixed_sigmas = gen1->sigmas;
  train.version = 2;
  auto gen2 = TrainShardedSnapshots(grown, train);
  ASSERT_TRUE(gen2.ok());

  constexpr uint32_t kSwapShard = 1;
  const std::shared_ptr<const ServingSnapshot> swap_variants[2] = {
      gen2->shards[kSwapShard],
      CompactSnapshot::FromSnapshot(*gen2->shards[kSwapShard],
                                    CompactOptions{.top_k = 8})};

  ShardedEngine engine(
      ShardedEngineOptions{.num_shards = kShards, .num_threads = 2});
  for (size_t s = 0; s < kShards; ++s) {
    engine.shard(s)->Publish(gen1->shards[s]);
  }

  // Contexts from both periods; precompute the acceptable answers: the
  // stable generation for unswapped shards, both generations (and both
  // variants) for the swapped one.
  std::vector<std::vector<QueryId>> contexts = CollectContexts(grown, 96);
  struct Expected {
    uint32_t shard = 0;
    Recommendation stable;              // unswapped shards
    std::vector<Recommendation> valid;  // swapped shard: any of these
  };
  std::vector<Expected> expected(contexts.size());
  {
    SnapshotScratch scratch;
    for (size_t i = 0; i < contexts.size(); ++i) {
      expected[i].shard = engine.OwningShard(contexts[i]);
      if (expected[i].shard == kSwapShard) {
        expected[i].valid.push_back(
            gen1->shards[kSwapShard]->Recommend(contexts[i], 5, &scratch));
        for (const auto& variant : swap_variants) {
          expected[i].valid.push_back(
              variant->Recommend(contexts[i], 5, &scratch));
        }
      } else {
        expected[i].stable = gen1->shards[expected[i].shard]->Recommend(
            contexts[i], 5, &scratch);
      }
    }
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> served{0};
  std::atomic<bool> done{false};

  const auto check = [&](size_t i, const Recommendation& rec) {
    if (expected[i].shard != kSwapShard) {
      if (!SameRecommendation(expected[i].stable, rec)) {
        mismatches.fetch_add(1);
      }
      return;
    }
    for (const Recommendation& valid : expected[i].valid) {
      if (SameRecommendation(valid, rec)) return;
    }
    mismatches.fetch_add(1);
  };

  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (size_t it = 0; it < 300 && !done.load(); ++it) {
        const size_t i = (r * 131 + it * 17) % contexts.size();
        check(i, engine.Recommend(contexts[i], 5).recommendation);
        served.fetch_add(1);
      }
    });
  }
  std::thread batch_reader([&] {
    const std::vector<ContextRef> refs = AsRefs(contexts);
    for (size_t it = 0; it < 80; ++it) {
      const std::vector<Recommendation> batch =
          engine.RecommendMany(refs, 5).results;
      for (size_t i = 0; i < batch.size(); ++i) check(i, batch[i]);
      served.fetch_add(batch.size());
    }
  });

  // The swapper: hot-swap the one shard between generations/variants
  // while everything above reads.
  for (size_t swap = 0; swap < 200; ++swap) {
    if (swap % 3 == 0) {
      engine.shard(kSwapShard)->Publish(gen1->shards[kSwapShard]);
    } else {
      engine.shard(kSwapShard)->Publish(swap_variants[swap % 2]);
    }
    std::this_thread::yield();
  }

  for (std::thread& reader : readers) reader.join();
  batch_reader.join();
  done.store(true);

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_GE(engine.shard(kSwapShard)->stats().snapshots_published, 201u);
}

}  // namespace
}  // namespace sqp
