// Equivalence suite for the compact serving snapshot: the CSR/top-K/16-bit
// re-pack must preserve the served rankings (top-N identical to the full
// ModelSnapshot for N <= K), track full-precision scores tightly, shrink
// the footprint by a large factor, and be what the engine and the
// retrainer publish.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve_test_util.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

std::shared_ptr<const ModelSnapshot> BuildFull(
    const std::vector<AggregatedSession>& sessions, uint64_t version = 1) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

/// The per-binary full snapshot over the base corpus.
const std::shared_ptr<const ModelSnapshot>& SharedFull() {
  static const auto* snapshot = new std::shared_ptr<const ModelSnapshot>(
      BuildFull(SharedCorpus().base));
  return *snapshot;
}

/// Mixed covered/uncovered contexts: base prefixes plus drifted prefixes.
std::vector<std::vector<QueryId>> TestContexts() {
  std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 600);
  const std::vector<std::vector<QueryId>> drifted =
      CollectContexts(SharedCorpus().drifted, 200);
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());
  return contexts;
}

TEST(CompactSnapshotTest, TopKTruncationPreservesTopNForNUpToK) {
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  SnapshotScratch scratch;
  size_t covered = 0;
  for (const std::vector<QueryId>& context : TestContexts()) {
    for (const size_t n : {size_t{1}, size_t{5}, size_t{10}}) {
      const Recommendation full = SharedFull()->Recommend(context, n, &scratch);
      const Recommendation packed = compact->Recommend(context, n, &scratch);
      ASSERT_EQ(full.covered, packed.covered);
      ASSERT_EQ(full.matched_length, packed.matched_length);
      ASSERT_EQ(full.queries.size(), packed.queries.size());
      for (size_t i = 0; i < full.queries.size(); ++i) {
        EXPECT_EQ(full.queries[i].query, packed.queries[i].query)
            << "rank " << i << " at top-" << n;
      }
      covered += full.covered ? 1 : 0;
    }
  }
  EXPECT_GT(covered, 0u);
}

TEST(CompactSnapshotTest, EveryNodeContextServesTheFullTopKExactly) {
  // The aggregate closure pins the full model's top-K at every node's own
  // context. The pack computes it only along chains that hold a truncated
  // node (more than top_k nexts): elsewhere nothing can be left out. At
  // top_k = 4 this corpus has both kinds of chain, so every node context —
  // under a truncated ancestor or not — must serve the full top-K list,
  // ids and score bits (every count here fits 16 bits).
  constexpr size_t kTopK = 4;
  const ModelSnapshot& full = *SharedFull();
  const auto compact =
      CompactSnapshot::FromSnapshot(full, CompactOptions{.top_k = kTopK});
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  std::vector<uint8_t> chain_truncated(nodes.size(), 0);
  size_t truncated_chains = 0;
  size_t untruncated_chains = 0;
  SnapshotScratch scratch;
  for (size_t id = 1; id < nodes.size(); ++id) {
    chain_truncated[id] =
        nodes[id].nexts.size() > kTopK ||
        chain_truncated[static_cast<size_t>(nodes[id].parent)];
    ++(chain_truncated[id] ? truncated_chains : untruncated_chains);
    const Recommendation want =
        full.Recommend(nodes[id].context, kTopK, &scratch);
    const Recommendation got =
        compact->Recommend(nodes[id].context, kTopK, &scratch);
    ASSERT_EQ(want.covered, got.covered) << "node " << id;
    ASSERT_EQ(want.queries.size(), got.queries.size()) << "node " << id;
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query)
          << "node " << id << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(want.queries[i].score),
                std::bit_cast<uint64_t>(got.queries[i].score))
          << "node " << id << " rank " << i;
    }
  }
  EXPECT_GT(truncated_chains, 0u);
  EXPECT_GT(untruncated_chains, 0u);
}

/// Every node's kept next queries, read back out of the blob's sections.
std::vector<std::set<QueryId>> KeptQueries(const CompactSnapshot& compact) {
  const std::span<const uint8_t> blob = compact.blob_bytes();
  serving::BlobLayout layout;
  SQP_CHECK(serving::ParseBlobLayout(blob.data(), blob.size(), &layout) ==
            serving::BlobError::kNone);
  const uint8_t* next_begin =
      blob.data() + layout.sections[serving::kSecNextBegin].offset;
  const uint8_t* pool =
      blob.data() + layout.sections[serving::kSecNextQuery].offset;
  const uint8_t* global =
      blob.data() + layout.sections[serving::kSecNextGlobal].offset;
  // The pool holds blob-local ids; the table maps them to global ids.
  const auto load = [&layout](const uint8_t* ids, size_t i) -> QueryId {
    return layout.narrow_ids ? LoadLE16(ids + 2 * i) : LoadLE32(ids + 4 * i);
  };
  std::vector<std::set<QueryId>> kept(layout.num_nodes);
  for (size_t id = 0; id < layout.num_nodes; ++id) {
    for (uint32_t e = LoadLE32(next_begin + 4 * id);
         e < LoadLE32(next_begin + 4 * (id + 1)); ++e) {
      kept[id].insert(load(global, load(pool, e)));
    }
  }
  return kept;
}

TEST(CompactSnapshotTest, TruncatingPackKeepsExactlyTheClosure) {
  // The pack runs the closures only where a truncated node can be
  // touched. It must keep exactly what the closures give when computed
  // everywhere: (a) each node's top-K, (b) the full top-K at every node's
  // context pinned at every level of its chain that lists it, and (c) the
  // ancestor closure.
  const ModelSnapshot& full = *SharedFull();
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  for (const size_t top_k : {size_t{2}, size_t{4}, size_t{10}}) {
    std::vector<std::set<QueryId>> want(nodes.size());
    const auto lists = [&](size_t node, QueryId query) {
      for (const NextQueryCount& nc : nodes[node].nexts) {
        if (nc.query == query) return true;
      }
      return false;
    };
    SnapshotScratch scratch;
    for (size_t id = 1; id < nodes.size(); ++id) {
      for (size_t i = 0; i < std::min(top_k, nodes[id].nexts.size()); ++i) {
        want[id].insert(nodes[id].nexts[i].query);
      }
      const Recommendation rec =
          full.Recommend(nodes[id].context, top_k, &scratch);
      for (const ScoredQuery& sq : rec.queries) {
        for (int32_t a = static_cast<int32_t>(id); a > 0;
             a = nodes[static_cast<size_t>(a)].parent) {
          if (lists(static_cast<size_t>(a), sq.query)) {
            want[static_cast<size_t>(a)].insert(sq.query);
          }
        }
      }
    }
    for (size_t id = nodes.size(); id-- > 1;) {
      const int32_t parent = nodes[id].parent;
      if (parent <= 0) continue;
      for (const QueryId query : want[id]) {
        if (lists(static_cast<size_t>(parent), query)) {
          want[static_cast<size_t>(parent)].insert(query);
        }
      }
    }

    const std::vector<std::set<QueryId>> kept = KeptQueries(
        *CompactSnapshot::FromSnapshot(full, CompactOptions{.top_k = top_k}));
    ASSERT_EQ(kept.size(), nodes.size());
    for (size_t id = 0; id < nodes.size(); ++id) {
      EXPECT_EQ(kept[id], want[id]) << "node " << id << " top_k " << top_k;
    }
  }
}

TEST(CompactSnapshotTest, QuantizedServingIsBitExactWhenCountsFit16Bits) {
  // Unbounded K isolates quantization from truncation. Every count on this
  // corpus fits 16 bits, so dequantization is exact and the compact ranking
  // arithmetic must reproduce the full snapshot bit-for-bit — scores,
  // order, tie-breaks, everything.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 0});
  SnapshotScratch scratch;
  size_t compared = 0;
  for (const std::vector<QueryId>& context : TestContexts()) {
    serve_test::ExpectSameRecommendation(
        SharedFull()->Recommend(context, 10, &scratch),
        compact->Recommend(context, 10, &scratch));
    ++compared;
  }
  EXPECT_GT(compared, 100u);
}

TEST(CompactSnapshotTest, WideIdPoolsAndWideMasksServeIdentically) {
  // Query ids beyond 16 bits force the wide id pools, and more than 16
  // components force the 64-bit mask array — the branches the synthetic
  // corpora never reach. Both must serve bit-identically to the full
  // snapshot (all counts fit 16 bits, so the shift is 0).
  const QueryId base = 70000;  // > 65535
  const std::vector<AggregatedSession> sessions = {
      {{base, base + 1, base + 2}, 5},
      {{base + 1, base + 3}, 3},
      {{base, base + 1, base + 3}, 2},
      {{base + 2, base + 1, base + 2}, 4},
      {{base + 3, base, base + 1}, 1}};
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  for (size_t depth = 1; depth <= 3; ++depth) {
    for (double epsilon : {0.0, 0.01, 0.02, 0.03, 0.04, 0.05}) {
      VmmOptions vmm;
      vmm.epsilon = epsilon;
      vmm.max_depth = depth;
      options.components.push_back(vmm);
    }
  }
  ASSERT_GT(options.components.size(), 16u);  // 18 components -> mask64
  const auto full = ModelSnapshot::Build(data, options, 7).value();
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});

  SnapshotScratch scratch;
  const std::vector<std::vector<QueryId>> contexts = {
      {base},
      {base, base + 1},
      {base + 2, base + 1},
      {base + 3, base, base + 1},
      {base + 500},  // unseen id inside the root index range or beyond
      {base + 1, base + 2}};
  for (const std::vector<QueryId>& context : contexts) {
    serve_test::ExpectSameRecommendation(
        full->Recommend(context, 5, &scratch),
        compact->Recommend(context, 5, &scratch));
    EXPECT_EQ(full->Covers(context), compact->Covers(context));
  }
  EXPECT_EQ(compact->version(), 7u);
}

TEST(CompactSnapshotTest, BlockShiftHandlesCountsBeyond16Bits) {
  // Counts above 65535 force a per-node block shift; ranking order must
  // survive and dequantized probabilities stay within one code step.
  const std::vector<AggregatedSession> sessions = {
      {{1, 2}, 200001}, {{1, 3}, 70003}, {{1, 4}, 5}, {{1, 5}, 1}};
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = 64;
  MvmmOptions options;
  options.default_max_depth = 3;
  const auto full = ModelSnapshot::Build(data, options, 1).value();
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});

  SnapshotScratch scratch;
  const std::vector<QueryId> context = {1};
  const Recommendation exact = full->Recommend(context, 4, &scratch);
  const Recommendation packed = compact->Recommend(context, 4, &scratch);
  ASSERT_EQ(exact.queries.size(), packed.queries.size());
  for (size_t i = 0; i < exact.queries.size(); ++i) {
    EXPECT_EQ(exact.queries[i].query, packed.queries[i].query) << "rank " << i;
    // One code step of the shifted scale, relative to the node total.
    EXPECT_NEAR(packed.queries[i].score, exact.queries[i].score,
                exact.queries[i].score * (1.0 / 65535.0) + 1e-4);
  }
}

TEST(CompactSnapshotTest, CoversMatchesFullSnapshot) {
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 8});
  for (const std::vector<QueryId>& context : TestContexts()) {
    EXPECT_EQ(SharedFull()->Covers(context), compact->Covers(context));
  }
  EXPECT_FALSE(compact->Covers({}));
}

TEST(CompactSnapshotTest, FootprintShrinksSeveralFold) {
  const auto compact = CompactSnapshot::FromSnapshot(
      *SharedFull(), CompactOptions{.top_k = 10});
  const ModelStats full = SharedFull()->Stats();
  const ModelStats packed = compact->Stats();
  EXPECT_EQ(packed.num_states, full.num_states);
  EXPECT_LE(packed.num_entries, full.num_entries);
  // The acceptance bar on the (larger) default bench corpus is >= 4x; the
  // small test corpus must already clear it comfortably.
  EXPECT_GE(static_cast<double>(full.memory_bytes),
            4.0 * static_cast<double>(packed.memory_bytes))
      << "full " << full.memory_bytes << "B vs compact "
      << packed.memory_bytes << "B";
  // Version and metadata carry over.
  EXPECT_EQ(compact->version(), SharedFull()->version());
  EXPECT_EQ(compact->sigmas(), SharedFull()->sigmas());
}

TEST(CompactSnapshotTest, UnboundedKKeepsEveryServedEntry) {
  // top_k = 0 keeps every entry serving can read: everything except the
  // root's prior distribution (ranking levels are non-root path nodes).
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 0});
  EXPECT_EQ(compact->num_entries(),
            SharedFull()->Stats().num_entries -
                SharedFull()->pst()->root().nexts.size());
}

TEST(CompactSnapshotTest, EnginePublishingAModelServesItsDefaultPack) {
  // Publish(model) packs at the default layout: the engine holds exactly
  // the blob FromSnapshot writes and answers as that blob does.
  const auto packed = CompactSnapshot::FromSnapshot(*SharedFull());
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(SharedFull());
  ASSERT_NE(engine.CurrentSnapshot(), nullptr);
  EXPECT_TRUE(std::ranges::equal(engine.CurrentSnapshot()->blob_bytes(),
                                 packed->blob_bytes()));
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 32);
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : contexts) {
    serve_test::ExpectSameRecommendation(
        packed->Recommend(context, 5, &scratch),
        engine.Recommend(context, 5).recommendation);
  }

  // A hot swap to another layout: readers follow the new blob.
  const auto top10 =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  engine.Publish(top10);
  EXPECT_EQ(engine.CurrentSnapshot().get(), top10.get());
  for (const std::vector<QueryId>& context : contexts) {
    serve_test::ExpectSameRecommendation(
        top10->Recommend(context, 5, &scratch),
        engine.Recommend(context, 5).recommendation);
  }
}

TEST(CompactSnapshotTest, RetrainerPublishesCompactRebuilds) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options;
  options.model.default_max_depth = 5;
  options.vocabulary_size = kVocabularyBound;
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  // The published serving state is the default pack of the bootstrap
  // model, and it keeps the full reference's top-5 lists (N <= top_k).
  const std::shared_ptr<const CompactSnapshot> published =
      engine.CurrentSnapshot();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->version(), 1u);
  EXPECT_TRUE(std::ranges::equal(
      published->blob_bytes(),
      CompactSnapshot::FromSnapshot(*SharedFull())->blob_bytes()));
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 64)) {
    const Recommendation full =
        SharedFull()->Recommend(context, 5, &scratch);
    const Recommendation served = engine.Recommend(context, 5).recommendation;
    serve_test::ExpectSameRecommendation(
        published->Recommend(context, 5, &scratch), served);
    ASSERT_EQ(full.covered, served.covered);
    ASSERT_EQ(full.queries.size(), served.queries.size());
    for (size_t i = 0; i < full.queries.size(); ++i) {
      EXPECT_EQ(full.queries[i].query, served.queries[i].query);
    }
  }

  // A retrain cycle publishes the next generation's pack.
  retrainer.AppendSessions(SharedCorpus().drifted);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  EXPECT_EQ(engine.current_version(), 2u);
  EXPECT_NE(engine.CurrentSnapshot().get(), published.get());
}

}  // namespace
}  // namespace sqp
