// Unit suite for the walk layer: the epoch-stamped dense accumulator
// (serving::DenseAccumulator over the engine's AccumulatorStorage) and its
// generation semantics — stale generations must never leak into a new
// one, including across the uint32 epoch wraparound and when the storage
// regrows for a larger model — FinalizeModelRef's scratch sizing, the
// constant escape-power table, and the Eq. 4 Gaussian. The end-to-end
// property (dense walk == sort-merge reference, bit for bit) lives in
// tests/serve/kernel_equivalence_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "core/blob_format.h"
#include "core/model_snapshot.h"
#include "core/serving_walk.h"

namespace sqp {
namespace {

using serving::DenseAccumulator;

/// The touched list of a view, as a vector (first-touch order).
std::vector<uint32_t> TouchedOf(const DenseAccumulator& acc) {
  return std::vector<uint32_t>(acc.touched, acc.touched + acc.touched_count);
}

TEST(DenseAccumulatorTest, FirstTouchAssignsLaterTouchesAccumulate) {
  AccumulatorStorage storage;
  DenseAccumulator acc = storage.BeginGeneration(8);
  acc.Add(3, 1.5);
  acc.Add(5, 2.0);
  acc.Add(3, 0.25);
  EXPECT_EQ(acc.score[3], 1.75);
  EXPECT_EQ(acc.score[5], 2.0);
  EXPECT_EQ(TouchedOf(acc), (std::vector<uint32_t>{3, 5}));
}

TEST(DenseAccumulatorTest, NewGenerationNeverLeaksStaleScores) {
  // The regression this scheme must never reintroduce: a slot written in
  // generation N must read as empty in generation N+1 — the first Add of
  // the new generation assigns, it must not accumulate onto the stale
  // value. The epoch lives in the storage, so the guarantee holds across
  // per-request views.
  AccumulatorStorage storage;
  DenseAccumulator acc = storage.BeginGeneration(8);
  acc.Add(3, 100.0);
  acc.Add(6, 7.0);
  acc = storage.BeginGeneration(8);
  EXPECT_EQ(acc.touched_count, 0u);
  acc.Add(3, 0.5);
  EXPECT_EQ(acc.score[3], 0.5) << "stale generation leaked into the sum";
  EXPECT_EQ(TouchedOf(acc), (std::vector<uint32_t>{3}))
      << "slot 6 belongs to the old generation";
}

TEST(DenseAccumulatorTest, EpochWraparoundPaysTheExactReset) {
  AccumulatorStorage storage;
  DenseAccumulator acc = storage.BeginGeneration(4);
  acc.Add(1, 5.0);
  // Simulate a slot last touched ~2^32 generations ago whose stamp would
  // alias the post-wrap epoch value (1) if BeginGeneration skipped the
  // exact reset.
  storage.stamp[2] = 1;
  storage.epoch = std::numeric_limits<uint32_t>::max();
  acc = storage.BeginGeneration(4);
  EXPECT_EQ(acc.epoch, 1u);
  EXPECT_EQ(storage.epoch, 1u) << "wrapped epoch must persist in storage";
  acc.Add(2, 0.75);
  EXPECT_EQ(acc.score[2], 0.75) << "aliased stamp survived the wraparound";
  EXPECT_EQ(TouchedOf(acc), (std::vector<uint32_t>{2}));
}

TEST(DenseAccumulatorTest, LargerBoundRegrowsWithoutStaleLeaks) {
  AccumulatorStorage storage;
  DenseAccumulator acc = storage.BeginGeneration(4);
  acc.Add(2, 3.0);
  // Next request against a bigger model: the storage grows and the new
  // view starts a clean generation — grown slots stamp as never-touched,
  // old slots must not leak their previous-generation scores.
  acc = storage.BeginGeneration(16);
  EXPECT_GE(acc.capacity, 16u);
  acc.Add(12, 1.0);
  acc.Add(2, 0.25);
  EXPECT_EQ(acc.score[12], 1.0);
  EXPECT_EQ(acc.score[2], 0.25) << "stale score from the smaller generation";
  EXPECT_EQ(TouchedOf(acc), (std::vector<uint32_t>{12, 2}));
}

TEST(DenseAccumulatorTest, DenseSlotsAreTheLocalIdCountWhateverTheGlobalIds) {
  // A root-only wide-id model whose one nexts run names two queries, one
  // near 2^24: the accumulator has one slot per local id, not per global
  // id, so it stays two slots wide.
  const uint32_t next_begin[2] = {0, 2};
  const uint32_t child_begin[2] = {0, 0};
  const uint32_t next_query[2] = {0, 1};
  const uint32_t next_global[2] = {70000, (1u << 24) - 2};
  serving::ModelRef m;
  m.next_begin = next_begin;
  m.child_begin = child_begin;
  m.num_nodes = 1;
  m.num_entries = 2;
  m.num_next_queries = 2;
  m.wide.next_query = next_query;
  m.wide.next_global = next_global;
  serving::FinalizeModelRef(&m);
  EXPECT_EQ(m.sizing.dense_queries, 2u);
  EXPECT_EQ(m.sizing.path_depth, 0u);
}

/// A wide-id model over `child_begin` (num_nodes + 1 offsets) with no
/// nexts: edge e carries query 100 + e, so every run is ascending.
struct TreeLayout {
  std::vector<uint32_t> child_begin;
  std::vector<uint32_t> root_index;
  std::vector<uint32_t> edge_query;
  std::vector<uint32_t> next_begin;
  uint32_t no_ids[1] = {0};
  uint16_t no_codes[1] = {0};
  serving::ModelRef m;  // points into the members above

  TreeLayout(const TreeLayout&) = delete;
  TreeLayout& operator=(const TreeLayout&) = delete;
  TreeLayout(std::vector<uint32_t> offsets, std::vector<uint32_t> roots)
      : child_begin(std::move(offsets)), root_index(std::move(roots)) {
    const size_t num_nodes = child_begin.size() - 1;
    for (uint32_t e = 0; e < child_begin.back(); ++e) {
      edge_query.push_back(100 + e);
    }
    next_begin.assign(num_nodes + 1, 0);
    m.next_begin = next_begin.data();
    m.child_begin = child_begin.data();
    m.next_code = no_codes;
    m.num_nodes = num_nodes;
    m.num_edges = child_begin.back();
    m.wide.next_query = no_ids;
    m.wide.next_global = no_ids;
    m.wide.edge_query = edge_query.data();
    m.wide.root_child_by_query = root_index.data();
    m.wide.root_index_size = root_index.size();
  }

  /// The deepest chain from a root-index id, through computed children.
  size_t LongestChain() const {
    const size_t base = m.num_nodes - m.num_edges;
    std::vector<size_t> depth(m.num_nodes, 0);
    size_t longest = 0;
    for (uint32_t node : root_index) {
      if (node != 0) depth[node] = 1;
    }
    // Validated children come after their node, so one ascending pass
    // settles every depth.
    for (size_t node = 1; node < m.num_nodes; ++node) {
      if (depth[node] == 0) continue;
      longest = std::max(longest, depth[node]);
      for (uint32_t e = child_begin[node]; e < child_begin[node + 1]; ++e) {
        depth[base + e] = depth[node] + 1;
      }
    }
    return longest;
  }
};

TEST(ServingWalkTest, PathDepthIsTheLevelCountOfABreadthFirstTree) {
  //   root --q1--> 1 --q100--> 3 --q103--> 6
  //                  --q101--> 4
  //   root --q3--> 2 --q102--> 5
  // base = 3, so edge e leads to node 3 + e.
  TreeLayout tree({0, 0, 2, 3, 4, 4, 4, 4}, {0, 1, 0, 2});
  ASSERT_EQ(serving::ValidateBlobStructure(tree.m, tree.m.wide),
            serving::BlobError::kNone);
  serving::FinalizeModelRef(&tree.m);
  EXPECT_EQ(tree.m.sizing.path_depth, 3u);
  EXPECT_EQ(tree.LongestChain(), 3u);

  // The descent follows the computed ids: context (oldest first)
  // q103 q100 q1 matches 1 -> 3 -> 6.
  const uint32_t context[3] = {103, 100, 1};
  int32_t path[3] = {};
  ASSERT_EQ(serving::MatchPath(tree.m, context, 3, path, 3), 3u);
  EXPECT_EQ(path[0], 1);
  EXPECT_EQ(path[1], 3);
  EXPECT_EQ(path[2], 6);
  const uint32_t other[2] = {102, 3};
  ASSERT_EQ(serving::MatchPath(tree.m, other, 2, path, 3), 2u);
  EXPECT_EQ(path[1], 5);
}

TEST(ServingWalkTest, PathDepthBoundsEveryChainOfAValidatedLayout) {
  // Random CSR layouts, most of them not breadth-first trees: whatever
  // passes ValidateBlobStructure must get a level count no smaller than
  // its longest chain, or the walk would cut a match short.
  std::mt19937 rng(31);
  size_t validated = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t num_nodes = 1 + rng() % 12;
    const uint32_t num_edges = static_cast<uint32_t>(rng() % num_nodes);
    std::vector<uint32_t> offsets(num_nodes + 1, 0);
    for (size_t i = 2; i < num_nodes; ++i) {
      offsets[i] = std::min<uint32_t>(
          num_edges, offsets[i - 1] + static_cast<uint32_t>(rng() % 3));
    }
    offsets[num_nodes] = num_edges;
    std::vector<uint32_t> roots(rng() % 5);
    for (uint32_t& node : roots) {
      node = static_cast<uint32_t>(rng() % num_nodes);
    }
    TreeLayout tree(offsets, roots);
    if (serving::ValidateBlobStructure(tree.m, tree.m.wide) !=
        serving::BlobError::kNone) {
      continue;
    }
    ++validated;
    serving::FinalizeModelRef(&tree.m);
    EXPECT_GE(tree.m.sizing.path_depth, tree.LongestChain())
        << "trial " << trial;
  }
  EXPECT_GT(validated, 100u);
}

TEST(EscapePowTest, TableIsTheRuntimeChainBitForBit) {
  // The compile-time table must hold exactly what a run-time multiply
  // chain gives; a volatile base keeps the compiler from folding the chain.
  volatile double base = serving::kEscape;
  double chain = 1.0;
  for (size_t j = 0; j <= serving::kEscapePowCap; ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>(serving::kEscapePow.value[j]),
              std::bit_cast<uint64_t>(chain))
        << "power " << j;
    chain *= base;
  }
}

TEST(EscapePowTest, EscapeWeightIsEscapeMassPastTheCap) {
  // Node 1 is a real state with observed session starts (Eq. 6 ratio);
  // the root takes the constant escape. Past kEscapePowCap the walk
  // extends the table, and must still equal the full model's EscapeMass.
  const uint32_t total_count[2] = {0, 7};
  const uint32_t start_count[2] = {0, 3};
  serving::ModelRef m;
  m.total_count = total_count;
  m.start_count = start_count;
  m.num_nodes = 2;
  Pst::Node root;
  Pst::Node state;
  state.total_count = 7;
  state.start_count = 3;
  state.parent = 0;
  const size_t cap = serving::kEscapePowCap;
  for (const size_t dropped : {size_t{1}, size_t{2}, cap, cap + 1, cap + 2,
                               cap + 3, 3 * cap}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(serving::EscapeWeight(m, 1, dropped)),
              std::bit_cast<uint64_t>(internal::EscapeMass(state, dropped)))
        << "state, dropped " << dropped;
    EXPECT_EQ(std::bit_cast<uint64_t>(serving::EscapeWeight(m, 0, dropped)),
              std::bit_cast<uint64_t>(internal::EscapeMass(root, dropped)))
        << "root, dropped " << dropped;
  }
}

TEST(GaussianPdfTest, PeakAtZero) {
  using serving::GaussianPdf;
  EXPECT_NEAR(GaussianPdf(0.0, 1.0), 0.3989422804014327, 1e-12);
  EXPECT_GT(GaussianPdf(0.0, 1.0), GaussianPdf(1.0, 1.0));
}

TEST(GaussianPdfTest, WiderSigmaFlatter) {
  using serving::GaussianPdf;
  EXPECT_GT(GaussianPdf(3.0, 3.0), GaussianPdf(3.0, 0.5));
  EXPECT_LT(GaussianPdf(0.0, 3.0), GaussianPdf(0.0, 0.5));
}

}  // namespace
}  // namespace sqp
