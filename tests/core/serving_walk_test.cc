// Unit suite for the walk layer: the epoch-stamped dense accumulator
// (serving::DenseAccumulator over the engine's AccumulatorStorage) and its
// generation semantics — stale generations must never leak into a new
// one, including across the uint32 epoch wraparound and when the storage
// regrows for a larger model — FinalizeModelRef's scratch sizing, and the
// Eq. 4 Gaussian. The end-to-end property (dense walk == sort-merge
// reference, bit for bit) lives in tests/serve/kernel_equivalence_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

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
  uint32_t depth_scratch[1];
  serving::FinalizeModelRef(&m, /*escape_pow_storage=*/nullptr,
                            depth_scratch);
  EXPECT_EQ(m.sizing.dense_queries, 2u);
  EXPECT_EQ(m.sizing.path_depth, 0u);
}

TEST(ServingWalkTest, PathDepthIsTheLongestChainOverEveryParent) {
  // Node 4 has two parents: node 2 at depth 2 and node 3 at depth 1. The
  // deeper parent has the smaller id, so a sweep that let the last parent
  // win would size node 4 at depth 2; the bound path is three deep.
  //   root --q1--> 1 --q2--> 2 --q4--> 4
  //   root --q3--> 3 --q4--> 4
  const uint32_t child_begin[6] = {0, 0, 1, 2, 3, 3};
  const uint32_t edge_query[3] = {2, 4, 4};
  const uint32_t edge_child[3] = {2, 4, 4};
  const uint32_t root_index[4] = {0, 1, 0, 3};
  serving::ModelRef m;
  m.child_begin = child_begin;
  m.num_nodes = 5;
  m.num_edges = 3;
  m.wide.edge_query = edge_query;
  m.wide.edge_child = edge_child;
  m.wide.root_child_by_query = root_index;
  m.wide.root_index_size = 4;
  uint32_t depth_scratch[5];
  serving::FinalizeModelRef(&m, /*escape_pow_storage=*/nullptr,
                            depth_scratch);
  EXPECT_EQ(m.sizing.path_depth, 3u);
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
