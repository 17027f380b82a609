// Unit suite for the walk layer's epoch-stamped dense accumulator
// (serving::DenseAccumulator over the engine's AccumulatorStorage): its
// generation semantics — stale generations must never leak into a new
// one, including across the uint32 epoch wraparound and when the storage
// regrows for a larger model. The end-to-end property (dense walk ==
// sparse sort-merge, bit for bit) lives in
// tests/serve/kernel_equivalence_test.cc.

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

/// FinalizeModelRef over a root-only wide-id model whose one nexts run
/// names `next_query`. Returns the dense slot count it sizes scratch for
/// (0 = the walk keeps the sort-merge).
size_t DenseSlotsFor(const std::vector<uint32_t>& next_query) {
  const uint32_t n = static_cast<uint32_t>(next_query.size());
  const uint32_t next_begin[2] = {0, n};
  const uint32_t child_begin[2] = {0, 0};
  const uint32_t total_count[1] = {1};
  const std::vector<uint16_t> codes(n, 1);
  serving::ModelRef m;
  m.next_begin = next_begin;
  m.child_begin = child_begin;
  m.total_count = total_count;
  m.next_code = codes.data();
  m.num_nodes = 1;
  m.num_entries = n;
  m.wide.next_query = next_query.data();
  uint32_t depth_scratch[1];
  serving::FinalizeModelRef(&m, /*escape_pow_storage=*/nullptr,
                            depth_scratch);
  EXPECT_EQ(m.dense_merge, m.sizing.dense_queries > 0);
  return m.sizing.dense_queries;
}

TEST(DenseAccumulatorTest, DenseOnlyWhileTheArrayIsProportionalToTheModel) {
  // Any id space up to 2^16 slots is dense, whatever the entry count.
  EXPECT_EQ(DenseSlotsFor({3, 65535}), 65536u);

  // A handful of entries naming one id near 2^24 must not size a 2^24-slot
  // array per thread: the walk keeps the sort-merge and reserves nothing.
  EXPECT_EQ(DenseSlotsFor({70000, (1u << 24) - 2}), 0u);

  // Past the floor, dense needs at least as many entries as slots.
  std::vector<uint32_t> ids(70001);
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  EXPECT_EQ(DenseSlotsFor(ids), 70001u);
  ids.back() = 70001;
  EXPECT_EQ(DenseSlotsFor(ids), 0u);
}

}  // namespace
}  // namespace sqp
