// Property suite pinning the dense-accumulator serving walk to the
// sort-merge reference (tests/core/sort_merge_reference.h): the compact
// snapshot's recommendations (scores, order, tie-breaks, covered flags)
// must be bit-identical to the push_back + sort-merge ranking — across
// synthetic corpora, narrow and wide id pools, owned and mapped storage,
// and reused scratch (the generation-reset property end to end).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../core/sort_merge_reference.h"
#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SameRecommendation;
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

const std::shared_ptr<const ModelSnapshot>& SharedFull() {
  static const auto* snapshot = new std::shared_ptr<const ModelSnapshot>(
      BuildFull(SharedCorpus().base));
  return *snapshot;
}

std::vector<std::vector<QueryId>> TestContexts() {
  std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 500);
  const std::vector<std::vector<QueryId>> drifted =
      CollectContexts(SharedCorpus().drifted, 150);
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());
  return contexts;
}

/// The sort-merge reference answers for `contexts`.
std::vector<Recommendation> SparseReference(
    std::shared_ptr<const CompactSnapshot> snapshot,
    const std::vector<std::vector<QueryId>>& contexts, size_t top_n) {
  test::SortMergeReference reference(std::move(snapshot));
  std::vector<Recommendation> out;
  out.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    out.push_back(reference.Recommend(context, top_n));
  }
  return out;
}

/// L, the blob's local next-query id count, off its META.
uint64_t LocalQueryCount(const CompactSnapshot& snapshot) {
  const std::span<const uint8_t> blob = snapshot.blob_bytes();
  serving::BlobLayout layout;
  SQP_CHECK(serving::ParseBlobLayout(blob.data(), blob.size(), &layout) ==
            serving::BlobError::kNone);
  return layout.num_next_queries;
}

/// Asserts the dense walk reproduces `reference` bit-for-bit, reusing one
/// scratch across all contexts (so a stale accumulator generation would
/// corrupt a later answer and fail).
void ExpectDenseMatchesReference(
    const CompactSnapshot& snapshot,
    const std::vector<std::vector<QueryId>>& contexts, size_t top_n,
    const std::vector<Recommendation>& reference) {
  ASSERT_EQ(snapshot.ScratchHint().dense_queries,
            LocalQueryCount(snapshot))
      << "the dense accumulator has one slot per blob-local query id";
  SnapshotScratch scratch;
  size_t mismatches = 0;
  for (size_t i = 0; i < contexts.size(); ++i) {
    const Recommendation dense =
        snapshot.Recommend(contexts[i], top_n, &scratch);
    if (!SameRecommendation(reference[i], dense)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "dense walk diverged from the sparse reference";
}

TEST(KernelEquivalenceTest, DenseWalkMatchesSparseReferenceNarrowPools) {
  // The synthetic corpus stays within 16-bit ids, so this exercises the
  // narrow (u16) pools, with truncation (top_k=10) and without.
  for (const size_t top_k : {size_t{10}, size_t{0}}) {
    const auto compact = CompactSnapshot::FromSnapshot(
        *SharedFull(), CompactOptions{.top_k = top_k});
    const std::vector<std::vector<QueryId>> contexts = TestContexts();
    for (const size_t top_n : {size_t{1}, size_t{10}}) {
      const std::vector<Recommendation> reference =
          SparseReference(compact, contexts, top_n);
      ExpectDenseMatchesReference(*compact, contexts, top_n,
                                              reference);
    }
  }
}

TEST(KernelEquivalenceTest, DenseWalkMatchesFullModelBitExactly) {
  // Transitivity check against the original serving arithmetic: with
  // unbounded K and 16-bit-exact counts the compact walk reproduces the
  // full ModelSnapshot bit-for-bit — and therefore so must the dense walk.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 0});
  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  SnapshotScratch scratch;
  std::vector<Recommendation> reference;
  reference.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    reference.push_back(SharedFull()->Recommend(context, 10, &scratch));
  }
  ExpectDenseMatchesReference(*compact, contexts, 10, reference);
}

TEST(KernelEquivalenceTest, DenseWalkMatchesSparseReferenceWidePools) {
  // Query id 65535 forces the wide (u32) pools; the dense accumulator
  // still has only L slots, one per distinct next query. (tests/slim
  // covers a table naming an id near 2^24.)
  const QueryId base = 65531;
  const std::vector<AggregatedSession> sessions = {
      {{base, base + 1, base + 2}, 5},
      {{base + 1, base + 3}, 3},
      {{base, base + 1, base + 3}, 2},
      {{base + 2, base + 1, base + 2}, 4},
      {{base + 1, base + 2, base + 4}, 6},
      {{base + 3, base, base + 1}, 1}};
  const auto full = BuildFull(sessions, /*version=*/7);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});
  std::vector<std::vector<QueryId>> contexts;
  for (const AggregatedSession& session : sessions) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      contexts.emplace_back(session.queries.begin(),
                            session.queries.begin() +
                                static_cast<ptrdiff_t>(len));
    }
  }
  const std::vector<Recommendation> reference =
      SparseReference(compact, contexts, 5);
  ExpectDenseMatchesReference(*compact, contexts, 5, reference);
}

TEST(KernelEquivalenceTest, MappedSnapshotServesDenseWalkIdentically) {
  // The zero-copy replica runs the same dense walk off mapped storage;
  // its bind-time derivations (BindBlob) must land it on the same
  // answers as the owned snapshot.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sqp_kernel_equiv_" + std::to_string(::getpid()) + ".blob"))
          .string();
  ASSERT_TRUE(SnapshotIo::Save(*compact, path).ok());
  const auto mapped = SnapshotIo::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  const std::vector<Recommendation> reference =
      SparseReference(*mapped, contexts, 10);
  ExpectDenseMatchesReference(**mapped, contexts, 10, reference);
  ExpectDenseMatchesReference(*compact, contexts, 10, reference);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(KernelEquivalenceTest, ReusedScratchNeverLeaksAcrossRequests) {
  // Serve the same context list twice through one scratch, interleaved
  // with unrelated contexts, and require answer stability — a stale
  // accumulator generation or un-reset touched list would break this.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  SnapshotScratch reused;
  std::vector<Recommendation> first;
  first.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    first.push_back(compact->Recommend(context, 10, &reused));
  }
  size_t mismatches = 0;
  for (size_t i = contexts.size(); i-- > 0;) {  // reversed: different
    const Recommendation again =                // interleaving of slots
        compact->Recommend(contexts[i], 10, &reused);
    if (!SameRecommendation(first[i], again)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sqp
