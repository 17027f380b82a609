// Incremental append must be indistinguishable from the from-scratch pass:
// identical entries (contexts, continuation counts, start counts),
// identical lookups, and identical PSTs built from the index, for any
// batch split.

#include <vector>

#include <gtest/gtest.h>

#include "core/pst.h"
#include "log/context_builder.h"
#include "util/random.h"

namespace sqp {
namespace {

std::vector<AggregatedSession> MakeSessions(uint64_t seed, size_t count,
                                            QueryId vocabulary = 40) {
  Rng rng(seed);
  std::vector<AggregatedSession> sessions;
  sessions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AggregatedSession session;
    const size_t length = 1 + static_cast<size_t>(rng.UniformInt(8));
    session.queries.reserve(length);
    for (size_t j = 0; j < length; ++j) {
      session.queries.push_back(static_cast<QueryId>(
          rng.UniformInt(vocabulary)));
    }
    session.frequency = 1 + rng.UniformInt(4);
    sessions.push_back(std::move(session));
  }
  return sessions;
}

void ExpectSameIndex(const ContextIndex& expected, const ContextIndex& actual,
                     const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(expected.size(), actual.size());
  EXPECT_EQ(expected.total_occurrences(), actual.total_occurrences());
  EXPECT_EQ(expected.mode(), actual.mode());
  EXPECT_EQ(expected.max_context_length(), actual.max_context_length());
  for (size_t i = 0; i < expected.size(); ++i) {
    const ContextEntry& e = expected.sorted_entry(i);
    const ContextEntry& a = actual.sorted_entry(i);
    ASSERT_EQ(e.context, a.context) << "entry " << i;
    EXPECT_EQ(e.total_count, a.total_count) << "entry " << i;
    EXPECT_EQ(e.start_count, a.start_count) << "entry " << i;
    ASSERT_EQ(e.nexts.size(), a.nexts.size()) << "entry " << i;
    for (size_t j = 0; j < e.nexts.size(); ++j) {
      EXPECT_EQ(e.nexts[j].query, a.nexts[j].query) << "entry " << i;
      EXPECT_EQ(e.nexts[j].count, a.nexts[j].count) << "entry " << i;
    }
    // Trie numbering may differ between batch splits; the trie walk
    // (Lookup) must nevertheless resolve every context to the same entry.
    const ContextEntry* looked = actual.Lookup(e.context);
    ASSERT_NE(looked, nullptr) << "entry " << i;
    EXPECT_EQ(looked->total_count, e.total_count) << "entry " << i;
  }
}

void ExpectSamePst(const Pst& expected, const Pst& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.view_masks().size(), actual.view_masks().size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Pst::Node& e = expected.nodes()[i];
    const Pst::Node& a = actual.nodes()[i];
    ASSERT_EQ(e.context, a.context) << "node " << i;
    EXPECT_EQ(e.parent, a.parent) << "node " << i;
    EXPECT_EQ(e.total_count, a.total_count) << "node " << i;
    EXPECT_EQ(e.start_count, a.start_count) << "node " << i;
    ASSERT_EQ(e.nexts.size(), a.nexts.size()) << "node " << i;
    for (size_t j = 0; j < e.nexts.size(); ++j) {
      EXPECT_EQ(e.nexts[j].query, a.nexts[j].query) << "node " << i;
      EXPECT_EQ(e.nexts[j].count, a.nexts[j].count) << "node " << i;
    }
    ASSERT_EQ(e.children.size(), a.children.size()) << "node " << i;
    for (size_t j = 0; j < e.children.size(); ++j) {
      EXPECT_EQ(e.children[j].query, a.children[j].query) << "node " << i;
      EXPECT_EQ(e.children[j].child, a.children[j].child) << "node " << i;
    }
  }
  for (size_t i = 0; i < expected.view_masks().size(); ++i) {
    EXPECT_EQ(expected.view_masks()[i], actual.view_masks()[i])
        << "mask " << i;
  }
}

TEST(IncrementalCountTest, AppendMatchesFromScratchBuild) {
  const std::vector<AggregatedSession> all = MakeSessions(317, 900);
  const size_t cut1 = 500;
  const size_t cut2 = 750;
  const std::vector<AggregatedSession> first(all.begin(), all.begin() + cut1);
  const std::vector<AggregatedSession> second(all.begin() + cut1,
                                              all.begin() + cut2);
  const std::vector<AggregatedSession> third(all.begin() + cut2, all.end());

  for (const ContextIndex::Mode mode :
       {ContextIndex::Mode::kPrefix, ContextIndex::Mode::kSubstring}) {
    ContextIndex reference;
    reference.Build(all, mode, /*max_context_length=*/5);

    ContextIndex incremental;
    incremental.Build(first, mode, /*max_context_length=*/5);
    incremental.Append(second);
    incremental.Append(third);
    ExpectSameIndex(reference, incremental, "sequential append");
  }

  ContextIndex empty;
  empty.Build({}, ContextIndex::Mode::kSubstring, 0);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(IncrementalCountTest, AppendExtendsLookupsAndPst) {
  const std::vector<AggregatedSession> base = MakeSessions(401, 400);
  const std::vector<AggregatedSession> extra = MakeSessions(402, 300);
  std::vector<AggregatedSession> all = base;
  all.insert(all.end(), extra.begin(), extra.end());

  ContextIndex incremental;
  incremental.Build(base, ContextIndex::Mode::kSubstring, 0);
  incremental.Append(extra);
  ContextIndex reference;
  reference.Build(all, ContextIndex::Mode::kSubstring, 0);

  const std::vector<PstOptions> views = {
      PstOptions{.epsilon = 0.05, .max_depth = 5, .min_support = 1},
  };
  Pst expected;
  ASSERT_TRUE(expected.BuildShared(reference, views).ok());
  Pst actual;
  ASSERT_TRUE(actual.BuildShared(incremental, views).ok());
  ExpectSamePst(expected, actual);
}

}  // namespace
}  // namespace sqp
