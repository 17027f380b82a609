#include "log/context_builder.h"

#include <gtest/gtest.h>

namespace sqp {
namespace {

constexpr QueryId kQ0 = 0;
constexpr QueryId kQ1 = 1;

/// The paper's Table II training data (used for the PST worked example).
std::vector<AggregatedSession> TableIISessions() {
  return {
      {{kQ1, kQ0, kQ0}, 3}, {{kQ1, kQ0, kQ1}, 7}, {{kQ0, kQ0}, 78},
      {{kQ1, kQ0}, 5},      {{kQ0, kQ1, kQ0}, 1}, {{kQ0, kQ1, kQ1}, 1},
      {{kQ1, kQ1}, 3},      {{kQ0}, 10},
  };
}

uint64_t CountFor(const ContextEntry* entry, QueryId next) {
  for (const NextQueryCount& nc : entry->nexts) {
    if (nc.query == next) return nc.count;
  }
  return 0;
}

TEST(ContextIndexSubstringTest, TableIILengthOneCounts) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);

  // P(q0|q0) = 81/90 = 0.9 and P(q1|q0) = 9/90 = 0.1 in the paper.
  const ContextEntry* q0 = index.Lookup(std::vector<QueryId>{kQ0});
  ASSERT_NE(q0, nullptr);
  EXPECT_EQ(CountFor(q0, kQ0), 81u);
  EXPECT_EQ(CountFor(q0, kQ1), 9u);
  EXPECT_EQ(q0->total_count, 90u);

  // P(q0|q1) = 16/20 = 0.8 and P(q1|q1) = 4/20 = 0.2 in the paper.
  const ContextEntry* q1 = index.Lookup(std::vector<QueryId>{kQ1});
  ASSERT_NE(q1, nullptr);
  EXPECT_EQ(CountFor(q1, kQ0), 16u);
  EXPECT_EQ(CountFor(q1, kQ1), 4u);
  EXPECT_EQ(q1->total_count, 20u);
}

TEST(ContextIndexSubstringTest, TableIILengthTwoCounts) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);

  // P(q0|[q1,q0]) = 3/10 in the paper.
  const ContextEntry* q1q0 = index.Lookup(std::vector<QueryId>{kQ1, kQ0});
  ASSERT_NE(q1q0, nullptr);
  EXPECT_EQ(CountFor(q1q0, kQ0), 3u);
  EXPECT_EQ(CountFor(q1q0, kQ1), 7u);
  EXPECT_EQ(q1q0->total_count, 10u);

  const ContextEntry* q0q1 = index.Lookup(std::vector<QueryId>{kQ0, kQ1});
  ASSERT_NE(q0q1, nullptr);
  EXPECT_EQ(CountFor(q0q1, kQ0), 1u);
  EXPECT_EQ(CountFor(q0q1, kQ1), 1u);
}

TEST(ContextIndexSubstringTest, MaximumContextLengthIsTwo) {
  // The last query of any session has no prediction evidence, so the
  // deepest usable context in Table II has length 2 (paper Section IV-B.1).
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);
  for (const ContextEntry* entry : index.SortedEntries()) {
    EXPECT_LE(entry->context.size(), 2u);
  }
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kQ0, kQ0}), nullptr);
}

TEST(ContextIndexSubstringTest, StartCounts) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);
  // q0 at session start with a successor: q0q0 (78) + q0q1q0 (1) + q0q1q1
  // (1); the singleton session [q0] x10 has no successor.
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kQ0})->start_count, 80u);
  // q1 at start: q1q0q0 (3) + q1q0q1 (7) + q1q0 (5) + q1q1 (3).
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kQ1})->start_count, 18u);
  EXPECT_EQ(
      index.Lookup(std::vector<QueryId>{kQ1, kQ0})->start_count, 10u);
}

TEST(ContextIndexPrefixTest, OnlyPrefixOccurrencesCounted) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kPrefix);
  const ContextEntry* q0 = index.Lookup(std::vector<QueryId>{kQ0});
  ASSERT_NE(q0, nullptr);
  // Prefix occurrences only: q0q0 (78), q0q1* (2); the inner q0 of q1q0q0
  // does not count.
  EXPECT_EQ(CountFor(q0, kQ0), 78u);
  EXPECT_EQ(CountFor(q0, kQ1), 2u);
  EXPECT_EQ(q0->total_count, 80u);
}

TEST(ContextIndexPrefixTest, PrefixContextsAlwaysStartSessions) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kPrefix);
  for (const ContextEntry* entry : index.SortedEntries()) {
    EXPECT_EQ(entry->start_count, entry->total_count);
  }
}

TEST(ContextIndexPrefixTest, LookupOfInteriorNodeIsNull) {
  constexpr QueryId kA = 3, kB = 4, kC = 5;
  ContextIndex index;
  index.Build({{{kA, kB, kC}, 2}}, ContextIndex::Mode::kPrefix);
  // The trie is keyed newest query first, so counting [a, b] passes through
  // a node for [b]. [b] is no session prefix: that node carries no entry.
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kB}), nullptr);
  const ContextEntry* ab = index.Lookup(std::vector<QueryId>{kA, kB});
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->context, (std::vector<QueryId>{kA, kB}));
  EXPECT_EQ(CountFor(ab, kC), 2u);
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kC}), nullptr);
}

TEST(ContextIndexTest, MaxContextLengthBound) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring,
              /*max_context_length=*/1);
  EXPECT_EQ(index.Lookup(std::vector<QueryId>{kQ1, kQ0}), nullptr);
  EXPECT_NE(index.Lookup(std::vector<QueryId>{kQ0}), nullptr);
  EXPECT_EQ(index.max_context_length(), 1u);
}

TEST(ContextIndexTest, NextsSortedByCountThenId) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);
  for (const ContextEntry* entry : index.SortedEntries()) {
    for (size_t i = 1; i < entry->nexts.size(); ++i) {
      const auto& prev = entry->nexts[i - 1];
      const auto& cur = entry->nexts[i];
      EXPECT_TRUE(prev.count > cur.count ||
                  (prev.count == cur.count && prev.query < cur.query));
    }
  }
}

TEST(ContextIndexTest, SortedEntriesDeterministicOrder) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);
  const auto entries = index.SortedEntries();
  for (size_t i = 1; i < entries.size(); ++i) {
    const bool shorter =
        entries[i - 1]->context.size() < entries[i]->context.size();
    const bool same_len_lex =
        entries[i - 1]->context.size() == entries[i]->context.size() &&
        entries[i - 1]->context < entries[i]->context;
    EXPECT_TRUE(shorter || same_len_lex);
  }
}

TEST(ContextIndexTest, SingletonSessionsProduceNoContexts) {
  ContextIndex index;
  index.Build({{{kQ0}, 100}}, ContextIndex::Mode::kSubstring);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.total_occurrences(), 0u);
}

TEST(BuildGroundTruthTest, RanksByFrequency) {
  std::vector<AggregatedSession> test_sessions{
      {{kQ0, kQ1}, 10},  // q0 -> q1 ten times
      {{kQ0, kQ0}, 3},   // q0 -> q0 three times
  };
  const auto truth = BuildGroundTruth(test_sessions, /*n=*/5);
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].context, (std::vector<QueryId>{kQ0}));
  ASSERT_EQ(truth[0].ranked_next.size(), 2u);
  EXPECT_EQ(truth[0].ranked_next[0], kQ1);
  EXPECT_EQ(truth[0].ranked_next[1], kQ0);
  EXPECT_EQ(truth[0].support, 13u);
}

TEST(BuildGroundTruthTest, TruncatesToTopN) {
  std::vector<AggregatedSession> test_sessions;
  for (QueryId next = 1; next <= 8; ++next) {
    test_sessions.push_back({{kQ0, next}, next});
  }
  const auto truth = BuildGroundTruth(test_sessions, /*n=*/5);
  ASSERT_EQ(truth.size(), 1u);
  ASSERT_EQ(truth[0].ranked_next.size(), 5u);
  EXPECT_EQ(truth[0].ranked_next[0], 8u);  // highest frequency first
  EXPECT_EQ(truth[0].ranked_next[4], 4u);
}

TEST(BuildGroundTruthTest, LongerContextsIncluded) {
  std::vector<AggregatedSession> test_sessions{{{kQ0, kQ1, kQ0, kQ1}, 2}};
  const auto truth = BuildGroundTruth(test_sessions, 5);
  // Prefix contexts of lengths 1, 2, 3.
  ASSERT_EQ(truth.size(), 3u);
  EXPECT_EQ(truth[0].context.size(), 1u);
  EXPECT_EQ(truth[2].context.size(), 3u);
}

TEST(QueryRolesTest, RolesComputed) {
  std::vector<AggregatedSession> sessions{
      {{kQ0, kQ1}, 1},  // q0 non-last, q1 last
      {{2}, 1},         // singleton
  };
  const QueryRoles roles = ComputeQueryRoles(sessions);
  EXPECT_TRUE(roles.seen.count(kQ0));
  EXPECT_TRUE(roles.seen.count(kQ1));
  EXPECT_TRUE(roles.seen.count(2));
  EXPECT_TRUE(roles.in_multi_session.count(kQ0));
  EXPECT_TRUE(roles.in_multi_session.count(kQ1));
  EXPECT_FALSE(roles.in_multi_session.count(2));
  EXPECT_TRUE(roles.at_non_last.count(kQ0));
  EXPECT_FALSE(roles.at_non_last.count(kQ1));
  EXPECT_FALSE(roles.at_non_last.count(2));
}

}  // namespace
}  // namespace sqp
