#include "core/pst.h"

#include <cmath>

#include <gtest/gtest.h>

namespace sqp {
namespace {

constexpr QueryId kQ0 = 0;
constexpr QueryId kQ1 = 1;

/// The paper's Table II training data.
std::vector<AggregatedSession> TableIISessions() {
  return {
      {{kQ1, kQ0, kQ0}, 3}, {{kQ1, kQ0, kQ1}, 7}, {{kQ0, kQ0}, 78},
      {{kQ1, kQ0}, 5},      {{kQ0, kQ1, kQ0}, 1}, {{kQ0, kQ1, kQ1}, 1},
      {{kQ1, kQ1}, 3},      {{kQ0}, 10},
  };
}

ContextIndex BuildTableIIIndex() {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring);
  return index;
}

double NodeProb(const Pst::Node& node, QueryId next) {
  for (const NextQueryCount& nc : node.nexts) {
    if (nc.query == next) {
      return static_cast<double>(nc.count) /
             static_cast<double>(node.total_count);
    }
  }
  return 0.0;
}

TEST(PstGrowthKlTest, PaperWorkedExampleValues) {
  const ContextIndex index = BuildTableIIIndex();
  const ContextEntry* q0 = index.Lookup(std::vector<QueryId>{kQ0});
  const ContextEntry* q1 = index.Lookup(std::vector<QueryId>{kQ1});
  const ContextEntry* q1q0 = index.Lookup(std::vector<QueryId>{kQ1, kQ0});
  const ContextEntry* q0q1 = index.Lookup(std::vector<QueryId>{kQ0, kQ1});
  ASSERT_NE(q0, nullptr);
  ASSERT_NE(q1, nullptr);
  ASSERT_NE(q1q0, nullptr);
  ASSERT_NE(q0q1, nullptr);
  // Paper Section IV-B.1: D_KL(q0||q1q0) = 0.3449, D_KL(q1||q0q1) = 0.0837.
  EXPECT_NEAR(PstGrowthKl(*q0, *q1q0), 0.3449, 0.0005);
  EXPECT_NEAR(PstGrowthKl(*q1, *q0q1), 0.0837, 0.0005);
}

TEST(PstBuildTest, PaperExampleSuffixSetAtEpsilonPointOne) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.1;
  ASSERT_TRUE(pst.Build(index, options).ok());
  // Paper: S = {q1q0, q0, q1} (plus the root).
  EXPECT_EQ(pst.size(), 4u);
  EXPECT_NE(pst.FindNode(std::vector<QueryId>{kQ0}), nullptr);
  EXPECT_NE(pst.FindNode(std::vector<QueryId>{kQ1}), nullptr);
  EXPECT_NE(pst.FindNode(std::vector<QueryId>{kQ1, kQ0}), nullptr);
  EXPECT_EQ(pst.FindNode(std::vector<QueryId>{kQ0, kQ1}), nullptr);
}

TEST(PstBuildTest, PaperExampleNodeProbabilities) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.1;
  ASSERT_TRUE(pst.Build(index, options).ok());
  // Fig. 3 node labels: q0 -> (0.9, 0.1); q1 -> (0.8, 0.2);
  // q1q0 -> (0.3, 0.7).
  const Pst::Node* q0 = pst.FindNode(std::vector<QueryId>{kQ0});
  EXPECT_NEAR(NodeProb(*q0, kQ0), 0.9, 1e-9);
  EXPECT_NEAR(NodeProb(*q0, kQ1), 0.1, 1e-9);
  const Pst::Node* q1 = pst.FindNode(std::vector<QueryId>{kQ1});
  EXPECT_NEAR(NodeProb(*q1, kQ0), 0.8, 1e-9);
  EXPECT_NEAR(NodeProb(*q1, kQ1), 0.2, 1e-9);
  const Pst::Node* q1q0 = pst.FindNode(std::vector<QueryId>{kQ1, kQ0});
  EXPECT_NEAR(NodeProb(*q1q0, kQ0), 0.3, 1e-9);
  EXPECT_NEAR(NodeProb(*q1q0, kQ1), 0.7, 1e-9);
}

TEST(PstBuildTest, PaperTestSequenceProbabilityChain) {
  // Fig. 3: P([q0,q1,q0,q1,q1,q0]) = 1 x 0.1 x 0.8 x 0.7 x 0.2 x 0.8 using
  // states e, q0, q1, q1q0, q1, q1.
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.1;
  ASSERT_TRUE(pst.Build(index, options).ok());

  const std::vector<QueryId> sequence{kQ0, kQ1, kQ0, kQ1, kQ1, kQ0};
  const std::vector<double> expected_probs{0.1, 0.8, 0.7, 0.2, 0.8};
  const std::vector<size_t> expected_matched{1, 1, 2, 1, 1};
  double product = 1.0;
  for (size_t i = 1; i < sequence.size(); ++i) {
    size_t matched = 0;
    const Pst::Node* state = pst.MatchLongestSuffix(
        std::span<const QueryId>(sequence.data(), i), &matched);
    EXPECT_EQ(matched, expected_matched[i - 1]) << "step " << i;
    const double p = NodeProb(*state, sequence[i]);
    EXPECT_NEAR(p, expected_probs[i - 1], 1e-9) << "step " << i;
    product *= p;
  }
  EXPECT_NEAR(product, 1.0 * 0.1 * 0.8 * 0.7 * 0.2 * 0.8, 1e-9);
}

TEST(PstBuildTest, EpsilonZeroKeepsAllObservedContexts) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.0;
  ASSERT_TRUE(pst.Build(index, options).ok());
  // All 4 observed contexts + root (paper Fig. 4: infinitely bounded VMM).
  EXPECT_EQ(pst.size(), 5u);
  EXPECT_NE(pst.FindNode(std::vector<QueryId>{kQ0, kQ1}), nullptr);
}

TEST(PstBuildTest, HugeEpsilonDegeneratesToOrderOne) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 1e9;
  ASSERT_TRUE(pst.Build(index, options).ok());
  // Only length-1 states survive (paper Fig. 4: Adjacency/2-gram model).
  EXPECT_EQ(pst.size(), 3u);
  for (const Pst::Node& node : pst.nodes()) {
    EXPECT_LE(node.context.size(), 1u);
  }
}

TEST(PstBuildTest, DepthBoundRespected) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.0;
  options.max_depth = 1;
  ASSERT_TRUE(pst.Build(index, options).ok());
  for (const Pst::Node& node : pst.nodes()) {
    EXPECT_LE(node.context.size(), 1u);
  }
}

TEST(PstBuildTest, MinSupportFiltersRareContexts) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = 0.0;
  options.min_support = 5;
  ASSERT_TRUE(pst.Build(index, options).ok());
  // [q0,q1] has support 2 < 5 and must be filtered even at epsilon 0.
  EXPECT_EQ(pst.FindNode(std::vector<QueryId>{kQ0, kQ1}), nullptr);
  EXPECT_NE(pst.FindNode(std::vector<QueryId>{kQ1, kQ0}), nullptr);
}

TEST(PstBuildTest, SuffixClosureInvariant) {
  const ContextIndex index = BuildTableIIIndex();
  for (double epsilon : {0.0, 0.05, 0.1, 0.5}) {
    Pst pst;
    PstOptions options;
    options.epsilon = epsilon;
    ASSERT_TRUE(pst.Build(index, options).ok());
    for (const Pst::Node& node : pst.nodes()) {
      if (node.context.size() <= 1) continue;
      const std::vector<QueryId> suffix(node.context.begin() + 1,
                                        node.context.end());
      EXPECT_NE(pst.FindNode(suffix), nullptr)
          << "suffix closure violated at epsilon " << epsilon;
    }
  }
}

TEST(PstBuildTest, ParentLinksConsistent) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{.epsilon = 0.0}).ok());
  for (size_t i = 1; i < pst.nodes().size(); ++i) {
    const Pst::Node& node = pst.nodes()[i];
    ASSERT_GE(node.parent, 0);
    const Pst::Node& parent = pst.nodes()[static_cast<size_t>(node.parent)];
    EXPECT_EQ(parent.context.size() + 1, node.context.size());
    // Parent context == node context minus its oldest query.
    EXPECT_TRUE(std::equal(node.context.begin() + 1, node.context.end(),
                           parent.context.begin(), parent.context.end()));
  }
}

TEST(PstBuildTest, RootHoldsPriorOverAllQueryOccurrences) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{}).ok());
  const Pst::Node& root = pst.root();
  EXPECT_TRUE(root.context.empty());
  EXPECT_GT(root.total_count, 0u);
  EXPECT_EQ(root.nexts.size(), 2u);  // both q0 and q1 occur
  // q0 is overwhelmingly more frequent than q1 in Table II.
  EXPECT_GT(NodeProb(root, kQ0), NodeProb(root, kQ1));
}

TEST(PstBuildTest, RejectsPrefixModeIndex) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kPrefix);
  Pst pst;
  EXPECT_EQ(pst.Build(index, PstOptions{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(PstBuildTest, RejectsShallowIndex) {
  ContextIndex index;
  index.Build(TableIISessions(), ContextIndex::Mode::kSubstring,
              /*max_context_length=*/1);
  Pst pst;
  PstOptions options;
  options.max_depth = 3;
  EXPECT_EQ(pst.Build(index, options).code(), StatusCode::kInvalidArgument);
}

TEST(PstBuildTest, RejectsNegativeEpsilon) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  PstOptions options;
  options.epsilon = -0.1;
  EXPECT_EQ(pst.Build(index, options).code(), StatusCode::kInvalidArgument);
}

TEST(PstMatchTest, LongestSuffixWalk) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{.epsilon = 0.1}).ok());
  // Context [q1, q1]: state q1q1 is not in the tree, so the match stops at
  // q1 (paper Section IV-C.1(b): "the state used for prediction is s = q1").
  size_t matched = 0;
  const Pst::Node* state = pst.MatchLongestSuffix(
      std::vector<QueryId>{kQ1, kQ1}, &matched);
  EXPECT_EQ(matched, 1u);
  EXPECT_EQ(state->context, (std::vector<QueryId>{kQ1}));
}

TEST(PstMatchTest, UnknownQueryMatchesRoot) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{}).ok());
  size_t matched = 99;
  const Pst::Node* state =
      pst.MatchLongestSuffix(std::vector<QueryId>{42}, &matched);
  EXPECT_EQ(matched, 0u);
  EXPECT_TRUE(state->context.empty());
}

TEST(PstMatchTest, EmptyContextMatchesRoot) {
  const ContextIndex index = BuildTableIIIndex();
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{}).ok());
  size_t matched = 99;
  const Pst::Node* state =
      pst.MatchLongestSuffix(std::vector<QueryId>{}, &matched);
  EXPECT_EQ(matched, 0u);
  EXPECT_EQ(state, &pst.root());
}

TEST(PstStatsTest, EntryAndMemoryAccounting) {
  const ContextIndex index = BuildTableIIIndex();
  Pst small;
  ASSERT_TRUE(small.Build(index, PstOptions{.epsilon = 0.1}).ok());
  Pst full;
  ASSERT_TRUE(full.Build(index, PstOptions{.epsilon = 0.0}).ok());
  EXPECT_GT(full.num_entries(), small.num_entries() - 1);
  EXPECT_GT(full.memory_bytes(), small.memory_bytes());
}

}  // namespace
}  // namespace sqp
