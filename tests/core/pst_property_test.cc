// Property sweep over the PST configuration space (epsilon x depth x
// min_support x corpus seed): structural invariants that must hold for
// every valid configuration, checked on randomly generated corpora.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/pst.h"
#include "util/random.h"

namespace sqp {
namespace {

/// Random corpus: `num_sessions` sessions over `vocab` queries with
/// geometric-ish lengths, aggregated with random frequencies.
std::vector<AggregatedSession> RandomCorpus(uint64_t seed, size_t vocab,
                                            size_t num_sessions) {
  Rng rng(seed);
  std::vector<AggregatedSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    AggregatedSession session;
    const size_t len = 1 + rng.Geometric(0.45) % 8;
    for (size_t j = 0; j < len; ++j) {
      session.queries.push_back(
          static_cast<QueryId>(rng.UniformInt(vocab)));
    }
    session.frequency = 1 + rng.UniformInt(20);
    sessions.push_back(std::move(session));
  }
  return sessions;
}

/// The numbering the compact blob computes child ids from: the root's
/// children are 1..R, parent ids are nondecreasing in node id, and
/// siblings take consecutive ids in ascending edge query.
void ExpectBreadthFirstIds(const Pst& pst) {
  const std::vector<Pst::Node>& nodes = pst.nodes();
  const std::vector<Pst::Edge>& root_edges = nodes[0].children;
  for (size_t k = 0; k < root_edges.size(); ++k) {
    EXPECT_EQ(root_edges[k].child, static_cast<int32_t>(k + 1));
  }
  for (size_t i = 2; i < nodes.size(); ++i) {
    EXPECT_LE(nodes[i - 1].parent, nodes[i].parent) << "node " << i;
  }
  for (const Pst::Node& node : nodes) {
    for (size_t k = 1; k < node.children.size(); ++k) {
      EXPECT_LT(node.children[k - 1].query, node.children[k].query);
      EXPECT_EQ(node.children[k].child, node.children[k - 1].child + 1);
    }
  }
}

using PstParam = std::tuple<double /*epsilon*/, size_t /*max_depth*/,
                            uint64_t /*min_support*/, uint64_t /*seed*/>;

class PstPropertyTest : public ::testing::TestWithParam<PstParam> {
 protected:
  void SetUp() override {
    const auto& [epsilon, max_depth, min_support, seed] = GetParam();
    sessions_ = RandomCorpus(seed, /*vocab=*/40, /*num_sessions=*/300);
    index_.Build(sessions_, ContextIndex::Mode::kSubstring);
    options_.epsilon = epsilon;
    options_.max_depth = max_depth;
    options_.min_support = min_support;
    SQP_CHECK_OK(pst_.Build(index_, options_));
  }

  std::vector<AggregatedSession> sessions_;
  ContextIndex index_;
  PstOptions options_;
  Pst pst_;
};

TEST_P(PstPropertyTest, SuffixClosureHolds) {
  for (const Pst::Node& node : pst_.nodes()) {
    if (node.context.size() <= 1) continue;
    std::vector<QueryId> suffix(node.context.begin() + 1,
                                node.context.end());
    while (!suffix.empty()) {
      EXPECT_NE(pst_.FindNode(suffix), nullptr);
      suffix.erase(suffix.begin());
    }
  }
}

TEST_P(PstPropertyTest, DepthBoundRespected) {
  if (options_.max_depth == 0) return;
  for (const Pst::Node& node : pst_.nodes()) {
    EXPECT_LE(node.context.size(), options_.max_depth);
  }
}

TEST_P(PstPropertyTest, MinSupportRespected) {
  for (const Pst::Node& node : pst_.nodes()) {
    if (node.context.empty()) continue;  // root
    // Suffix-closure fill-ins have at least the support of the deep node
    // that pulled them in, which itself passed min_support.
    EXPECT_GE(node.total_count, options_.min_support);
  }
}

TEST_P(PstPropertyTest, NodeCountsConsistent) {
  for (const Pst::Node& node : pst_.nodes()) {
    uint64_t sum = 0;
    for (const NextQueryCount& nc : node.nexts) sum += nc.count;
    EXPECT_EQ(sum, node.total_count);
    EXPECT_LE(node.start_count, node.total_count);
    for (size_t i = 1; i < node.nexts.size(); ++i) {
      const bool sorted =
          node.nexts[i - 1].count > node.nexts[i].count ||
          (node.nexts[i - 1].count == node.nexts[i].count &&
           node.nexts[i - 1].query < node.nexts[i].query);
      EXPECT_TRUE(sorted);
    }
  }
}

TEST_P(PstPropertyTest, ChildEdgesMatchContexts) {
  const auto& nodes = pst_.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& [oldest, child_id] : nodes[i].children) {
      ASSERT_GE(child_id, 1);
      ASSERT_LT(static_cast<size_t>(child_id), nodes.size());
      const Pst::Node& child = nodes[static_cast<size_t>(child_id)];
      ASSERT_FALSE(child.context.empty());
      EXPECT_EQ(child.context.front(), oldest);
      EXPECT_EQ(child.parent, static_cast<int32_t>(i));
      EXPECT_EQ(child.context.size(), nodes[i].context.size() + 1);
    }
  }
}

TEST_P(PstPropertyTest, MatchedStateIsTrueSuffix) {
  Rng rng(std::get<3>(GetParam()) + 99);
  for (int round = 0; round < 100; ++round) {
    std::vector<QueryId> context;
    const size_t len = 1 + rng.UniformInt(6);
    for (size_t j = 0; j < len; ++j) {
      context.push_back(static_cast<QueryId>(rng.UniformInt(45)));
    }
    size_t matched = 0;
    const Pst::Node* state = pst_.MatchLongestSuffix(context, &matched);
    ASSERT_NE(state, nullptr);
    ASSERT_EQ(state->context.size(), matched);
    ASSERT_LE(matched, context.size());
    // The matched state's context equals the trailing `matched` queries.
    EXPECT_TRUE(std::equal(state->context.begin(), state->context.end(),
                           context.end() - static_cast<ptrdiff_t>(matched)));
    // Maximality: extending the match by one more query is not a node.
    if (matched < context.size()) {
      std::vector<QueryId> longer(context.end() - static_cast<ptrdiff_t>(
                                                      matched + 1),
                                  context.end());
      EXPECT_EQ(pst_.FindNode(longer), nullptr);
    }
  }
}

TEST_P(PstPropertyTest, FlatMatchAgreesWithFindNodeOnEveryStoredContext) {
  // The sorted-edge layout must resolve every stored context identically
  // through the suffix walk and through exact lookup.
  for (const Pst::Node& node : pst_.nodes()) {
    if (node.context.empty()) continue;
    size_t matched = 0;
    const Pst::Node* state = pst_.MatchLongestSuffix(node.context, &matched);
    ASSERT_EQ(matched, node.context.size());
    EXPECT_EQ(state, &node);
    EXPECT_EQ(pst_.FindNode(node.context), &node);
  }
}

TEST_P(PstPropertyTest, ChildEdgesSortedByQuery) {
  for (const Pst::Node& node : pst_.nodes()) {
    for (size_t i = 1; i < node.children.size(); ++i) {
      EXPECT_LT(node.children[i - 1].query, node.children[i].query);
    }
  }
}

TEST_P(PstPropertyTest, RebuildIsDeterministic) {
  Pst again;
  SQP_CHECK_OK(again.Build(index_, options_));
  ASSERT_EQ(again.size(), pst_.size());
  for (size_t i = 0; i < pst_.size(); ++i) {
    EXPECT_EQ(again.nodes()[i].context, pst_.nodes()[i].context);
    EXPECT_EQ(again.nodes()[i].total_count, pst_.nodes()[i].total_count);
  }
}

TEST_P(PstPropertyTest, NodeIdsAreBreadthFirst) {
  {
    SCOPED_TRACE("standalone");
    ExpectBreadthFirstIds(pst_);
  }
  const PstOptions views[] = {
      options_,
      PstOptions{.epsilon = 0.0, .max_depth = 3},
      PstOptions{.epsilon = 0.2, .max_depth = 0, .min_support = 2},
  };
  Pst shared;
  SQP_CHECK_OK(shared.BuildShared(index_, views));
  {
    SCOPED_TRACE("shared");
    ExpectBreadthFirstIds(shared);
  }
  for (size_t v = 0; v < shared.num_views(); ++v) {
    SCOPED_TRACE("view " + std::to_string(v));
    ExpectBreadthFirstIds(shared.ExtractView(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, PstPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.5),
                       ::testing::Values(size_t{0}, size_t{2}, size_t{4}),
                       ::testing::Values(uint64_t{1}, uint64_t{10}),
                       ::testing::Values(uint64_t{11}, uint64_t{22})));

}  // namespace
}  // namespace sqp
