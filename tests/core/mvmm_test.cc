#include "core/mvmm_model.h"

#include <set>

#include <gtest/gtest.h>

#include "core/adjacency_model.h"

namespace sqp {
namespace {

constexpr QueryId kQ0 = 0;
constexpr QueryId kQ1 = 1;

std::vector<AggregatedSession> TableIISessions() {
  return {
      {{kQ1, kQ0, kQ0}, 3}, {{kQ1, kQ0, kQ1}, 7}, {{kQ0, kQ0}, 78},
      {{kQ1, kQ0}, 5},      {{kQ0, kQ1, kQ0}, 1}, {{kQ0, kQ1, kQ1}, 1},
      {{kQ1, kQ1}, 3},      {{kQ0}, 10},
  };
}

TrainingData MakeData(const std::vector<AggregatedSession>* sessions,
                      size_t vocab = 2) {
  TrainingData data;
  data.sessions = sessions;
  data.vocabulary_size = vocab;
  return data;
}

TEST(MvmmOptionsTest, DefaultComponentsMatchPaper) {
  // 11 components (paper Section V-D) spanning D = 1..5 (Section IV-C.2)
  // and epsilon in {0.0, 0.05, 0.1}.
  const auto components = MvmmOptions::DefaultComponents(0);
  ASSERT_EQ(components.size(), 11u);
  std::set<size_t> depths;
  std::set<double> epsilons;
  for (const VmmOptions& c : components) {
    EXPECT_GE(c.max_depth, 1u);
    EXPECT_LE(c.max_depth, 5u);
    depths.insert(c.max_depth);
    epsilons.insert(c.epsilon);
  }
  EXPECT_EQ(depths.size(), 5u);
  EXPECT_EQ(epsilons, (std::set<double>{0.0, 0.05, 0.1}));
}

TEST(MvmmOptionsTest, DefaultComponentsRespectDepthBound) {
  const auto components = MvmmOptions::DefaultComponents(3);
  ASSERT_EQ(components.size(), 7u);
  for (const VmmOptions& c : components) {
    EXPECT_LE(c.max_depth, 3u);
  }
}

TEST(MvmmModelTest, TrainsElevenComponentsByDefault) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  EXPECT_EQ(model.snapshot()->num_components(), 11u);
  EXPECT_EQ(model.sigmas().size(), 11u);
}

TEST(MvmmModelTest, CustomComponents) {
  MvmmOptions options;
  options.components = {VmmOptions{.epsilon = 0.0, .max_depth = 1},
                        VmmOptions{.epsilon = 0.0, .max_depth = 2}};
  const auto sessions = TableIISessions();
  MvmmModel model(options);
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  ASSERT_EQ(model.snapshot()->num_components(), 2u);
  EXPECT_EQ(model.options().components[0].max_depth, 1u);
}

TEST(MvmmModelTest, SigmaFitImprovesObjective) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const MvmmFitReport& report = model.fit_report();
  EXPECT_GE(report.final_objective, report.initial_objective);
  EXPECT_GT(report.iterations, 0u);
}

TEST(MvmmModelTest, SigmasStayAboveFloor) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  for (double sigma : model.sigmas()) {
    EXPECT_GE(sigma, internal::kMinSigma);
  }
}

TEST(MvmmModelTest, MixtureWeightsNormalized) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  for (const std::vector<QueryId>& context :
       {std::vector<QueryId>{kQ0}, std::vector<QueryId>{kQ1, kQ0},
        std::vector<QueryId>{kQ1, kQ1, kQ0}}) {
    const std::vector<double> weights = model.MixtureWeights(context);
    double total = 0.0;
    for (double w : weights) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MvmmModelTest, RecommendationsCombineComponents) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const Recommendation rec =
      model.Recommend(std::vector<QueryId>{kQ1, kQ0}, 2);
  ASSERT_TRUE(rec.covered);
  ASSERT_EQ(rec.queries.size(), 2u);
  // Every component that matched [q1,q0] fully predicts q1 with 0.7.
  EXPECT_EQ(rec.queries[0].query, kQ1);
  EXPECT_GE(rec.matched_length, 1u);
}

TEST(MvmmModelTest, CoverageMatchesAdjacency) {
  // Paper Fig. 10: Adjacency, VMM and MVMM tie on coverage.
  const auto sessions = TableIISessions();
  MvmmModel mvmm;
  AdjacencyModel adjacency;
  ASSERT_TRUE(mvmm.Train(MakeData(&sessions)).ok());
  ASSERT_TRUE(adjacency.Train(MakeData(&sessions)).ok());
  const std::vector<std::vector<QueryId>> contexts = {
      {kQ0},      {kQ1},       {kQ1, kQ0}, {kQ0, kQ1},
      {57},       {kQ0, 57},   {57, kQ0},  {},
  };
  for (const auto& context : contexts) {
    EXPECT_EQ(mvmm.Covers(context), adjacency.Covers(context))
        << "context size " << context.size();
  }
}

TEST(MvmmModelTest, ConditionalProbNormalized) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  for (const std::vector<QueryId>& context :
       {std::vector<QueryId>{kQ0}, std::vector<QueryId>{kQ1, kQ1}}) {
    double total = 0.0;
    for (QueryId q = 0; q < 2; ++q) {
      total += model.ConditionalProb(context, q);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MvmmModelTest, MergedStatsBoundedByComponentSum) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const ModelStats stats = model.Stats();
  EXPECT_EQ(stats.name, "MVMM");

  const std::shared_ptr<const Pst>& shared = model.shared_pst();
  uint64_t max_component_states = 0;
  uint64_t total_component_bytes = 0;
  for (size_t c = 0; c < model.snapshot()->num_components(); ++c) {
    max_component_states =
        std::max(max_component_states, shared->view_num_states(c));
    total_component_bytes += shared->view_memory_bytes(c);
  }
  // The merged PST has as many nodes as the largest component (all
  // components' nodes are subsets of the epsilon = 0 tree) and costs far
  // less than storing all components separately (paper Section V-F.2).
  EXPECT_EQ(stats.num_states, max_component_states);
  EXPECT_LT(stats.memory_bytes, total_component_bytes);
}

TEST(MvmmModelTest, MergedStatsDescribeTheRealSharedStructure) {
  // Satellite check for the merged-PST accounting: Stats() must report the
  // actual shared flat layout — every node stored once (node header,
  // context ids, next counts, child edges), one membership mask per node,
  // and the dense root fan-out index — not an estimate.
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const std::shared_ptr<const Pst>& shared = model.shared_pst();
  ASSERT_NE(shared, nullptr);
  ASSERT_TRUE(shared->is_shared());

  const ModelStats stats = model.Stats();
  EXPECT_EQ(stats.num_states, shared->size());
  EXPECT_EQ(stats.num_entries, shared->num_entries());
  EXPECT_EQ(stats.memory_bytes, shared->memory_bytes());

  // Recompute the flat-layout accounting independently from the public
  // node data and assert it matches Pst::memory_bytes exactly.
  uint64_t expected = 0;
  for (const Pst::Node& node : shared->nodes()) {
    expected += sizeof(Pst::Node);
    expected += node.context.size() * sizeof(QueryId);
    expected += node.nexts.size() * sizeof(NextQueryCount);
    expected += node.children.size() * sizeof(Pst::Edge);
  }
  expected += shared->size() * sizeof(Pst::ViewMask);
  if (!shared->root().children.empty()) {
    // Dense root fan-out index spans query ids 0..max root child query.
    expected +=
        (shared->root().children.back().query + 1ull) * sizeof(int32_t);
  }
  EXPECT_EQ(stats.memory_bytes, expected);

  // The mask vector is exactly one entry per node, and every node belongs
  // to at least one component.
  ASSERT_EQ(shared->view_masks().size(), shared->size());
  for (Pst::ViewMask mask : shared->view_masks()) EXPECT_NE(mask, 0u);
}

TEST(MvmmModelTest, FallbackBeyondMaskWidthStillServes) {
  // There is no fallback beyond the mask width: the shared tree tags nodes
  // with a Pst::kMaxViews-bit view mask, so more components than that are
  // rejected and the model stays untrained (serving nothing).
  MvmmOptions options;
  for (size_t i = 0; i < Pst::kMaxViews + 2; ++i) {
    VmmOptions c;
    c.max_depth = 1 + (i % 5);
    c.epsilon = static_cast<double>(i % 3) * 0.05;
    options.components.push_back(c);
  }
  const auto sessions = TableIISessions();
  MvmmModel model(options);
  EXPECT_EQ(model.Train(MakeData(&sessions)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.snapshot(), nullptr);
  EXPECT_EQ(model.shared_pst(), nullptr);
  EXPECT_TRUE(model.sigmas().empty());
  EXPECT_FALSE(model.Covers(std::vector<QueryId>{kQ0}));
  EXPECT_FALSE(model.Recommend(std::vector<QueryId>{kQ1, kQ0}, 2).covered);
  EXPECT_EQ(model.ConditionalProb(std::vector<QueryId>{kQ0}, kQ1), 0.0);
  EXPECT_EQ(model.Stats().num_states, 0u);
}

TEST(MvmmModelTest, RequiresComponents) {
  MvmmOptions options;
  options.components = {};  // replaced by defaults in the constructor
  MvmmModel model(options);
  const auto sessions = TableIISessions();
  EXPECT_TRUE(model.Train(MakeData(&sessions)).ok());
}

TEST(MvmmModelTest, UncoveredContextEmptyRecommendation) {
  const auto sessions = TableIISessions();
  MvmmModel model;
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const Recommendation rec = model.Recommend(std::vector<QueryId>{57}, 5);
  EXPECT_FALSE(rec.covered);
  EXPECT_TRUE(rec.queries.empty());
}

TEST(MvmmModelTest, UniformWeightingIsUniform) {
  const auto sessions = TableIISessions();
  MvmmOptions options;
  options.weighting = MixtureWeighting::kUniform;
  MvmmModel model(options);
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  const auto weights = model.MixtureWeights(std::vector<QueryId>{kQ1, kQ0});
  for (double w : weights) {
    EXPECT_NEAR(w, 1.0 / static_cast<double>(weights.size()), 1e-12);
  }
  // No sigma fit runs under uniform weighting.
  EXPECT_EQ(model.fit_report().iterations, 0u);
}

TEST(MvmmModelTest, LongestMatchWeightingSelectsDeepComponents) {
  const auto sessions = TableIISessions();
  MvmmOptions options;
  options.weighting = MixtureWeighting::kLongestMatch;
  // One depth-1 component and one unbounded component.
  options.components = {VmmOptions{.epsilon = 0.0, .max_depth = 1},
                        VmmOptions{.epsilon = 0.0}};
  MvmmModel model(options);
  ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
  // Context [q1,q0]: the unbounded component matches depth 2, the bounded
  // one only depth 1, so all weight lands on the unbounded component.
  const auto weights = model.MixtureWeights(std::vector<QueryId>{kQ1, kQ0});
  EXPECT_NEAR(weights[0], 0.0, 1e-12);
  EXPECT_NEAR(weights[1], 1.0, 1e-12);
}

TEST(MvmmModelTest, WeightingSchemesAllProduceRecommendations) {
  const auto sessions = TableIISessions();
  for (MixtureWeighting weighting :
       {MixtureWeighting::kGaussianEditDistance, MixtureWeighting::kUniform,
        MixtureWeighting::kLongestMatch}) {
    MvmmOptions options;
    options.weighting = weighting;
    MvmmModel model(options);
    ASSERT_TRUE(model.Train(MakeData(&sessions)).ok());
    const Recommendation rec =
        model.Recommend(std::vector<QueryId>{kQ1, kQ0}, 2);
    EXPECT_TRUE(rec.covered);
    EXPECT_FALSE(rec.queries.empty());
  }
}

TEST(MvmmModelTest, DeterministicAcrossTrainings) {
  const auto sessions = TableIISessions();
  MvmmModel a;
  MvmmModel b;
  ASSERT_TRUE(a.Train(MakeData(&sessions)).ok());
  ASSERT_TRUE(b.Train(MakeData(&sessions)).ok());
  ASSERT_EQ(a.sigmas().size(), b.sigmas().size());
  for (size_t i = 0; i < a.sigmas().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sigmas()[i], b.sigmas()[i]);
  }
  const auto rec_a = a.Recommend(std::vector<QueryId>{kQ1, kQ1}, 2);
  const auto rec_b = b.Recommend(std::vector<QueryId>{kQ1, kQ1}, 2);
  ASSERT_EQ(rec_a.queries.size(), rec_b.queries.size());
  for (size_t i = 0; i < rec_a.queries.size(); ++i) {
    EXPECT_EQ(rec_a.queries[i].query, rec_b.queries[i].query);
    EXPECT_DOUBLE_EQ(rec_a.queries[i].score, rec_b.queries[i].score);
  }
}

}  // namespace
}  // namespace sqp
