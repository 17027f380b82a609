// ModelSnapshot must be a faithful, immutable extraction of the MVMM's
// trained state: building one off to the side reproduces MvmmModel exactly
// (recommendations, conditionals, sigmas, stats), and MvmmModel itself now
// serves by delegating to the snapshot it trained.

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_snapshot.h"
#include "core/mvmm_model.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

TrainingData DataFor(const std::vector<AggregatedSession>& sessions) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  return data;
}

MvmmOptions TestOptions() {
  MvmmOptions options;
  options.default_max_depth = 5;
  return options;
}

TEST(ModelSnapshotTest, BuildMatchesMvmmTraining) {
  const TrainingData data = DataFor(SharedCorpus().base);

  MvmmModel model(TestOptions());
  ASSERT_TRUE(model.Train(data).ok());
  const Result<std::shared_ptr<const ModelSnapshot>> built =
      ModelSnapshot::Build(data, TestOptions(), /*version=*/42);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::shared_ptr<const ModelSnapshot>& snapshot = built.value();

  EXPECT_EQ(snapshot->version(), 42u);
  EXPECT_EQ(snapshot->num_components(), 11u);
  ASSERT_EQ(snapshot->sigmas().size(), model.sigmas().size());
  for (size_t i = 0; i < snapshot->sigmas().size(); ++i) {
    EXPECT_DOUBLE_EQ(snapshot->sigmas()[i], model.sigmas()[i]);
  }
  const ModelStats expected_stats = model.Stats();
  const ModelStats actual_stats = snapshot->Stats();
  EXPECT_EQ(expected_stats.num_states, actual_stats.num_states);
  EXPECT_EQ(expected_stats.num_entries, actual_stats.num_entries);
  EXPECT_EQ(expected_stats.memory_bytes, actual_stats.memory_bytes);

  SnapshotScratch scratch;
  size_t covered = 0;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 400)) {
    const Recommendation expected = model.Recommend(context, 5);
    const Recommendation actual = snapshot->Recommend(context, 5, &scratch);
    ExpectSameRecommendation(expected, actual);
    covered += actual.covered ? 1 : 0;
    EXPECT_EQ(model.Covers(context), snapshot->Covers(context));
    if (!expected.queries.empty()) {
      const QueryId next = expected.queries[0].query;
      EXPECT_DOUBLE_EQ(model.ConditionalProb(context, next),
                       snapshot->ConditionalProb(context, next, &scratch));
    }
  }
  EXPECT_GT(covered, 0u);  // the context sample must exercise the model
}

TEST(ModelSnapshotTest, MvmmModelExposesItsSnapshot) {
  MvmmModel model(TestOptions());
  ASSERT_TRUE(model.Train(DataFor(SharedCorpus().base)).ok());
  ASSERT_NE(model.snapshot(), nullptr);
  EXPECT_EQ(model.snapshot()->pst(), model.shared_pst());
  EXPECT_EQ(model.snapshot()->version(), 0u);
  EXPECT_EQ(model.snapshot()->vocabulary_size(), kVocabularyBound);
}

TEST(ModelSnapshotTest, RejectsMoreComponentsThanViewMask) {
  MvmmOptions options;
  for (size_t i = 0; i < Pst::kMaxViews + 1; ++i) {
    VmmOptions vmm;
    vmm.max_depth = 2;
    options.components.push_back(vmm);
  }
  const Result<std::shared_ptr<const ModelSnapshot>> built =
      ModelSnapshot::Build(DataFor(SharedCorpus().base), options);
  EXPECT_FALSE(built.ok());
}

TEST(ModelSnapshotTest, RejectsFixedSigmasTheGaussianCannotTake) {
  // A zero or NaN width would serve NaN scores (and abort the full walk's
  // Gaussian): Build and WithSigmas refuse it up front, as BindBlob does
  // for a blob.
  const std::vector<AggregatedSession> sessions = {{{1, 2, 3}, 5},
                                                   {{2, 3}, 3}};
  const TrainingData data = DataFor(sessions);
  const Result<std::shared_ptr<const ModelSnapshot>> fitted =
      ModelSnapshot::Build(data, MvmmOptions{});
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  const size_t k = (*fitted)->num_components();
  for (const double bad : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> sigmas(k, 1.0);
    sigmas[k - 1] = bad;
    MvmmOptions options;
    options.fixed_sigmas = sigmas;
    EXPECT_EQ(ModelSnapshot::Build(data, options).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ((*fitted)->WithSigmas(sigmas).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ModelSnapshotTest, ReusesCompatibleSharedIndex) {
  const std::vector<AggregatedSession>& sessions = SharedCorpus().base;
  ContextIndex index;
  index.Build(sessions, ContextIndex::Mode::kSubstring, 5,
              /*num_workers=*/4);
  TrainingData with_index = DataFor(sessions);
  with_index.substring_index = &index;

  const auto from_index =
      ModelSnapshot::Build(with_index, TestOptions(), /*version=*/1);
  const auto from_scratch =
      ModelSnapshot::Build(DataFor(sessions), TestOptions(), /*version=*/1);
  ASSERT_TRUE(from_index.ok());
  ASSERT_TRUE(from_scratch.ok());

  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : CollectContexts(sessions, 200)) {
    ExpectSameRecommendation(
        from_scratch.value()->Recommend(context, 5, &scratch),
        from_index.value()->Recommend(context, 5, &scratch));
  }
  EXPECT_EQ(from_scratch.value()->Stats().num_states,
            from_index.value()->Stats().num_states);
}

/// Everything one sigma fit reads belongs to that fit: fitting corpus A,
/// then B, then A again on one thread — and then A grown by B in place, as
/// a retrainer grows its corpus — gives each fit exactly the sigma bits
/// and report of a fit on a thread that never fitted anything else.
TEST(ModelSnapshotTest, SigmaFitDependsOnlyOnItsOwnCorpus) {
  struct Fit {
    std::vector<double> sigmas;
    MvmmFitReport report;
  };
  const auto fit = [](const std::vector<AggregatedSession>& sessions) {
    const auto built = ModelSnapshot::Build(DataFor(sessions), TestOptions());
    SQP_CHECK(built.ok());
    return Fit{built.value()->sigmas(), built.value()->fit_report()};
  };
  const auto fit_on_fresh_thread =
      [&](const std::vector<AggregatedSession>& sessions) {
        Fit out;
        std::thread([&] { out = fit(sessions); }).join();
        return out;
      };
  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  const auto expect_same = [&](const Fit& want, const Fit& got) {
    ASSERT_EQ(want.sigmas.size(), got.sigmas.size());
    for (size_t c = 0; c < want.sigmas.size(); ++c) {
      EXPECT_EQ(bits(want.sigmas[c]), bits(got.sigmas[c])) << "sigma " << c;
    }
    EXPECT_EQ(want.report.iterations, got.report.iterations);
    EXPECT_EQ(bits(want.report.initial_objective),
              bits(got.report.initial_objective));
    EXPECT_EQ(bits(want.report.final_objective),
              bits(got.report.final_objective));
    EXPECT_EQ(want.report.used_newton, got.report.used_newton);
  };

  const std::vector<AggregatedSession>& a = SharedCorpus().base;
  const std::vector<AggregatedSession>& b = SharedCorpus().drifted;
  const Fit fresh_a = fit_on_fresh_thread(a);
  const Fit fresh_b = fit_on_fresh_thread(b);
  // The corpora fit differently, so a row left over from one shows up in
  // the other.
  ASSERT_NE(bits(fresh_a.report.initial_objective),
            bits(fresh_b.report.initial_objective));
  expect_same(fresh_a, fit(a));
  expect_same(fresh_b, fit(b));
  expect_same(fresh_a, fit(a));

  std::vector<AggregatedSession> grown;
  grown.reserve(a.size() + b.size());  // grows in place: one address
  grown.assign(a.begin(), a.end());
  expect_same(fresh_a, fit(grown));
  grown.insert(grown.end(), b.begin(), b.end());
  const Fit fresh_grown = fit_on_fresh_thread(grown);
  expect_same(fresh_grown, fit(grown));
}

}  // namespace
}  // namespace sqp
