// The serve -> log -> retrain loop end to end. Two hard invariants ride
// on this file:
//  1. A ServeOptions::feedback hook with exploration disabled (no
//     explorer, or epsilon 0) is BIT-identical to serving with no hook at
//     all — same query ids, same score bits — on both engines and both
//     the single and batched paths. The hook appends observations; it may
//     never change the greedy answer.
//  2. Retrainer::ConsumeFeedback(log) publishes the same snapshot as
//     AppendSessions on the equivalent sessions directly — the closed
//     loop trains on exactly what SessionsFromFeedback says it does.

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/explorer.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve/sharded_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

namespace fs = std::filesystem;

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("sqp_closed_loop_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

RetrainerOptions TestOptions() {
  RetrainerOptions options;
  options.model.default_max_depth = 5;
  options.vocabulary_size = kVocabularyBound;
  return options;
}

/// Exact (bit-level) score compare on top of the id compare.
void ExpectBitIdentical(const Recommendation& expected,
                        const Recommendation& actual) {
  EXPECT_EQ(expected.covered, actual.covered);
  ASSERT_EQ(expected.queries.size(), actual.queries.size());
  for (size_t i = 0; i < expected.queries.size(); ++i) {
    EXPECT_EQ(expected.queries[i].query, actual.queries[i].query);
    EXPECT_EQ(std::bit_cast<uint64_t>(expected.queries[i].score),
              std::bit_cast<uint64_t>(actual.queries[i].score))
        << "score bits differ at rank " << i;
  }
}

TEST(ClosedLoopTest, DisabledHookIsBitIdenticalOnBothEnginesAndPaths) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  ShardedEngine sharded(ShardedEngineOptions{.num_shards = 4});
  ShardedRetrainerSet sharded_retrainers(&sharded, TestOptions());
  ASSERT_TRUE(sharded_retrainers.Bootstrap(SharedCorpus().base).ok());

  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  // Three disabled spellings: log only (no explorer), explicit kNone,
  // epsilon-greedy at epsilon == 0.
  const Explorer none({.policy = ExplorePolicy::kNone});
  const Explorer eps0(
      {.policy = ExplorePolicy::kEpsilonGreedy, .param = 0.0, .seed = 5});
  FeedbackHook log_only;
  log_only.log = log->get();
  FeedbackHook with_none;
  with_none.log = log->get();
  with_none.explorer = &none;
  FeedbackHook with_eps0;
  with_eps0.log = log->get();
  with_eps0.explorer = &eps0;

  const auto contexts = CollectContexts(SharedCorpus().base, 150);
  for (const std::vector<QueryId>& context : contexts) {
    const ContextRef ref(context.data(), context.size());
    const ServeResult plain = engine.Recommend(ref, 5, ServeOptions{});
    for (const FeedbackHook* hook : {&log_only, &with_none, &with_eps0}) {
      ServeOptions options;
      options.feedback = hook;
      const ServeResult hooked = engine.Recommend(ref, 5, options);
      ASSERT_EQ(hooked.status, plain.status);
      ExpectBitIdentical(plain.recommendation, hooked.recommendation);

      const ServeResult sharded_hooked = sharded.Recommend(ref, 5, options);
      ASSERT_EQ(sharded_hooked.status, plain.status);
      ExpectBitIdentical(plain.recommendation, sharded_hooked.recommendation);
    }
  }

  // The batched path too: one RecommendMany with and without the hook.
  std::vector<ContextRef> refs;
  refs.reserve(contexts.size());
  for (const std::vector<QueryId>& c : contexts) {
    refs.emplace_back(c.data(), c.size());
  }
  const BatchResult plain_batch = engine.RecommendMany(
      std::span<const ContextRef>(refs), 5, ServeOptions{});
  ServeOptions options;
  options.feedback = &with_eps0;
  const BatchResult hooked_batch =
      engine.RecommendMany(std::span<const ContextRef>(refs), 5, options);
  const BatchResult sharded_batch =
      sharded.RecommendMany(std::span<const ContextRef>(refs), 5, options);
  ASSERT_EQ(hooked_batch.results.size(), plain_batch.results.size());
  ASSERT_EQ(sharded_batch.results.size(), plain_batch.results.size());
  for (size_t i = 0; i < plain_batch.results.size(); ++i) {
    ExpectBitIdentical(plain_batch.results[i], hooked_batch.results[i]);
    ExpectBitIdentical(plain_batch.results[i], sharded_batch.results[i]);
  }

  // And the hook really observed the traffic it rode along with.
  EXPECT_GT(log->get()->stats().impressions_appended, 0u);
}

TEST(ClosedLoopTest, HookLogsImpressionsWithGreedyPropensities) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  FeedbackHook hook;
  hook.log = log->get();
  ServeOptions options;
  options.feedback = &hook;

  const auto contexts = CollectContexts(SharedCorpus().base, 20);
  size_t covered = 0;
  std::vector<uint64_t> record_ids;
  for (const std::vector<QueryId>& context : contexts) {
    const ServeResult served =
        engine.Recommend(ContextRef(context.data(), context.size()), 5,
                         options);
    if (served.recommendation.covered &&
        !served.recommendation.queries.empty()) {
      ++covered;
      EXPECT_GT(served.feedback_record_id, 0u);
      record_ids.push_back(served.feedback_record_id);
    } else {
      EXPECT_EQ(served.feedback_record_id, 0u);
    }
  }
  ASSERT_GT(covered, 0u);
  ASSERT_TRUE(log->get()->RecordClick(record_ids[0], 0).ok());

  const auto records = ReadFeedbackLog(dir.str());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), covered);
  for (const FeedbackRecord& record : *records) {
    EXPECT_EQ(record.policy, ExplorePolicy::kNone);
    EXPECT_EQ(record.snapshot_version, engine.current_version());
    ASSERT_FALSE(record.served.empty());
    // Greedy serving: the slot-1 item was served with certainty.
    EXPECT_EQ(record.served[0].propensity, 1.0);
    for (size_t i = 1; i < record.served.size(); ++i) {
      EXPECT_EQ(record.served[i].propensity, 0.0);
    }
    EXPECT_FALSE(record.context.empty());
  }
  EXPECT_EQ((*records)[0].clicked_position, 0u);
}

TEST(ClosedLoopTest, ExploringHookLogsTheRerankedListItServed) {
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  Retrainer retrainer(&engine, TestOptions());
  ASSERT_TRUE(retrainer.Bootstrap(SharedCorpus().base).ok());

  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  const Explorer explorer(
      {.policy = ExplorePolicy::kEpsilonGreedy, .param = 0.9, .seed = 11});
  FeedbackHook hook;
  hook.log = log->get();
  hook.explorer = &explorer;
  ServeOptions options;
  options.feedback = &hook;

  std::vector<std::pair<uint64_t, Recommendation>> served_lists;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 60)) {
    const ServeResult served =
        engine.Recommend(ContextRef(context.data(), context.size()), 5,
                         options);
    if (served.feedback_record_id != 0) {
      served_lists.emplace_back(served.feedback_record_id,
                                served.recommendation);
    }
  }
  ASSERT_FALSE(served_lists.empty());

  const auto records = ReadFeedbackLog(dir.str());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), served_lists.size());
  // What the log says was served is exactly what the caller got back —
  // the impression is written AFTER the rerank, propensities attached.
  for (size_t i = 0; i < records->size(); ++i) {
    const FeedbackRecord& record = (*records)[i];
    const Recommendation& answer = served_lists[i].second;
    EXPECT_EQ(record.record_id, served_lists[i].first);
    EXPECT_EQ(record.policy, ExplorePolicy::kEpsilonGreedy);
    EXPECT_EQ(record.policy_param, 0.9);
    ASSERT_EQ(record.served.size(), answer.queries.size());
    double sum = 0.0;
    for (size_t j = 0; j < record.served.size(); ++j) {
      EXPECT_EQ(record.served[j].query, answer.queries[j].query);
      EXPECT_EQ(std::bit_cast<uint64_t>(record.served[j].score),
                std::bit_cast<uint64_t>(answer.queries[j].score));
      sum += record.served[j].propensity;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

/// The property test the issue names: consuming a feedback log is
/// *exactly* appending SessionsFromFeedback(log) — same corpus, same
/// published snapshot, same answers to every probe.
TEST(ClosedLoopTest, ConsumeFeedbackEqualsDirectAppendAndIsIdempotent) {
  // Write a log whose clicked impressions we also keep in memory.
  TempDir dir;
  std::vector<FeedbackRecord> written;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    const auto contexts = CollectContexts(SharedCorpus().drifted, 120);
    for (size_t i = 0; i < contexts.size(); ++i) {
      FeedbackRecord record;
      record.record_id = (*log)->NextRecordId();
      record.snapshot_version = 1;
      record.context = contexts[i];
      // Served list: three arbitrary known queries.
      record.served = {{contexts[i][0], 0.5, 0.8},
                       {contexts[i].back(), 0.3, 0.1},
                       {contexts[i][0] + 1, 0.2, 0.1}};
      ASSERT_TRUE((*log)->AppendImpression(record).ok());
      // Click on a rotating subset — some impressions stay unclicked.
      if (i % 3 != 0) {
        const uint32_t position = static_cast<uint32_t>(i % 3 - 1);
        ASSERT_TRUE((*log)->RecordClick(record.record_id, position).ok());
        record.clicked_position = position;
      }
      written.push_back(std::move(record));
    }
    ASSERT_TRUE((*log)->Seal().ok());
  }

  // Engine A consumes the log; engine B appends the equivalent sessions.
  RecommenderEngine engine_a(EngineOptions{.num_threads = 1});
  Retrainer retrainer_a(&engine_a, TestOptions());
  ASSERT_TRUE(retrainer_a.Bootstrap(SharedCorpus().base).ok());
  RecommenderEngine engine_b(EngineOptions{.num_threads = 1});
  Retrainer retrainer_b(&engine_b, TestOptions());
  ASSERT_TRUE(retrainer_b.Bootstrap(SharedCorpus().base).ok());

  const auto consumed = retrainer_a.ConsumeFeedback(dir.str());
  ASSERT_TRUE(consumed.ok());
  const std::vector<AggregatedSession> expected_sessions =
      SessionsFromFeedback(written);
  ASSERT_GT(expected_sessions.size(), 0u);
  EXPECT_EQ(*consumed, expected_sessions.size());
  retrainer_b.AppendSessions(expected_sessions);

  ASSERT_TRUE(retrainer_a.RetrainOnce().ok());
  ASSERT_TRUE(retrainer_b.RetrainOnce().ok());
  EXPECT_EQ(retrainer_a.corpus_size(), retrainer_b.corpus_size());

  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().drifted, 200)) {
    ExpectSameRecommendation(engine_b.Recommend(context, 5).recommendation,
                             engine_a.Recommend(context, 5).recommendation);
  }

  // Idempotency: the watermark advanced past every record (clicked or
  // not), so a second consume of the same log is a no-op.
  const auto again = retrainer_a.ConsumeFeedback(dir.str());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);

  // New feedback after the watermark IS picked up.
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    FeedbackRecord record;
    record.record_id = (*log)->NextRecordId();
    record.context = {written[0].context[0]};
    record.served = {{written[0].context[0] + 1, 0.4, 1.0}};
    ASSERT_TRUE((*log)->AppendImpression(record).ok());
    ASSERT_TRUE((*log)->RecordClick(record.record_id, 0).ok());
    ASSERT_TRUE((*log)->Seal().ok());
  }
  const auto incremental = retrainer_a.ConsumeFeedback(dir.str());
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(*incremental, 1u);
}

TEST(ClosedLoopTest, ShardedConsumeFeedbackMatchesSingleEngineAnswers) {
  TempDir dir;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    for (const std::vector<QueryId>& context :
         CollectContexts(SharedCorpus().drifted, 80)) {
      FeedbackRecord record;
      record.record_id = (*log)->NextRecordId();
      record.context = context;
      record.served = {{context.back(), 0.6, 0.7},
                       {context[0], 0.4, 0.3}};
      ASSERT_TRUE((*log)->AppendImpression(record).ok());
      ASSERT_TRUE(
          (*log)->RecordClick(record.record_id, record.record_id % 2).ok());
    }
    ASSERT_TRUE((*log)->Seal().ok());
  }

  // The 4-shard fleet and the single engine consume the same log; the
  // sharded topology must not change any answer (its standing contract).
  // The fleet pins its sigma vector at Bootstrap and every incremental
  // rebuild reuses it, so the unsharded reference gets the same pinned
  // sigmas (the fleet-equivalence contract is always stated under them).
  ShardedEngine sharded(ShardedEngineOptions{.num_shards = 4});
  ShardedRetrainerSet sharded_retrainers(&sharded, TestOptions());
  ASSERT_TRUE(sharded_retrainers.Bootstrap(SharedCorpus().base).ok());

  RecommenderEngine single(EngineOptions{.num_threads = 1});
  RetrainerOptions single_options = TestOptions();
  single_options.model.fixed_sigmas = sharded_retrainers.sigmas();
  Retrainer single_retrainer(&single, single_options);
  ASSERT_TRUE(single_retrainer.Bootstrap(SharedCorpus().base).ok());

  const auto single_consumed = single_retrainer.ConsumeFeedback(dir.str());
  ASSERT_TRUE(single_consumed.ok());
  const auto sharded_consumed = sharded_retrainers.ConsumeFeedback(dir.str());
  ASSERT_TRUE(sharded_consumed.ok());
  EXPECT_EQ(*sharded_consumed, *single_consumed);
  EXPECT_GT(*sharded_consumed, 0u);

  ASSERT_TRUE(single_retrainer.RetrainOnce().ok());
  ASSERT_TRUE(sharded_retrainers.RetrainAll().ok());

  size_t mismatches = 0;
  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().drifted, 300)) {
    if (!SameRecommendation(single.Recommend(context, 5).recommendation,
                            sharded.Recommend(context, 5).recommendation)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // Fleet idempotency too.
  const auto again = sharded_retrainers.ConsumeFeedback(dir.str());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

}  // namespace
}  // namespace sqp
