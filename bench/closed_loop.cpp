// Closed-loop serving bench + self-check: the cost of the feedback path
// (log append ns/record, exploration rerank ns/call, retrain-from-
// feedback wall time) and the two hard correctness bars the loop rides
// on, enforced by exit code so CI fails even before the JSON gate runs:
//
//  1. closed_loop_equivalence — serving with a ServeOptions::feedback
//     hook whose exploration is disabled (no explorer, or epsilon 0) is
//     BIT-identical (query ids AND score bits) to serving with no hook,
//     on both the single engine and the sharded fleet.
//  2. consume_equivalence — over several seal -> ConsumeFeedback ->
//     RetrainOnce rounds on one open log, Retrainer::ConsumeFeedback(log)
//     publishes snapshots bit-identical to AppendSessions of the same
//     sessions appended directly.
//
// Emits BENCH_feedback.json (see bench/README.md); gated in
// bench/baselines.json with equal >= 1 (zero-margin) plus generous
// nanosecond bounds on the mechanical costs.

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/explorer.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "serve/sharded_engine.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Measurement {
  std::string name;
  std::string detail;
  double value = 0.0;
  std::string metric;  // JSON key the value is reported under
};

/// Covered test contexts (length <= 5).
std::vector<std::vector<QueryId>> Contexts(const Harness& harness,
                                           size_t limit) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= limit) break;
  }
  return out;
}

bool BitIdentical(const Recommendation& a, const Recommendation& b) {
  if (a.covered != b.covered) return false;
  if (a.queries.size() != b.queries.size()) return false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].query != b.queries[i].query) return false;
    if (std::bit_cast<uint64_t>(a.queries[i].score) !=
        std::bit_cast<uint64_t>(b.queries[i].score)) {
      return false;
    }
  }
  return true;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("sqp_bench_feedback_" + tag)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

void WriteJson(const std::vector<Measurement>& measurements) {
  std::FILE* out = std::fopen("BENCH_feedback.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_feedback.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"detail\": \"%s\", \"%s\": %.3f}%s\n",
                 m.name.c_str(), m.detail.c_str(), m.metric.c_str(), m.value,
                 i + 1 == measurements.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_feedback.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "closed-loop serving (feedback log + exploration + retrain)",
      "exploration-disabled serving is bit-identical to pre-feedback "
      "serving; ConsumeFeedback equals direct appends; log/rerank costs "
      "stay in the serving-hot-path class");

  MvmmOptions model_options;
  model_options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), model_options, 1);
  SQP_CHECK(built.ok());
  const std::shared_ptr<const ModelSnapshot> model = built.value();
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness, 2048);
  SQP_CHECK(!contexts.empty());

  std::vector<Measurement> measurements;
  bool all_ok = true;

  // ---------------------------------------------------------------------
  // Bar 1: exploration-disabled hook serving is bit-identical, both
  // engines, single and batched paths.
  {
    TempDir dir("equiv");
    auto log = FeedbackLog::Open({.dir = dir.str()});
    SQP_CHECK(log.ok());
    const Explorer eps0(
        {.policy = ExplorePolicy::kEpsilonGreedy, .param = 0.0, .seed = 1});
    FeedbackHook log_only;
    log_only.log = log->get();
    FeedbackHook eps0_hook;
    eps0_hook.log = log->get();
    eps0_hook.explorer = &eps0;

    RecommenderEngine single(EngineOptions{.num_threads = 1});
    single.Publish(model);
    ShardedEngine sharded(ShardedEngineOptions{.num_shards = 4});
    {
      // Each engine is compared against itself (hooked vs plain), so the
      // fleet just needs *a* corpus; bootstrap then let the set go.
      ShardedRetrainerSet retrainers(&sharded, RetrainerOptions{
          .model = model_options,
          .vocabulary_size = harness.training_data().vocabulary_size});
      SQP_CHECK_OK(retrainers.Bootstrap(harness.train()));
    }

    size_t mismatches_single = 0;
    size_t mismatches_sharded = 0;
    for (const std::vector<QueryId>& context : contexts) {
      const ContextRef ref(context.data(), context.size());
      const ServeResult plain = single.Recommend(ref, 5, ServeOptions{});
      const ServeResult sharded_plain =
          sharded.Recommend(ref, 5, ServeOptions{});
      for (const FeedbackHook* hook : {&log_only, &eps0_hook}) {
        ServeOptions options;
        options.feedback = hook;
        if (!BitIdentical(plain.recommendation,
                          single.Recommend(ref, 5, options).recommendation)) {
          ++mismatches_single;
        }
        if (!BitIdentical(
                sharded_plain.recommendation,
                sharded.Recommend(ref, 5, options).recommendation)) {
          ++mismatches_sharded;
        }
      }
    }
    const bool single_ok = mismatches_single == 0;
    const bool sharded_ok = mismatches_sharded == 0;
    all_ok = all_ok && single_ok && sharded_ok;
    std::printf("closed_loop_equivalence single:  %s (%zu contexts)\n",
                single_ok ? "bit-identical" : "MISMATCH",
                contexts.size());
    std::printf("closed_loop_equivalence sharded: %s (%zu contexts)\n",
                sharded_ok ? "bit-identical" : "MISMATCH",
                contexts.size());
    measurements.push_back({"closed_loop_equivalence", "single",
                            single_ok ? 1.0 : 0.0, "equal"});
    measurements.push_back({"closed_loop_equivalence", "sharded",
                            sharded_ok ? 1.0 : 0.0, "equal"});
  }

  // ---------------------------------------------------------------------
  // Cost 1: feedback log append, ns/record on the serving thread.
  {
    TempDir dir("write");
    auto log = FeedbackLog::Open({.dir = dir.str()});
    SQP_CHECK(log.ok());
    FeedbackRecord record;
    record.snapshot_version = 1;
    record.context = {1, 2, 3};
    record.served = {{10, 0.5, 0.9}, {11, 0.3, 0.05}, {12, 0.1, 0.03},
                     {13, 0.05, 0.01}, {14, 0.05, 0.01}};
    const size_t rounds = 20000;
    WallTimer timer;
    for (size_t i = 0; i < rounds; ++i) {
      record.record_id = (*log)->NextRecordId();
      SQP_CHECK_OK((*log)->AppendImpression(record));
    }
    const double ns = timer.ElapsedSeconds() * 1e9 / rounds;
    std::printf("feedback_log_write: %.0f ns/record (%zu records)\n", ns,
                rounds);
    measurements.push_back(
        {"feedback_log_write", "5-item impression", ns, "write_ns"});
  }

  // ---------------------------------------------------------------------
  // Cost 2: exploration rerank, ns/call (epsilon 0.1 over 5 items).
  {
    const Explorer explorer(
        {.policy = ExplorePolicy::kEpsilonGreedy, .param = 0.1, .seed = 7});
    std::vector<ScoredQuery> base = {
        {10, 0.40}, {11, 0.25}, {12, 0.20}, {13, 0.10}, {14, 0.05}};
    std::vector<ScoredQuery> list;
    std::vector<double> propensities;
    const size_t rounds = 200000;
    WallTimer timer;
    for (size_t i = 1; i <= rounds; ++i) {
      list = base;
      explorer.Rerank(i, &list, &propensities);
    }
    const double ns = timer.ElapsedSeconds() * 1e9 / rounds;
    std::printf("rerank: %.0f ns/call (epsilon 0.1, 5 items)\n", ns);
    measurements.push_back(
        {"rerank", "epsilon 0.1 over 5 items", ns, "rerank_ns"});
  }

  // ---------------------------------------------------------------------
  // Bar 2 + cost 3: ConsumeFeedback equals direct appends over several
  // seal -> consume -> retrain rounds on one open log, and the wall time
  // of a round. The log carries clicked impressions derived from harness
  // test sessions. Each round's first click is written after its
  // impression's segment was sealed, and every round after the first
  // starts past segments the cursor already read, so the cursor's
  // read-each-sealed-segment-once skip is held to the same bar.
  {
    constexpr size_t kRounds = 3;
    TempDir dir("consume");
    auto log = FeedbackLog::Open({.dir = dir.str()});
    SQP_CHECK(log.ok());

    RecommenderEngine engine_consume(EngineOptions{.num_threads = 1});
    RetrainerOptions retrain_options;
    retrain_options.model = model_options;
    retrain_options.vocabulary_size = harness.training_data().vocabulary_size;
    Retrainer consume_retrainer(&engine_consume, retrain_options);
    SQP_CHECK_OK(consume_retrainer.Bootstrap(harness.train()));

    RecommenderEngine engine_direct(EngineOptions{.num_threads = 1});
    Retrainer direct_retrainer(&engine_direct, retrain_options);
    SQP_CHECK_OK(direct_retrainer.Bootstrap(harness.train()));

    std::vector<const AggregatedSession*> feedback_sessions;
    for (const AggregatedSession& session : harness.test()) {
      if (feedback_sessions.size() >= 2000) break;
      if (session.queries.size() >= 2) feedback_sessions.push_back(&session);
    }
    const size_t per_round = feedback_sessions.size() / kRounds;
    SQP_CHECK(per_round > 0);

    size_t consumed_total = 0;
    size_t written_total = 0;
    size_t mismatches = 0;
    double round_ms_total = 0.0;
    for (size_t round = 0; round < kRounds; ++round) {
      std::vector<FeedbackRecord> written;
      for (size_t i = round * per_round; i < (round + 1) * per_round; ++i) {
        const AggregatedSession& session = *feedback_sessions[i];
        FeedbackRecord record;
        record.record_id = (*log)->NextRecordId();
        record.snapshot_version = 1;
        record.context.assign(session.queries.begin(),
                              session.queries.end() - 1);
        record.served = {{session.queries.back(), 0.6, 0.8},
                         {session.queries.front(), 0.4, 0.2}};
        SQP_CHECK_OK((*log)->AppendImpression(record));
        // The round's first impression is clicked below, once sealed.
        if (i % 2 == 0 && !written.empty()) {
          SQP_CHECK_OK((*log)->RecordClick(record.record_id, 0));
          record.clicked_position = 0;
        }
        written.push_back(std::move(record));
      }
      SQP_CHECK_OK((*log)->Seal());
      SQP_CHECK_OK((*log)->RecordClick(written.front().record_id, 0));
      written.front().clicked_position = 0;
      SQP_CHECK_OK((*log)->Seal());

      WallTimer timer;
      const auto consumed = consume_retrainer.ConsumeFeedback(dir.str());
      SQP_CHECK(consumed.ok());
      SQP_CHECK_OK(consume_retrainer.RetrainOnce());
      round_ms_total += timer.ElapsedSeconds() * 1e3;

      direct_retrainer.AppendSessions(SessionsFromFeedback(written));
      SQP_CHECK_OK(direct_retrainer.RetrainOnce());

      for (const std::vector<QueryId>& context : contexts) {
        const ContextRef ref(context.data(), context.size());
        if (!BitIdentical(
                engine_consume.Recommend(ref, 5, ServeOptions{})
                    .recommendation,
                engine_direct.Recommend(ref, 5, ServeOptions{})
                    .recommendation)) {
          ++mismatches;
        }
      }
      consumed_total += *consumed;
      written_total += written.size();
    }
    const double consume_ms = round_ms_total / kRounds;
    const bool consume_ok = mismatches == 0;
    all_ok = all_ok && consume_ok;
    std::printf("consume_equivalence: %s (%zu rounds, %zu clicked of %zu "
                "records, %.1f ms per consume + retrain)\n",
                consume_ok ? "bit-identical" : "MISMATCH", kRounds,
                consumed_total, written_total, consume_ms);
    measurements.push_back({"consume_equivalence", "retrainer",
                            consume_ok ? 1.0 : 0.0, "equal"});
    measurements.push_back({"retrain_from_feedback",
                            "consume + one retrain cycle", consume_ms,
                            "ms"});
  }

  WriteJson(measurements);
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: a closed-loop equivalence bar was violated (the "
                 "feedback hook changed a served answer, or "
                 "ConsumeFeedback diverged from direct appends)\n");
    return 1;
  }
  return 0;
}
