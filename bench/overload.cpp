// Overload / QoS bench for the admission-controlled serving layer: drives
// the batch execution slot past saturation with unbounded bulk pressure
// and measures what the QoS machinery does to deadline-carrying traffic —
// admitted-request latency percentiles per lane, shed/expired/degraded
// counts, and the shed rate as the bulk pressure grows. Two claims are
// enforced in-binary (non-zero exit on violation), mirroring coldstart's
// self-enforcing style:
//
//  1. No-overload equivalence: with an idle queue and a generous deadline,
//     the bounded-deadline Recommend/RecommendMany answers of BOTH
//     engines (single + sharded) are bit-identical to their
//     unbounded-deadline answers.
//  2. Bounded tail under overload: past saturation the p99 latency of
//     ADMITTED interactive requests stays within a small multiple of the
//     deadline (waiting is capped by expiry-in-queue, execution by the
//     mid-batch cut), while excess load is shed explicitly rather than
//     convoying — and every request is accounted for as exactly one of
//     admitted / shed.
//
// A watchdog thread hard-exits(3) if the run wedges (a deadlock in the
// shed/admit/grant path is precisely the regression this bench guards
// against). Emits BENCH_overload.json (see bench/README.md).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/recommender_engine.h"
#include "serve/sharded_engine.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

constexpr double kInteractiveDeadlineUs = 5000.0;   // 5 ms budget
constexpr double kBulkDeadlineUs = 8000.0;          // 8 ms budget
constexpr double kMaxP99OverDeadline = 8.0;         // in-binary tail bound

double Percentile(std::vector<double>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t at = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[at];
}

std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

std::vector<ContextRef> MakeRefs(
    const std::vector<std::vector<QueryId>>& contexts, size_t count) {
  std::vector<ContextRef> refs;
  refs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const std::vector<QueryId>& context = contexts[i % contexts.size()];
    refs.emplace_back(context.data(), context.size());
  }
  return refs;
}

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  if (a.covered != b.covered || a.matched_length != b.matched_length ||
      a.queries.size() != b.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].query != b.queries[i].query ||
        a.queries[i].score != b.queries[i].score) {
      return false;
    }
  }
  return true;
}

/// Phase A: with no overload, the QoS paths must be invisible.
bool CheckNoOverloadEquivalence(
    const std::shared_ptr<const ModelSnapshot>& model,
    const std::vector<AggregatedSession>& corpus,
    const MvmmOptions& model_options, size_t vocabulary_size,
    const std::vector<std::vector<QueryId>>& contexts) {
  ServeOptions generous;
  generous.deadline = Deadline::After(std::chrono::seconds(30));
  const std::vector<ContextRef> refs = MakeRefs(contexts, contexts.size());

  bool equal = true;
  {
    RecommenderEngine engine(EngineOptions{.num_threads = 2});
    engine.Publish(model);
    const std::vector<Recommendation> unbounded =
        engine.RecommendMany(refs, 5, ServeOptions{}).results;
    for (const QosLane lane : {QosLane::kInteractive, QosLane::kBulk}) {
      ServeOptions options = generous;
      options.lane = lane;
      const BatchResult qos = engine.RecommendMany(
          std::span<const ContextRef>(refs), 5, options);
      if (!qos.admission.ok() || qos.served != refs.size() || qos.degraded) {
        equal = false;
      }
      for (size_t i = 0; i < refs.size() && equal; ++i) {
        if (qos.statuses[i] != StatusCode::kOk ||
            !SameRecommendation(unbounded[i], qos.results[i])) {
          equal = false;
        }
      }
    }
    for (size_t i = 0; i < 512 && equal; ++i) {
      const ServeResult single = engine.Recommend(refs[i], 5, generous);
      if (single.status != StatusCode::kOk || single.degraded ||
          !SameRecommendation(
              engine.Recommend(refs[i], 5, ServeOptions{}).recommendation,
              single.recommendation)) {
        equal = false;
      }
    }
  }
  {
    ShardedTrainOptions train;
    train.model = model_options;
    train.num_shards = 2;
    train.vocabulary_size = vocabulary_size;
    auto trained = TrainShardedSnapshots(corpus, train);
    SQP_CHECK(trained.ok());
    ShardedEngine engine(
        ShardedEngineOptions{.num_shards = 2, .num_threads = 2});
    for (size_t s = 0; s < 2; ++s) {
      engine.shard(s)->Publish(trained->shards[s]);
    }
    const std::vector<Recommendation> unbounded =
        engine.RecommendMany(refs, 5, ServeOptions{}).results;
    const BatchResult qos =
        engine.RecommendMany(std::span<const ContextRef>(refs), 5, generous);
    if (!qos.admission.ok() || qos.served != refs.size()) equal = false;
    for (size_t i = 0; i < refs.size() && equal; ++i) {
      if (qos.statuses[i] != StatusCode::kOk ||
          !SameRecommendation(unbounded[i], qos.results[i])) {
        equal = false;
      }
    }
  }
  return equal;
}

/// One lane's outcome over an overload run.
struct LaneOutcome {
  uint64_t issued = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;       // refused at admission (any reason)
  uint64_t degraded = 0;   // admitted with reduced top_n
  std::vector<double> admitted_latency_us;
};

struct OverloadResult {
  LaneOutcome interactive;
  LaneOutcome bulk;
  uint64_t saturator_batches = 0;  // unbounded bulk batches (never shed)
  uint64_t violations = 0;         // per-batch contract violations
  AdmissionStats engine_stats;
};

/// Phase B: saturate the slot with unbounded bulk batches while bounded
/// interactive + bulk producers race the deadline machinery. Producers are
/// paced (a real client backs off after a shed; a busy-spin would only
/// measure how fast the refusal path is) and the saturator sleeps briefly
/// between batches so admit windows exist even on a 1-core box.
OverloadResult RunOverload(const std::shared_ptr<const ModelSnapshot>& model,
                           const std::vector<std::vector<QueryId>>& contexts,
                           size_t saturator_threads, size_t saturator_items,
                           double seconds) {
  EngineOptions options;
  options.num_threads = 2;
  // Tiny lanes so overflow shedding is reachable with a handful of
  // producer threads; the defaults are sized for a fleet front-end.
  options.admission.interactive_capacity = 2;
  options.admission.bulk_capacity = 1;
  RecommenderEngine engine(options);
  engine.Publish(model);

  const std::vector<ContextRef> saturator_refs =
      MakeRefs(contexts, saturator_items);
  const std::vector<ContextRef> interactive_refs = MakeRefs(contexts, 64);
  const std::vector<ContextRef> bulk_refs = MakeRefs(contexts, 2048);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> saturator_batches{0};
  std::atomic<uint64_t> violations{0};
  std::mutex outcome_mu;
  LaneOutcome interactive_outcome;
  LaneOutcome bulk_outcome;

  // Bounded producer loop, shared by both lanes.
  const auto producer = [&](QosLane lane, const std::vector<ContextRef>& refs,
                            double deadline_us, LaneOutcome* outcome) {
    LaneOutcome local;
    while (!stop.load(std::memory_order_relaxed)) {
      ServeOptions serve;
      serve.lane = lane;
      serve.deadline = Deadline::After(std::chrono::microseconds(
          static_cast<int64_t>(deadline_us)));
      WallTimer timer;
      const BatchResult batch = engine.RecommendMany(
          std::span<const ContextRef>(refs), 10, serve);
      const double latency_us = timer.ElapsedSeconds() * 1e6;
      ++local.issued;

      // Contract checks (cheap enough to run on every batch).
      uint64_t bad = 0;
      if (batch.results.size() != refs.size() ||
          batch.statuses.size() != refs.size()) {
        ++bad;
      }
      size_t ok_items = 0;
      for (size_t i = 0; i < batch.statuses.size(); ++i) {
        if (batch.statuses[i] == StatusCode::kOk) {
          ++ok_items;
          if (batch.results[i].queries.size() > batch.effective_top_n) ++bad;
        } else if (!batch.results[i].queries.empty()) {
          ++bad;  // a non-served item must be uncovered-empty
        }
      }
      if (ok_items != batch.served) ++bad;

      if (batch.admission.ok()) {
        ++local.admitted;
        if (batch.degraded) ++local.degraded;
        local.admitted_latency_us.push_back(latency_us);
      } else {
        ++local.shed;
        if (batch.admission.code() != StatusCode::kDeadlineExceeded &&
            batch.admission.code() != StatusCode::kResourceExhausted) {
          ++bad;
        }
        if (batch.served != 0) ++bad;  // a shed batch serves nothing
      }
      if (bad != 0) violations.fetch_add(bad);
      std::this_thread::sleep_for(std::chrono::microseconds(
          lane == QosLane::kInteractive ? 500 : 2000));
    }
    std::lock_guard<std::mutex> lock(outcome_mu);
    outcome->issued += local.issued;
    outcome->admitted += local.admitted;
    outcome->shed += local.shed;
    outcome->degraded += local.degraded;
    outcome->admitted_latency_us.insert(outcome->admitted_latency_us.end(),
                                        local.admitted_latency_us.begin(),
                                        local.admitted_latency_us.end());
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < saturator_threads; ++t) {
    threads.emplace_back([&] {
      // Unbounded-deadline bulk batches: exempt from all shedding, they
      // are the pressure the bounded traffic must survive.
      ServeOptions saturate;
      saturate.lane = QosLane::kBulk;
      while (!stop.load(std::memory_order_relaxed)) {
        const BatchResult batch = engine.RecommendMany(
            std::span<const ContextRef>(saturator_refs), 10, saturate);
        if (batch.served != saturator_refs.size()) violations.fetch_add(1);
        saturator_batches.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(producer, QosLane::kInteractive,
                         std::cref(interactive_refs), kInteractiveDeadlineUs,
                         &interactive_outcome);
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(producer, QosLane::kBulk, std::cref(bulk_refs),
                         kBulkDeadlineUs, &bulk_outcome);
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1e3)));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  OverloadResult result;
  result.interactive = std::move(interactive_outcome);
  result.bulk = std::move(bulk_outcome);
  result.saturator_batches = saturator_batches.load();
  result.violations = violations.load();
  result.engine_stats = engine.stats().admission;
  return result;
}

struct LaneRow {
  std::string load;
  const char* lane;
  double deadline_us;
  LaneOutcome outcome;
  LaneCounters counters;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

void FinishRow(LaneRow* row) {
  row->p50_us = Percentile(&row->outcome.admitted_latency_us, 0.50);
  row->p99_us = Percentile(&row->outcome.admitted_latency_us, 0.99);
}

void WriteJson(int equal, const std::vector<LaneRow>& rows,
               uint64_t total_violations, size_t hardware_threads) {
  std::FILE* out = std::fopen("BENCH_overload.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_overload.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  std::fprintf(out,
               "  {\"name\": \"no_overload_equivalence\", \"equal\": %d, "
               "\"hardware_threads\": %zu},\n",
               equal, hardware_threads);
  for (const LaneRow& row : rows) {
    std::fprintf(
        out,
        "  {\"name\": \"overload_%s\", \"load\": \"%s\", "
        "\"deadline_us\": %.0f, \"issued\": %llu, \"admitted\": %llu, "
        "\"shed\": %llu, \"shed_queue_full\": %llu, "
        "\"shed_deadline\": %llu, \"expired_in_queue\": %llu, "
        "\"expired_items\": %llu, \"degraded\": %llu, "
        "\"shed_rate\": %.3f, \"p50_admitted_us\": %.1f, "
        "\"p99_admitted_us\": %.1f, \"p99_over_deadline\": %.3f},\n",
        row.lane, row.load.c_str(), row.deadline_us,
        static_cast<unsigned long long>(row.outcome.issued),
        static_cast<unsigned long long>(row.outcome.admitted),
        static_cast<unsigned long long>(row.outcome.shed),
        static_cast<unsigned long long>(row.counters.shed_queue_full),
        static_cast<unsigned long long>(row.counters.shed_deadline),
        static_cast<unsigned long long>(row.counters.expired_in_queue),
        static_cast<unsigned long long>(row.counters.expired_items),
        static_cast<unsigned long long>(row.outcome.degraded),
        row.outcome.issued == 0
            ? 0.0
            : static_cast<double>(row.outcome.shed) /
                  static_cast<double>(row.outcome.issued),
        row.p50_us, row.p99_us, row.p99_us / row.deadline_us);
  }
  std::fprintf(out,
               "  {\"name\": \"shed_correctness\", \"ok\": %d, "
               "\"violations\": %llu}\n",
               total_violations == 0 ? 1 : 0,
               static_cast<unsigned long long>(total_violations));
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_overload.json\n");
}

}  // namespace

int main() {
  // If any part of the admission path deadlocks, fail loudly instead of
  // hanging the CI job until its global timeout.
  std::atomic<bool> done{false};
  std::thread watchdog([&done] {
    for (int i = 0; i < 120 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    if (!done.load()) {
      std::fprintf(stderr,
                   "ERROR: overload bench wedged (>120s) — admission "
                   "deadlock?\n");
      _exit(3);
    }
  });

  Harness harness;
  sqp::bench::PrintBanner(
      harness, "overload shedding / QoS lanes (admission-controlled slot)",
      "no-overload QoS answers are bit-identical to unbounded-deadline "
      "answers; past "
      "saturation, admitted interactive p99 stays within a small multiple "
      "of the deadline while excess load is shed explicitly");

  const size_t hardware =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("hardware threads: %zu\n\n", hardware);

  MvmmOptions model_options;
  model_options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), model_options, 1);
  SQP_CHECK(built.ok());
  const std::shared_ptr<const ModelSnapshot> model = built.value();
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  // Phase A: the QoS layer must be invisible without overload.
  const bool equal = CheckNoOverloadEquivalence(
      model, harness.train(), model_options,
      harness.training_data().vocabulary_size, contexts);
  std::printf("no_overload_equivalence  equal=%s\n", equal ? "yes" : "NO");

  // Phase B: two pressure levels — the shed rate must respond to load,
  // the admitted tail must not. The saturator batch sizes bracket the
  // interactive deadline: the light hold usually fits inside it (most
  // arrivals admitted), the heavy hold overruns it on any machine speed
  // (the EWMA projection sheds most arrivals on sight).
  struct LoadLevel {
    const char* load;
    size_t saturators;
    size_t saturator_items;
  };
  std::vector<LaneRow> rows;
  uint64_t total_violations = 0;
  uint64_t interactive_admitted = 0;
  uint64_t total_shed = 0;
  double light_shed_rate = 0.0;
  double heavy_shed_rate = 0.0;
  double worst_p99_ratio = 0.0;
  for (const LoadLevel& level : {LoadLevel{"light", 1, 8 * 1024},
                                 LoadLevel{"heavy", 2, 32 * 1024}}) {
    OverloadResult result = RunOverload(model, contexts, level.saturators,
                                        level.saturator_items,
                                        /*seconds=*/1.5);
    const char* load = level.load;
    total_violations += result.violations;

    LaneRow interactive{load, "interactive", kInteractiveDeadlineUs,
                        std::move(result.interactive),
                        result.engine_stats.lane(QosLane::kInteractive)};
    FinishRow(&interactive);
    LaneRow bulk{load, "bulk", kBulkDeadlineUs, std::move(result.bulk),
                 result.engine_stats.lane(QosLane::kBulk)};
    FinishRow(&bulk);

    for (const LaneRow& row : {interactive, bulk}) {
      std::printf(
          "overload[%s] %-11s issued=%-5llu admitted=%-5llu shed=%-5llu "
          "degraded=%-4llu p99=%.0fus (%.2fx deadline)\n",
          row.load.c_str(), row.lane,
          static_cast<unsigned long long>(row.outcome.issued),
          static_cast<unsigned long long>(row.outcome.admitted),
          static_cast<unsigned long long>(row.outcome.shed),
          static_cast<unsigned long long>(row.outcome.degraded), row.p99_us,
          row.p99_us / row.deadline_us);
    }
    std::printf("overload[%s] saturator batches=%llu  violations=%llu\n",
                load, static_cast<unsigned long long>(result.saturator_batches),
                static_cast<unsigned long long>(result.violations));

    interactive_admitted += interactive.outcome.admitted;
    total_shed += interactive.outcome.shed + bulk.outcome.shed;
    // The p99 bound only means something with a real sample count; a row
    // that admitted almost nothing contributes shed evidence instead.
    if (interactive.outcome.admitted >= 100) {
      worst_p99_ratio = std::max(
          worst_p99_ratio, interactive.p99_us / kInteractiveDeadlineUs);
    }
    const double shed_rate =
        interactive.outcome.issued == 0
            ? 0.0
            : static_cast<double>(interactive.outcome.shed) /
                  static_cast<double>(interactive.outcome.issued);
    (std::string(load) == "heavy" ? heavy_shed_rate : light_shed_rate) =
        shed_rate;
    rows.push_back(std::move(interactive));
    rows.push_back(std::move(bulk));
  }

  WriteJson(equal ? 1 : 0, rows, total_violations, hardware);
  done.store(true);
  watchdog.join();

  bool failed = false;
  if (!equal) {
    std::fprintf(stderr,
                 "ERROR: bounded-deadline answers diverged from the "
                 "unbounded-deadline answers without overload\n");
    failed = true;
  }
  if (total_violations != 0) {
    std::fprintf(stderr, "ERROR: %llu shed/serve contract violation(s)\n",
                 static_cast<unsigned long long>(total_violations));
    failed = true;
  }
  if (interactive_admitted < 100 || total_shed == 0) {
    std::fprintf(stderr,
                 "ERROR: the run must both admit interactive traffic and "
                 "shed excess load (admitted=%llu shed=%llu) — saturation "
                 "not reached, or everything shed?\n",
                 static_cast<unsigned long long>(interactive_admitted),
                 static_cast<unsigned long long>(total_shed));
    failed = true;
  }
  if (heavy_shed_rate + 0.05 < light_shed_rate) {
    std::fprintf(stderr,
                 "ERROR: shed rate fell as pressure grew (light %.3f -> "
                 "heavy %.3f) — the ladder is not responding to load\n",
                 light_shed_rate, heavy_shed_rate);
    failed = true;
  }
  if (worst_p99_ratio > kMaxP99OverDeadline) {
    std::fprintf(stderr,
                 "ERROR: admitted interactive p99 is %.2fx the deadline "
                 "(bound %.1fx) — the tail is not bounded\n",
                 worst_p99_ratio, kMaxP99OverDeadline);
    failed = true;
  }
  return failed ? 1 : 0;
}
