// closed_loop: writes beside reads. A reader serves single queries through
// a FeedbackHook (epsilon-greedy Explorer + FeedbackLog) and records a
// click whenever the true next query was served; every kImpressions
// impressions a retrain thread seals the log, runs ConsumeFeedback and
// RetrainOnce (persist + compact publish) while the reader goes on with
// plain reads. The impression count and the schedule are fixed per
// episode, so the number of cycles and their inputs match from run to run;
// episodes repeat until the run's time is used. Neither TCP nor the worker
// pool is on the path.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/explorer.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"

namespace perfbench {

namespace {

using sqp::ContextRef;

constexpr size_t kImpressions = 10000;  // per retrain cycle
constexpr size_t kCycles = 5;           // per episode
constexpr double kEpsilon = 0.1;
/// The traced reader records spans for one request in this many, to keep
/// the trace in memory.
constexpr size_t kTraceEvery = 16;
/// The reader and the retrain thread each keep one CPU, so every run
/// places them alike.
constexpr int kReaderCpu = 1;
constexpr int kRetrainCpu = 2;

struct EpisodeResult {
  double setup_s = 0.0;
  double first_query_us = 0.0;
  std::vector<double> latency_us;       // hooked requests
  std::vector<double> swap_latency_us;  // plain reads during rebuilds
  double busy_s = 0.0;  // time spent on the hooked requests
  uint64_t requests = 0;  // hooked requests: the same count every episode
  uint64_t swap_requests = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  uint64_t impressions = 0;
  std::vector<double> retrain_ms;
  size_t published_cycles = 0;
  double model_mb = 0.0;
  uint64_t dropped_appends = 0;
  sqp::RetrainerStats retrainer;
  std::vector<double> fresh_ratio;
  std::shared_ptr<const sqp::ServingSnapshot> final_snapshot;
};

/// Hands each scheduled cycle to the retrain thread and tells the reader
/// when the cycle's model is live.
class RetrainSchedule {
 public:
  void Request(size_t cycle) {
    std::lock_guard<std::mutex> lock(mu_);
    requested_ = cycle;
    cv_.notify_all();
  }
  void AwaitRequested(size_t cycle) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return requested_ >= cycle; });
  }
  void MarkLive(size_t cycle) { live_.store(cycle, std::memory_order_release); }
  bool Live(size_t cycle) const {
    return live_.load(std::memory_order_acquire) >= cycle;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t requested_ = 0;
  std::atomic<size_t> live_{0};
};

/// One episode. The reader serves hooked requests until the cycle's
/// impressions are logged, then plain reads (no feedback) until the
/// retrain thread's new model is live. So every hooked request of an
/// episode is served by a model fixed by the schedule, and every episode
/// of a seed logs the same feedback, retrains the same models and scores
/// the same answers, however fast the host runs.
EpisodeResult RunEpisode(const sqp::bench::Harness& harness,
                         const std::vector<TestPair>& pairs,
                         const std::string& dir, uint64_t explore_seed,
                         SpanBuffer* reader_spans, SpanBuffer* retrain_spans) {
  EpisodeResult out;
  std::filesystem::create_directories(dir);
  const std::string log_dir = dir + "/feedback";

  const int64_t setup_start = NowNs();
  auto opened = sqp::FeedbackLog::Open({.dir = log_dir});
  SQP_CHECK(opened.ok());
  sqp::FeedbackLog& log = **opened;
  const sqp::Explorer explorer({.policy = sqp::ExplorePolicy::kEpsilonGreedy,
                                .param = kEpsilon,
                                .seed = explore_seed});
  sqp::FeedbackHook hook;
  hook.log = &log;
  hook.explorer = &explorer;
  sqp::RecommenderEngine engine(sqp::EngineOptions{.num_threads = 1});
  sqp::RetrainerOptions retrain_options;
  retrain_options.model = ModelOptions();
  retrain_options.vocabulary_size = harness.training_data().vocabulary_size;
  retrain_options.publish_compact = true;
  retrain_options.persist_path = dir + "/model.blob";
  sqp::Retrainer retrainer(&engine, retrain_options);
  SQP_CHECK_OK(retrainer.Bootstrap(harness.train()));
  const int64_t published = NowNs();
  sqp::ServeOptions serve;
  serve.feedback = &hook;
  SQP_CHECK(engine.Recommend(pairs.front().context, kTopN, serve).status ==
            sqp::StatusCode::kOk);
  const int64_t first_answer = NowNs();
  out.first_query_us = (first_answer - published) / 1e3;
  out.setup_s = (first_answer - setup_start) / 1e9;

  RetrainSchedule schedule;
  std::vector<double> retrain_ms(kCycles, 0.0);
  std::vector<double> fresh_ratio;
  bool cycles_ok = true;
  std::thread retrain_thread([&] {
    PinThisThread(kRetrainCpu);
    uint64_t watermark = 0;
    for (size_t c = 1; c <= kCycles; ++c) {
      schedule.AwaitRequested(c);
      ScopedSpan cycle_span(retrain_spans, "bench.retrain_cycle", c);
      const int64_t start = NowNs();
      {
        ScopedSpan span(retrain_spans, "serve.feedback.seal", c);
        SQP_CHECK_OK(log.Seal());
      }
      if (retrain_spans != nullptr) {
        // No hooked request runs until the cycle is live, so this read
        // sees what Consume will.
        auto records = sqp::ReadFeedbackLog(log_dir);
        SQP_CHECK(records.ok());
        size_t fresh = 0;
        for (const sqp::FeedbackRecord& record : *records) {
          fresh += record.record_id > watermark;
          watermark = std::max(watermark, record.record_id);
        }
        if (!records->empty()) {
          fresh_ratio.push_back(static_cast<double>(fresh) /
                                static_cast<double>(records->size()));
        }
      }
      {
        ScopedSpan span(retrain_spans, "serve.retrainer.consume", c);
        SQP_CHECK(retrainer.ConsumeFeedback(log_dir).ok());
      }
      {
        ScopedSpan span(retrain_spans, "serve.retrainer.retrain", c);
        if (!retrainer.RetrainOnce().ok()) cycles_ok = false;
      }
      if (engine.current_version() != c + 1) cycles_ok = false;
      retrain_ms[c - 1] = (NowNs() - start) / 1e6;
      schedule.MarkLive(c);
    }
  });

  PinThisThread(kReaderCpu);
  const size_t n = pairs.size();
  size_t cursor = 0;
  size_t swap_cursor = 0;
  int64_t busy_ns = 0;
  uint64_t request_id = 0;
  for (size_t cycle = 1; cycle <= kCycles; ++cycle) {
    const int64_t phase_start = NowNs();
    while (out.impressions < cycle * kImpressions) {
      const TestPair& pair = pairs[cursor++ % n];
      const ContextRef context(pair.context);
      const bool traced =
          reader_spans != nullptr && request_id % kTraceEvery == 0;
      sqp::ServeResult result;
      const int64_t start = NowNs();
      if (!traced) {
        result = engine.Recommend(context, kTopN, serve);
      } else {
        // The hook's two calls, made from here so each gets its own span;
        // FeedbackHook::OnServed makes the same calls inside the engine.
        ScopedSpan root(reader_spans, "bench.request", request_id);
        {
          ScopedSpan span(reader_spans, "bench.reader.engine_call",
                          request_id);
          result = engine.Recommend(context, kTopN, sqp::ServeOptions{});
        }
        sqp::Recommendation& rec = result.recommendation;
        if (rec.covered && !rec.queries.empty()) {
          const uint64_t record_id = log.NextRecordId();
          std::vector<double> propensities;
          {
            ScopedSpan span(reader_spans, "serve.explorer.rerank", request_id);
            explorer.Rerank(record_id, &rec.queries, &propensities);
          }
          sqp::FeedbackRecord record;
          record.record_id = record_id;
          record.snapshot_version = result.served_version;
          record.policy = explorer.options().policy;
          record.policy_param = explorer.options().param;
          record.context.assign(context.begin(), context.end());
          for (size_t i = 0; i < rec.queries.size(); ++i) {
            record.served.push_back({rec.queries[i].query,
                                     rec.queries[i].score, propensities[i]});
          }
          {
            // A failed append is counted in the log's dropped_appends.
            ScopedSpan span(reader_spans, "serve.feedback.append", request_id);
            (void)log.AppendImpression(record);
          }
          result.feedback_record_id = record_id;
        }
      }
      const int64_t end = NowNs();
      out.latency_us.push_back((end - start) / 1e3);
      ++out.requests;
      ++request_id;
      if (result.status != sqp::StatusCode::kOk) ++out.failed;
      const int slot = SlotOf(result.recommendation, pair.next);
      if (slot >= 0) ++out.hits;
      if (result.feedback_record_id == 0) continue;
      ++out.impressions;
      if (slot >= 0) {
        ScopedSpan span(traced ? reader_spans : nullptr,
                        "serve.feedback.click", request_id);
        SQP_CHECK_OK(log.RecordClick(result.feedback_record_id,
                                     static_cast<uint32_t>(slot)));
      }
    }
    busy_ns += NowNs() - phase_start;
    schedule.Request(cycle);
    // Reads go on, without feedback, while the model is rebuilt and
    // swapped under them.
    while (!schedule.Live(cycle)) {
      const int64_t start = NowNs();
      const sqp::ServeResult result = engine.Recommend(
          ContextRef(pairs[swap_cursor++ % n].context), kTopN,
          sqp::ServeOptions{});
      out.swap_latency_us.push_back((NowNs() - start) / 1e3);
      ++out.swap_requests;
      if (result.status != sqp::StatusCode::kOk) ++out.failed;
    }
  }
  PinThisThread(-1);
  retrain_thread.join();
  out.busy_s = busy_ns / 1e9;
  out.retrain_ms = retrain_ms;
  out.fresh_ratio = fresh_ratio;
  out.published_cycles =
      cycles_ok ? static_cast<size_t>(retrainer.published_version() - 1) : 0;
  out.final_snapshot = engine.CurrentSnapshot();
  out.model_mb = out.final_snapshot->Stats().memory_bytes / 1e6;
  out.dropped_appends = log.stats().dropped_appends;
  out.retrainer = retrainer.stats();
  return out;
}

}  // namespace

int RunClosedLoop(const RunOptions& options, Report* report) {
  const Seeds seeds = DeriveSeeds(options.seed, 50000, 12500);
  Watchdog watchdog(160.0);
  watchdog.Stage("corpus synthesis");
  const sqp::bench::Harness harness(seeds.harness);
  const std::vector<TestPair> pairs = TestPairs(harness, seeds.order);
  report->Record("corpus_train_sessions", 50000.0);
  report->Record("corpus_test_sessions", 12500.0);
  report->Record("corpus_queries",
                 static_cast<double>(harness.dictionary().size()));
  report->Record("test_pairs", static_cast<double>(pairs.size()));
  report->Record("impressions_per_cycle", static_cast<double>(kImpressions));
  report->Record("cycles_per_episode", static_cast<double>(kCycles));

  SpanBuffer reader_spans(size_t{1} << 22);
  SpanBuffer retrain_spans;
  std::vector<EpisodeResult> untraced;
  std::vector<EpisodeResult> traced;
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    std::vector<EpisodeResult>& results = phase == 0 ? untraced : traced;
    const int64_t end = NowNs() + static_cast<int64_t>(window * 1e9);
    do {
      watchdog.Stage("episode");
      const std::string dir =
          options.work_dir + "/episode" + std::to_string(results.size());
      results.push_back(RunEpisode(harness, pairs, dir, seeds.clicks,
                                   phase == 0 ? nullptr : &reader_spans,
                                   phase == 0 ? nullptr : &retrain_spans));
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      const EpisodeResult& episode = results.back();
      report->Count(episode.requests + episode.swap_requests,
                    episode.failed);
      if (episode.published_cycles != kCycles) {
        std::fprintf(stderr,
                     "FAIL: episode published %zu retrain cycles, %zu "
                     "scheduled\n",
                     episode.published_cycles, kCycles);
        return 1;
      }
      // Every episode of a seed serves, logs and retrains the same, so
      // its answers and final model must match the first episode's.
      const EpisodeResult& first = untraced.front();
      if (episode.requests != first.requests || episode.hits != first.hits ||
          episode.model_mb != first.model_mb) {
        std::fprintf(stderr,
                     "FAIL: episode %zu diverged from the first: %llu "
                     "requests, %llu hits, %.6f MB (first: %llu, %llu, "
                     "%.6f)\n",
                     results.size() - 1,
                     static_cast<unsigned long long>(episode.requests),
                     static_cast<unsigned long long>(episode.hits),
                     episode.model_mb,
                     static_cast<unsigned long long>(first.requests),
                     static_cast<unsigned long long>(first.hits),
                     first.model_mb);
        return 1;
      }
    } while (NowNs() < end);
  }
  std::printf("gate: every episode published its %zu scheduled retrain "
              "cycles and matched the first episode's answers and model "
              "(%zu episodes)\n",
              kCycles, untraced.size() + traced.size());

  // Per-episode figures; the run reports their medians, so host noise in
  // one episode moves one sample instead of the result.
  std::vector<double> setup_s;
  std::vector<double> first_query_us;
  std::vector<double> swap_latency_us;
  uint64_t latency_samples = 0;
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> items_s;
  std::vector<double> ok_s;
  std::vector<double> retrain_ms;
  double busy_s = 0.0;
  uint64_t requests = 0;
  uint64_t hits = 0;
  for (const EpisodeResult& episode : untraced) {
    setup_s.push_back(episode.setup_s);
    first_query_us.push_back(episode.first_query_us);
    swap_latency_us.insert(swap_latency_us.end(),
                           episode.swap_latency_us.begin(),
                           episode.swap_latency_us.end());
    latency_samples += episode.latency_us.size();
    p50_us.push_back(Median(episode.latency_us));
    p90_us.push_back(TailPercentile(episode.latency_us, 90.0).value);
    items_s.push_back(episode.requests / episode.busy_s);
    ok_s.push_back((episode.requests - episode.failed) / episode.busy_s);
    retrain_ms.insert(retrain_ms.end(), episode.retrain_ms.begin(),
                      episode.retrain_ms.end());
    busy_s += episode.busy_s;
    requests += episode.requests;
    hits += episode.hits;
  }
  report->Record("episodes", static_cast<double>(untraced.size()));

  if (!options.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Record("latency_samples", static_cast<double>(latency_samples));
    report->Metric("latency_p50_us", Median(p50_us), "us");
    report->Metric("latency_p90_us", Median(p90_us), "us");
    report->Metric("throughput_items_s", Median(items_s), "items/s");
    report->Metric("goodput_rps", Median(ok_s), "req/s");
    report->Metric("retrain_cycle_ms", Median(retrain_ms), "ms");
    report->Metric("hit_rate_at5",
                   static_cast<double>(hits) / static_cast<double>(requests),
                   "ratio");
    report->Metric("model_mb", untraced.back().model_mb, "MB");
    return 0;
  }

  // Probes on the last episode's final model.
  watchdog.Stage("engine and walk probes");
  SpanBuffer probe_spans;
  std::vector<ContextRef> refs;
  for (const TestPair& pair : pairs) refs.emplace_back(pair.context);
  ProbeWalk(traced.back().final_snapshot, refs, 0.5, &probe_spans, report);
  // The pool and admission layers are on no closed_loop request's path;
  // their probe runs here so that a benchmark workload measures them.
  watchdog.Stage("lane probe");
  ProbeLanes(traced.back().final_snapshot, refs, 1.0, &probe_spans, report);

  watchdog.Stage("training layers");
  TraceTrainingLayers(harness, options.work_dir, 5, &probe_spans);

  Trace trace;
  trace.Absorb(reader_spans);
  trace.Absorb(retrain_spans);
  trace.Absorb(probe_spans);
  const SpanSummaries summaries = trace.Summaries();
  AddWalkMetrics(summaries, report);
  LayerDuration(summaries, "serve.engine.batch", "serve.engine.batch_us", 1e-3,
                "us", report, "serve.engine.batch_p99_us");
  LayerDuration(summaries, "serve.explorer.rerank", "serve.explorer.rerank_ns",
                1, "ns", report);
  LayerDuration(summaries, "serve.feedback.append", "serve.feedback.append_ns",
                1, "ns", report);
  LayerDuration(summaries, "serve.feedback.click", "serve.feedback.click_ns", 1,
                "ns", report);
  LayerDuration(summaries, "serve.retrainer.consume",
                "serve.retrainer.consume_ms", 1e-6, "ms", report);
  LayerDuration(summaries, "serve.retrainer.retrain",
                "serve.retrainer.retrain_ms", 1e-6, "ms", report);
  std::vector<double> fresh_ratio;
  uint64_t dropped = 0;
  uint64_t retrain_failures = 0;
  double traced_busy_s = 0.0;
  uint64_t traced_requests = 0;
  for (const EpisodeResult& episode : traced) {
    fresh_ratio.insert(fresh_ratio.end(), episode.fresh_ratio.begin(),
                       episode.fresh_ratio.end());
    dropped += episode.dropped_appends;
    retrain_failures += episode.retrainer.retrain_failures +
                        episode.retrainer.persist_failures +
                        episode.retrainer.persist_retries;
    traced_busy_s += episode.busy_s;
    traced_requests += episode.requests;
  }
  for (const EpisodeResult& episode : untraced) {
    dropped += episode.dropped_appends;
  }
  report->Metric("serve.retrainer.consume_fresh_ratio", Median(fresh_ratio),
                 "ratio");
  report->Metric("serve.retrainer.failures",
                 static_cast<double>(retrain_failures), "count");
  report->Metric("serve.feedback.dropped_appends", static_cast<double>(dropped),
                 "count");
  // Reads while a snapshot is rebuilt and swapped under them.
  const Percentile swap_p99 = TailPercentile(swap_latency_us, 99.0);
  report->Metric("bench.latency_p99_us", swap_p99.value, "us");
  report->Record("swap_latency_samples", static_cast<double>(swap_p99.samples));
  report->Record("swap_latency_percentile", swap_p99.percentile);
  report->Metric("core.walk.first_query_us", Median(first_query_us), "us");
  AddTrainingLayerMetrics(summaries,
                          std::filesystem::exists(options.work_dir +
                                                  "/layers.blob")
                              ? std::filesystem::file_size(options.work_dir +
                                                           "/layers.blob")
                              : 0,
                          report);
  FinishTrace(trace, options, busy_s * 1e9 / requests,
              traced_busy_s * 1e9 / traced_requests, report);
  return 0;
}

}  // namespace perfbench
