#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/compact_snapshot.h"
#include "core/pst.h"
#include "core/snapshot_io.h"
#include "log/context_builder.h"
#include "util/random.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double BucketUpperUs(size_t bucket) {
  return bucket == 0 ? 1.0 : static_cast<double>(uint64_t{1} << bucket);
}

/// Upper bound of the histogram bucket holding percentile `q` (0..1).
double HistogramQuantileUs(const std::array<uint64_t, sqp::kLatencyBuckets>& h,
                           double q) {
  uint64_t total = 0;
  for (const uint64_t count : h) total += count;
  if (total == 0) return 0.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < h.size(); ++b) {
    seen += h[b];
    if (static_cast<double>(seen) >= q * static_cast<double>(total)) {
      return BucketUpperUs(b);
    }
  }
  return BucketUpperUs(h.size() - 1);
}

/// What a closed loop of batches did.
struct BatchLoop {
  uint64_t items = 0;
  uint64_t batches = 0;
  double seconds = 0.0;
};

/// One client sending kBatchSize-context RecommendMany batches (bulk lane)
/// back to back for `seconds`, cycling through `contexts` from `*cursor`.
/// Each batch is a serve.engine.batch span when `spans` is set.
BatchLoop PumpBatches(const sqp::RecommenderEngine& engine,
                      std::span<const sqp::ContextRef> contexts,
                      size_t* cursor, double seconds, SpanBuffer* spans) {
  SQP_CHECK(contexts.size() >= kBatchSize);
  BatchLoop loop;
  sqp::ServeOptions serve;
  serve.lane = sqp::QosLane::kBulk;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (now < end) {
    if (*cursor + kBatchSize > contexts.size()) *cursor = 0;
    const std::span<const sqp::ContextRef> batch =
        contexts.subspan(*cursor, kBatchSize);
    *cursor += kBatchSize;
    sqp::BatchResult result;
    {
      ScopedSpan span(spans, "serve.engine.batch", loop.batches);
      result = engine.RecommendMany(batch, kTopN, serve);
    }
    const int64_t done = NowNs();
    loop.items += result.served;
    ++loop.batches;
    now = done;
  }
  loop.seconds = (now - start) / 1e9;
  return loop;
}

}  // namespace

Seeds DeriveSeeds(uint64_t seed, size_t train_sessions, size_t test_sessions) {
  uint64_t state = seed;
  Seeds seeds;
  seeds.harness.train_sessions = train_sessions;
  seeds.harness.test_sessions = test_sessions;
  seeds.harness.vmm_max_depth = kMaxDepth;
  seeds.harness.vocabulary_seed = SplitMix(&state);
  seeds.harness.topic_seed = SplitMix(&state);
  seeds.harness.train_seed = SplitMix(&state);
  seeds.harness.test_seed = SplitMix(&state);
  seeds.arrivals = SplitMix(&state);
  seeds.order = SplitMix(&state);
  seeds.clicks = SplitMix(&state);
  return seeds;
}

std::vector<TestPair> TestPairs(const sqp::bench::Harness& harness,
                                uint64_t order_seed) {
  std::vector<TestPair> pairs;
  for (const sqp::AggregatedSession& session : harness.test()) {
    const std::vector<QueryId>& q = session.queries;
    for (size_t i = 1; i < q.size(); ++i) {
      const size_t begin = i > kMaxDepth ? i - kMaxDepth : 0;
      pairs.push_back(TestPair{
          .context = std::vector<QueryId>(q.begin() + begin, q.begin() + i),
          .next = q[i]});
    }
  }
  sqp::Rng rng(order_seed);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  return pairs;
}

std::vector<sqp::AggregatedSession> FreshSessions(
    const sqp::bench::Harness& harness, size_t cycle, size_t count) {
  const std::vector<sqp::AggregatedSession>& test = harness.test();
  std::vector<sqp::AggregatedSession> out;
  for (size_t i = 0; i < count && !test.empty(); ++i) {
    out.push_back(test[(cycle * count + i) % test.size()]);
  }
  return out;
}

bool SameAnswer(const Recommendation& a, const Recommendation& b) {
  if (a.covered != b.covered || a.matched_length != b.matched_length ||
      a.queries.size() != b.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].query != b.queries[i].query ||
        std::bit_cast<uint64_t>(a.queries[i].score) !=
            std::bit_cast<uint64_t>(b.queries[i].score)) {
      return false;
    }
  }
  return true;
}

int SlotOf(const Recommendation& rec, QueryId next) {
  for (size_t i = 0; i < rec.queries.size() && i < kTopN; ++i) {
    if (rec.queries[i].query == next) return static_cast<int>(i);
  }
  return -1;
}

sqp::MvmmOptions ModelOptions() {
  sqp::MvmmOptions options;
  options.default_max_depth = kMaxDepth;
  return options;
}

void TraceTrainingLayers(const sqp::bench::Harness& harness,
                         const std::string& work_dir, int repetitions,
                         SpanBuffer* spans) {
  sqp::MvmmOptions options = ModelOptions();
  options.components = sqp::MvmmOptions::DefaultComponents(kMaxDepth);
  std::vector<sqp::PstOptions> views;
  for (const sqp::VmmOptions& c : options.components) {
    views.push_back(sqp::PstOptions{.epsilon = c.epsilon,
                                    .max_depth = c.max_depth,
                                    .min_support = c.min_support});
  }
  const std::string blob = work_dir + "/layers.blob";
  const std::vector<sqp::AggregatedSession> fresh =
      FreshSessions(harness, 0, 500);
  for (int r = 0; r < repetitions; ++r) {
    sqp::ContextIndex index;
    {
      ScopedSpan span(spans, "log.count");
      index.Build(harness.train(), sqp::ContextIndex::Mode::kSubstring,
                  sqp::internal::SharedIndexDepth(options),
                  options.training_threads);
    }
    {
      sqp::Pst pst;
      ScopedSpan span(spans, "core.pst.build");
      SQP_CHECK_OK(pst.BuildShared(index, views));
    }
    std::shared_ptr<const sqp::ModelSnapshot> model;
    {
      ScopedSpan span(spans, "core.train.build");
      auto built = sqp::ModelSnapshot::Build(harness.training_data(),
                                             ModelOptions(), 1);
      SQP_CHECK(built.ok());
      model = std::move(built.value());
    }
    std::shared_ptr<const sqp::CompactSnapshot> compact;
    {
      ScopedSpan span(spans, "core.compact.pack");
      compact = sqp::CompactSnapshot::FromSnapshot(*model);
    }
    {
      ScopedSpan span(spans, "core.snapshot_io.save");
      SQP_CHECK_OK(sqp::SnapshotIo::Save(*compact, blob));
    }
    {
      ScopedSpan span(spans, "core.snapshot_io.map");
      SQP_CHECK(sqp::SnapshotIo::Map(blob).ok());
    }
    {
      ScopedSpan span(spans, "log.append");
      index.Append(fresh);
    }
  }
}

void ProbeWalk(std::shared_ptr<const sqp::ServingSnapshot> model,
               std::span<const sqp::ContextRef> contexts, double seconds,
               SpanBuffer* spans, Report* report) {
  constexpr size_t kProbe = 256;
  const auto* walk = dynamic_cast<const sqp::CompactServingBase*>(model.get());
  SQP_CHECK(walk != nullptr && contexts.size() >= kProbe);
  sqp::RecommenderEngine engine(sqp::EngineOptions{.num_threads = 1});
  engine.Publish(model);
  sqp::SnapshotScratch scratch;
  scratch.Prepare(walk->ScratchHint());
  uint64_t covered = 0;
  uint64_t walked = 0;
  uint64_t depth_sum = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t start = 0; NowNs() < end; start += kProbe) {
    if (start + kProbe > contexts.size()) start = 0;
    const std::span<const sqp::ContextRef> batch =
        contexts.subspan(start, kProbe);
    {
      ScopedSpan span(spans, "serve.engine.recommend", walked, kProbe);
      for (const sqp::ContextRef context : batch) {
        engine.Recommend(context, kTopN, sqp::ServeOptions{});
      }
    }
    {
      ScopedSpan span(spans, "core.walk.recommend", walked, kProbe);
      for (const sqp::ContextRef context : batch) {
        covered += walk->Recommend(context, kTopN, &scratch).covered;
      }
    }
    {
      ScopedSpan span(spans, "core.walk.descent", walked, kProbe);
      for (const sqp::ContextRef context : batch) {
        depth_sum += walk->MatchedDepth(context);
      }
    }
    walked += kProbe;
  }
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(spans, "serve.engine.publish");
    engine.Publish(model);
  }
  report->Record("walk_mean_matched_depth",
                 walked == 0 ? 0.0 : static_cast<double>(depth_sum) / walked);
  report->Metric("core.walk.covered_ratio",
                 walked == 0 ? 0.0 : static_cast<double>(covered) / walked,
                 "ratio");
}

void ProbeLanes(std::shared_ptr<const sqp::ServingSnapshot> model,
                std::span<const sqp::ContextRef> contexts, double seconds,
                SpanBuffer* batch_spans, Report* report) {
  const IdleSpinners spinners;
  sqp::RecommenderEngine one_lane(sqp::EngineOptions{.num_threads = 1});
  sqp::RecommenderEngine default_lanes{sqp::EngineOptions{}};
  one_lane.Publish(model);
  default_lanes.Publish(model);
  size_t cursor = 0;
  const BatchLoop one = PumpBatches(one_lane, contexts, &cursor, seconds,
                                    nullptr);
  cursor = 0;
  const BatchLoop all = PumpBatches(default_lanes, contexts, &cursor, seconds,
                                    batch_spans);
  const double one_items_s = one.items / one.seconds;
  const double all_items_s = all.items / all.seconds;
  report->Metric("serve.worker_pool.one_lane_items_s", one_items_s, "items/s");
  report->Metric("serve.worker_pool.default_lanes_items_s", all_items_s,
                 "items/s");
  report->Metric("serve.worker_pool.lane_speedup", all_items_s / one_items_s,
                 "x");
  report->Record("default_lanes", static_cast<double>(default_lanes.num_threads()));
  const sqp::AdmissionStats admission = default_lanes.stats().admission;
  const auto& hist = admission.lane(sqp::QosLane::kBulk).latency_hist;
  report->Metric("serve.admission.wait_p50_us", HistogramQuantileUs(hist, 0.5),
                 "us");
  report->Metric("serve.admission.wait_p99_us",
                 HistogramQuantileUs(hist, 0.99), "us");
  report->Metric("serve.admission.shed",
                 static_cast<double>(
                     admission.lane(sqp::QosLane::kBulk).shed_total() +
                     admission.lane(sqp::QosLane::kInteractive).shed_total()),
                 "count");
}

void AddWalkMetrics(const SpanSummaries& summaries, Report* report) {
  const double engine_ns = Find(summaries, "serve.engine.recommend").p50_ns;
  const double walk_ns = Find(summaries, "core.walk.recommend").p50_ns;
  const double descent_ns = Find(summaries, "core.walk.descent").p50_ns;
  report->Metric("serve.engine.recommend_ns", engine_ns, "ns");
  report->Metric("serve.engine.overhead_ns", engine_ns - walk_ns, "ns");
  report->Metric("core.walk.recommend_ns", walk_ns, "ns");
  report->Metric("core.walk.descent_ns", descent_ns, "ns");
  report->Metric("core.walk.score_merge_ns", walk_ns - descent_ns, "ns");
  LayerDuration(summaries, "serve.engine.publish", "serve.engine.publish_us",
                1e-3, "us", report);
}

void AddTrainingLayerMetrics(const SpanSummaries& summaries,
                             uint64_t blob_bytes, Report* report) {
  LayerDuration(summaries, "log.count", "log.count_ms", 1e-6, "ms", report);
  LayerDuration(summaries, "core.pst.build", "core.pst.build_ms", 1e-6, "ms",
                report);
  LayerDuration(summaries, "core.train.build", "core.train.build_ms", 1e-6,
                "ms", report);
  report->Metric("core.sigma_fit_ms",
                 (Find(summaries, "core.train.build").p50_ns -
                  Find(summaries, "log.count").p50_ns -
                  Find(summaries, "core.pst.build").p50_ns) *
                     1e-6,
                 "ms");
  LayerDuration(summaries, "core.compact.pack", "core.compact.pack_ms", 1e-6,
                "ms", report);
  report->Metric("core.compact.blob_bytes", static_cast<double>(blob_bytes),
                 "bytes");
  LayerDuration(summaries, "core.snapshot_io.save", "core.snapshot_io.save_ms",
                1e-6, "ms", report);
  LayerDuration(summaries, "core.snapshot_io.map", "core.snapshot_io.map_ms",
                1e-6, "ms", report);
  LayerDuration(summaries, "log.append", "log.append_ms", 1e-6, "ms", report);
}

void PinThisThread(int cpu) {
  const long cpus = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = 0; c < cpus; ++c) {
    if (cpu < 0 || c == cpu % cpus) CPU_SET(static_cast<int>(c), &set);
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

IdleSpinners::IdleSpinners() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < cpus; ++cpu) {
    threads_.emplace_back([this, cpu] {
      sched_param param{};
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0) {
        return;  // without idle priority a spinner would compete; skip it
      }
      PinThisThread(static_cast<int>(cpu));
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

Watchdog::Watchdog(double limit_seconds)
    : thread_([this, limit_seconds] {
        std::unique_lock<std::mutex> lock(mu_);
        if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_seconds),
                          [this] { return done_; })) {
          std::fprintf(stderr,
                       "watchdog: stage '%s' still running after %.0f s; "
                       "failing the run\n",
                       stage_.load(), limit_seconds);
          std::fflush(stderr);
          std::_Exit(3);
        }
      }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Record(const std::string& key, const std::string& value) {
  record_[key] = JsonString(value);
}

void Report::Record(const std::string& key, double value) {
  record_[key] = JsonNumber(value);
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print(const RunOptions& options) const {
  std::printf("\n%s seed=%llu trace=%d: %llu attempted, %llu failed "
              "(error_rate %.6g)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), value.value,
                value.unit.c_str());
  }
  std::string record = "{";
  for (const auto& [key, value] : record_) {
    if (record.size() > 1) record += ", ";
    record += JsonString(key) + ": " + value;
  }
  std::printf("run record: %s}\n", record.c_str());
  std::string metrics = "{";
  for (const auto& [name, value] : metrics_) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(value.value) +
               ", \"unit\": " + JsonString(value.unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

void LayerDuration(const SpanSummaries& summaries, const std::string& span,
                   const std::string& metric, double scale,
                   const std::string& unit, Report* report,
                   const std::string& tail_metric) {
  const SpanSummary summary = Find(summaries, span);
  report->Metric(metric, summary.p50_ns * scale, unit);
  if (!tail_metric.empty()) {
    report->Metric(tail_metric, summary.p99_ns.value * scale, unit);
  }
}

void FinishTrace(const Trace& trace, const RunOptions& options,
                 double untraced_cost, double traced_cost, Report* report) {
  const std::string path =
      options.trace_dir + "/trace-" + options.workload + ".tsv";
  if (!trace.WriteTsv(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  std::printf("trace: %zu spans (%zu dropped) written to %s\n", trace.size(),
              trace.dropped(), path.c_str());
  std::printf("self time per span name (p50 ns per item):\n");
  for (const auto& [name, summary] : trace.Summaries()) {
    std::printf("  %-32s count=%-8zu p50=%12.1f self=%12.1f\n", name.c_str(),
                summary.count, summary.p50_ns, summary.self_p50_ns);
  }
  report->Metric("bench.trace_overhead_pct",
                 untraced_cost > 0.0
                     ? 100.0 * (traced_cost - untraced_cost) / untraced_cost
                     : 0.0,
                 "%");
  report->Record("trace_untraced_cost", untraced_cost);
  report->Record("trace_traced_cost", traced_cost);
}

}  // namespace perfbench
