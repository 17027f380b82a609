// Serving-layer throughput/latency bench: batch RecommendMany QPS as the
// engine's worker-lane count grows, single-query Recommend latency
// percentiles, the same two off the CompactSnapshot serving layout (the
// quantized/truncated variant must serve within a few percent of the full
// snapshot), and both again while a live Retrainer rebuilds and swaps
// snapshots underneath the readers. Emits BENCH_serve.json (see
// bench/README.md) as the tracked perf surface of the serve/ subsystem.
//
// Thread-scaling expectations depend on the machine: lanes beyond the
// physical core count (e.g. the 8-lane row on a 1-core container) measure
// oversubscription overhead, not speedup — the JSON records
// hardware_threads so cross-PR comparisons can normalize.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/compact_snapshot.h"
#include "harness.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Measurement {
  std::string name;
  size_t threads = 0;
  size_t batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t snapshot_swaps = 0;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t at = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[at];
}

/// Covered test contexts (length <= 5), as in latency_online_prediction.
std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

/// Batched QPS at a fixed engine lane count, over `seconds` of wall time.
Measurement MeasureBatchQps(const std::shared_ptr<const ServingSnapshot>& model,
                            const std::vector<std::vector<QueryId>>& contexts,
                            size_t threads, size_t batch, double seconds) {
  RecommenderEngine engine(EngineOptions{.num_threads = threads});
  engine.Publish(model);
  std::vector<ContextRef> refs;
  refs.reserve(batch);
  // Pool-sized batches ride the bulk lane, as batch traffic should.
  ServeOptions options;
  options.lane = QosLane::kBulk;
  size_t cursor = 0;
  uint64_t served = 0;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    refs.clear();
    for (size_t i = 0; i < batch; ++i) {
      const std::vector<QueryId>& context = contexts[cursor];
      refs.emplace_back(context.data(), context.size());
      cursor = (cursor + 1) % contexts.size();
    }
    served += engine.RecommendMany(refs, 5, options).served;
  }
  Measurement m;
  m.name = "batch_qps";
  m.threads = engine.num_threads();
  m.batch = batch;
  m.qps = static_cast<double>(served) / timer.ElapsedSeconds();
  return m;
}

/// Single-query latency percentiles on the calling thread; optionally with
/// a retrainer swapping snapshots in the background.
Measurement MeasureSingleLatency(RecommenderEngine* engine,
                                 const std::vector<std::vector<QueryId>>& contexts,
                                 double seconds, const std::string& name) {
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 20);
  size_t cursor = 0;
  WallTimer total;
  uint64_t served = 0;
  while (total.ElapsedSeconds() < seconds) {
    WallTimer timer;
    const ServeResult result = engine->Recommend(contexts[cursor], 5);
    latencies_us.push_back(timer.ElapsedSeconds() * 1e6);
    (void)result;
    ++served;
    cursor = (cursor + 1) % contexts.size();
  }
  Measurement m;
  m.name = name;
  m.threads = 1;
  m.batch = 1;
  m.qps = static_cast<double>(served) / total.ElapsedSeconds();
  m.p50_us = Percentile(&latencies_us, 0.50);
  m.p99_us = Percentile(&latencies_us, 0.99);
  return m;
}

void WriteJson(const std::vector<Measurement>& measurements,
               size_t hardware_threads) {
  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"threads\": %zu, \"batch\": %zu, "
                 "\"qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
                 "\"snapshot_swaps\": %llu, \"hardware_threads\": %zu}%s\n",
                 m.name.c_str(), m.threads, m.batch, m.qps, m.p50_us,
                 m.p99_us, static_cast<unsigned long long>(m.snapshot_swaps),
                 hardware_threads, i + 1 == measurements.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_serve.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "serving-layer throughput (batch fan-out + snapshot swap)",
      "batch QPS grows with worker lanes up to the physical core count; "
      "p99 stays flat while the retrainer swaps snapshots");

  const size_t hardware = std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("hardware threads: %zu\n\n", hardware);

  // One snapshot for all read-only phases, built like the harness MVMM.
  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const std::shared_ptr<const ModelSnapshot> model = built.value();
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  std::vector<Measurement> measurements;

  // Phase 1: batch QPS vs engine lanes.
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Measurement m = MeasureBatchQps(model, contexts, threads, /*batch=*/256,
                                    /*seconds=*/0.8);
    std::printf("batch_qps      threads=%zu  batch=%zu  qps=%.0f\n",
                m.threads, m.batch, m.qps);
    measurements.push_back(m);
  }

  // Phase 1b: the same single-lane batch workload off the compact serving
  // layout — the claim is that the quantized/truncated variant serves
  // within a few percent of the full snapshot (compare against the
  // threads=1 batch_qps row).
  const std::shared_ptr<const CompactSnapshot> compact =
      CompactSnapshot::FromSnapshot(*model, CompactOptions{});
  {
    Measurement m = MeasureBatchQps(compact, contexts, /*threads=*/1,
                                    /*batch=*/256, /*seconds=*/0.8);
    m.name = "batch_qps_compact";
    std::printf("batch_compact  threads=%zu  batch=%zu  qps=%.0f\n",
                m.threads, m.batch, m.qps);
    measurements.push_back(m);
  }

  // Phase 2: single-query latency, steady snapshot — full, then compact.
  {
    RecommenderEngine engine(EngineOptions{.num_threads = 1});
    engine.Publish(model);
    Measurement m = MeasureSingleLatency(&engine, contexts, /*seconds=*/1.0,
                                         "single_latency");
    std::printf("single_latency qps=%.0f  p50=%.3fus  p99=%.3fus\n", m.qps,
                m.p50_us, m.p99_us);
    measurements.push_back(m);
  }
  {
    RecommenderEngine engine(EngineOptions{.num_threads = 1});
    engine.Publish(compact);
    Measurement m = MeasureSingleLatency(&engine, contexts, /*seconds=*/1.0,
                                         "single_latency_compact");
    std::printf("single_compact qps=%.0f  p50=%.3fus  p99=%.3fus\n", m.qps,
                m.p50_us, m.p99_us);
    measurements.push_back(m);
  }

  // Phase 3: single-query latency while a live retrainer rebuilds and
  // publishes snapshots from appended (drifted) test sessions.
  {
    RecommenderEngine engine(EngineOptions{.num_threads = 1});
    RetrainerOptions retrain_options;
    retrain_options.model = options;
    retrain_options.vocabulary_size = harness.training_data().vocabulary_size;
    retrain_options.poll_interval = std::chrono::milliseconds(1);
    Retrainer retrainer(&engine, retrain_options);
    SQP_CHECK_OK(retrainer.Bootstrap(harness.train()));
    retrainer.Start();

    // Feed the drifted test sessions in slices while measuring.
    const std::vector<AggregatedSession>& drift = harness.test();
    std::atomic<bool> stop{false};
    std::thread feeder([&] {
      const size_t slice = std::max<size_t>(1, drift.size() / 16);
      size_t at = 0;
      while (!stop.load()) {
        const size_t end = std::min(drift.size(), at + slice);
        retrainer.AppendSessions(std::vector<AggregatedSession>(
            drift.begin() + static_cast<ptrdiff_t>(at),
            drift.begin() + static_cast<ptrdiff_t>(end)));
        at = end % drift.size();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    Measurement m = MeasureSingleLatency(&engine, contexts, /*seconds=*/2.0,
                                         "single_latency_under_retrain");
    stop.store(true);
    feeder.join();
    retrainer.Stop();
    m.snapshot_swaps = engine.stats().snapshots_published;
    std::printf(
        "under_retrain  qps=%.0f  p50=%.3fus  p99=%.3fus  swaps=%llu\n",
        m.qps, m.p50_us, m.p99_us,
        static_cast<unsigned long long>(m.snapshot_swaps));
    measurements.push_back(m);
  }

  WriteJson(measurements, hardware);
  return 0;
}
