// Online prediction latency per method (supports the paper's Section V-G
// claim that online prediction is O(D) with D around 5 — constant time,
// fast enough for real-time deployment).

#include <benchmark/benchmark.h>

#include <vector>

#include "harness.h"
#include "json_report.h"

namespace {

using sqp::PredictionModel;
using sqp::QueryId;
using sqp::bench::Harness;

Harness& SharedHarness() {
  static Harness* harness = new Harness();
  return *harness;
}

/// The first 4,096 ground-truth test contexts of length <= 5, covered by
/// the model or not (most are uncovered at the default corpus), cycled
/// through during timing.
const std::vector<std::vector<QueryId>>& Contexts() {
  static std::vector<std::vector<QueryId>>* contexts = [] {
    auto* out = new std::vector<std::vector<QueryId>>();
    for (const auto& entry : SharedHarness().truth()) {
      if (entry.context.size() <= 5) out->push_back(entry.context);
      if (out->size() >= 4096) break;
    }
    return out;
  }();
  return *contexts;
}

PredictionModel* ModelFor(int index) {
  Harness& harness = SharedHarness();
  switch (index) {
    case 0:
      return harness.Adjacency();
    case 1:
      return harness.Cooccurrence();
    case 2:
      return harness.Ngram();
    case 3:
      return harness.Vmm(0.05);
    default:
      return harness.Mvmm();
  }
}

void BM_Recommend(benchmark::State& state) {
  PredictionModel* model = ModelFor(static_cast<int>(state.range(0)));
  const auto& contexts = Contexts();
  size_t i = 0;
  for (auto _ : state) {
    const auto rec = model->Recommend(contexts[i], 5);
    benchmark::DoNotOptimize(rec);
    i = (i + 1) % contexts.size();
  }
  state.SetLabel(std::string(model->Name()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const sqp::ModelStats stats = model->Stats();
  state.counters["model_states"] = static_cast<double>(stats.num_states);
  state.counters["model_bytes"] = static_cast<double>(stats.memory_bytes);
}

}  // namespace

BENCHMARK(BM_Recommend)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  return sqp::bench::RunBenchmarksWithJson(argc, argv, "BENCH_latency.json");
}
