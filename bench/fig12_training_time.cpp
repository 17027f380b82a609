// Figure 12: training time versus amount of training data for every
// method. The paper: all methods scale linearly with data; MVMM costs
// roughly K times a single VMM (K = 11 components); VMM costs more than
// pair-wise / N-gram because of PST construction.
//
// Implemented with google-benchmark: one benchmark per (model, data
// fraction), a single training run per measurement. MVMM rows also carry
// the sigma fit's ascent steps and whether it stopped by its convergence
// test (fit_iterations, fit_converged).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mvmm_model.h"
#include "harness.h"
#include "json_report.h"

namespace {

using sqp::AggregatedSession;
using sqp::CreateModel;
using sqp::ModelConfig;
using sqp::ModelKind;
using sqp::ModelKindName;
using sqp::TrainingData;
using sqp::bench::Harness;

Harness& SharedHarness() {
  static Harness* harness = new Harness();
  return *harness;
}

/// Uniform stride-sample of the aggregated corpus at fraction k/4, cached.
const std::vector<AggregatedSession>& Subset(int quarter) {
  static std::map<int, std::vector<AggregatedSession>>* cache =
      new std::map<int, std::vector<AggregatedSession>>();
  auto it = cache->find(quarter);
  if (it != cache->end()) return it->second;
  const auto& full = SharedHarness().train();
  std::vector<AggregatedSession> subset;
  if (quarter >= 4) {
    subset = full;
  } else {
    const size_t stride = 4 / static_cast<size_t>(quarter);
    for (size_t i = 0; i < full.size(); i += stride) {
      subset.push_back(full[i]);
    }
  }
  return cache->emplace(quarter, std::move(subset)).first->second;
}

ModelConfig ConfigFor(int kind_index) {
  ModelConfig config;
  switch (kind_index) {
    case 0:
      config.kind = ModelKind::kAdjacency;
      break;
    case 1:
      config.kind = ModelKind::kCooccurrence;
      break;
    case 2:
      config.kind = ModelKind::kNgram;
      break;
    case 3:
      config.kind = ModelKind::kVmm;
      config.vmm.epsilon = 0.05;
      config.vmm.max_depth = 5;
      break;
    default:
      config.kind = ModelKind::kMvmm;
      config.mvmm.default_max_depth = 5;
      break;
  }
  return config;
}

void BM_Train(benchmark::State& state) {
  const int kind_index = static_cast<int>(state.range(0));
  const int quarter = static_cast<int>(state.range(1));
  const std::vector<AggregatedSession>& sessions = Subset(quarter);
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = SharedHarness().dictionary().size();
  std::unique_ptr<sqp::PredictionModel> model;
  for (auto _ : state) {
    model = CreateModel(ConfigFor(kind_index));
    SQP_CHECK_OK(model->Train(data));
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(std::string(ModelKindName(ConfigFor(kind_index).kind)) +
                 " @" + std::to_string(quarter * 25) + "% data (" +
                 std::to_string(sessions.size()) + " unique sessions)");
  state.counters["unique_sessions"] =
      static_cast<double>(sessions.size());
  const sqp::ModelStats stats = model->Stats();
  state.counters["model_states"] = static_cast<double>(stats.num_states);
  state.counters["model_bytes"] = static_cast<double>(stats.memory_bytes);
  if (const auto* mvmm = dynamic_cast<const sqp::MvmmModel*>(model.get())) {
    const sqp::MvmmFitReport& fit = mvmm->fit_report();
    state.counters["fit_iterations"] = static_cast<double>(fit.iterations);
    state.counters["fit_converged"] = fit.converged ? 1.0 : 0.0;
  }
}

}  // namespace

BENCHMARK(BM_Train)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 2, 3, 4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

int main(int argc, char** argv) {
  return sqp::bench::RunBenchmarksWithJson(argc, argv, "BENCH_train.json");
}
