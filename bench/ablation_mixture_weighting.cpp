// Ablation: MVMM mixture weighting scheme. The paper weighs components by
// a Gaussian of the edit distance between the context and each component's
// matched state (Eq. 4), with widths learned by the sigma fit (Eq. 7-10,
// fitted to the normalized mixture that is served). This ablation
// compares that scheme against uniform weights and
// longest-match-takes-all, and reports how the fit stopped: its ascent
// steps, objective evaluations and whether its convergence test (not the
// iteration cap) ended it. Emits BENCH_mixture.json (see bench/README.md);
// the `sigma_fit_converged` row is a zero-margin CI gate.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/mvmm_model.h"
#include "eval/evaluator.h"
#include "eval/table_printer.h"
#include "harness.h"

namespace {

using namespace sqp;

struct Row {
  std::string weighting;
  double ndcg[3] = {0.0, 0.0, 0.0};  // NDCG@1, @3, @5
};

void WriteJson(const std::vector<Row>& rows, const MvmmFitReport& fit) {
  std::FILE* out = std::fopen("BENCH_mixture.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_mixture.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (const Row& r : rows) {
    std::fprintf(out,
                 "  {\"name\": \"mixture_weighting\", \"weighting\": \"%s\", "
                 "\"ndcg_at1\": %.6f, \"ndcg_at3\": %.6f, "
                 "\"ndcg_at5\": %.6f},\n",
                 r.weighting.c_str(), r.ndcg[0], r.ndcg[1], r.ndcg[2]);
  }
  std::fprintf(out,
               "  {\"name\": \"sigma_fit_converged\", \"ok\": %d, "
               "\"iterations\": %zu, \"evaluations\": %zu, "
               "\"initial_objective\": %.6f, \"final_objective\": %.6f}\n",
               fit.converged ? 1 : 0, fit.iterations, fit.evaluations,
               fit.initial_objective, fit.final_objective);
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_mixture.json\n");
}

}  // namespace

int main() {
  using namespace sqp::bench;
  Harness harness;
  PrintBanner(harness, "Ablation: MVMM mixture weighting scheme",
              "the learned Gaussian weighting should match or beat the "
              "naive schemes, justifying Eq. 4 + the sigma fit");

  const std::vector<std::pair<MixtureWeighting, const char*>> schemes = {
      {MixtureWeighting::kGaussianEditDistance, "learned"},
      {MixtureWeighting::kUniform, "uniform"},
      {MixtureWeighting::kLongestMatch, "longest_match"},
  };
  const auto label_of = [](MixtureWeighting weighting) {
    switch (weighting) {
      case MixtureWeighting::kGaussianEditDistance:
        return "Gaussian(edit distance), learned sigma (paper)";
      case MixtureWeighting::kUniform:
        return "uniform";
      case MixtureWeighting::kLongestMatch:
        return "longest match takes all";
    }
    return "?";
  };

  TablePrinter table({"weighting", "NDCG@1", "NDCG@3", "NDCG@5"});
  std::vector<Row> rows;
  MvmmFitReport fit;
  for (const auto& [weighting, name] : schemes) {
    MvmmOptions options;
    options.default_max_depth = harness.config().vmm_max_depth;
    options.weighting = weighting;
    MvmmModel model(options);
    SQP_CHECK_OK(model.Train(harness.training_data()));
    if (weighting == MixtureWeighting::kGaussianEditDistance) {
      fit = model.fit_report();
    }
    const ModelAccuracy acc =
        EvaluateAccuracy(model, harness.truth(), AccuracyOptions{});
    Row row{name,
            {acc.ndcg_overall.at(1), acc.ndcg_overall.at(3),
             acc.ndcg_overall.at(5)}};
    rows.push_back(row);
    table.AddRow({label_of(weighting), FormatDouble(row.ndcg[0]),
                  FormatDouble(row.ndcg[1]), FormatDouble(row.ndcg[2])});
  }
  table.Print(std::cout);
  std::printf("\nsigma fit: %zu iterations, %zu objective evaluations, %s\n",
              fit.iterations, fit.evaluations,
              fit.converged ? "converged" : "NOT converged (stopped early)");
  WriteJson(rows, fit);
  return 0;
}
