// Hot-path bench for the compact serving walk: the end-to-end dense walk
// with its cost split into descent (MatchedDepth) vs score+merge, the
// legacy sparse sort-merge for comparison, and a self-reported speedup row
// (dense over sparse). Emits BENCH_hotpath.json (see bench/README.md) as
// the tracked perf surface of the walk.
//
// The binary also self-enforces the correctness bar: before any timing is
// reported it replays every context through the dense walk and requires
// bit-identical recommendations to the legacy sparse path, exiting nonzero
// on any mismatch.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "harness.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Row {
  std::string name;
  std::string variant;  // walk rows: "dense" / "sparse"
  double recommend_ns = 0.0;
  double match_ns = 0.0;
  double merge_score_ns = 0.0;
  double qps = 0.0;
  double dense_over_sparse = 0.0;
  int ok = -1;  // equivalence rows: 1/0; -1 = field unused
};

/// Covered test contexts (length <= 5), as in serve_throughput.
std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

// ------------------------------------------------------ walk benchmark

struct WalkCost {
  double recommend_ns = 0.0;
  double match_ns = 0.0;
  double qps = 0.0;
};

WalkCost MeasureWalk(const CompactServingBase& snapshot,
                     const std::vector<std::vector<QueryId>>& contexts,
                     double seconds) {
  SnapshotScratch scratch;
  size_t cursor = 0;
  uint64_t served = 0;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    for (size_t burst = 0; burst < 256; ++burst) {
      const Recommendation rec =
          snapshot.Recommend(contexts[cursor], 5, &scratch);
      (void)rec;
      cursor = (cursor + 1) % contexts.size();
      ++served;
    }
  }
  WalkCost cost;
  const double total = timer.ElapsedSeconds();
  cost.recommend_ns = total * 1e9 / static_cast<double>(served);
  cost.qps = static_cast<double>(served) / total;

  // Descent-only probe over the same context stream: the walk minus the
  // scoring and ranking. The difference is the score+merge share.
  uint64_t matched = 0;
  cursor = 0;
  uint64_t probes = 0;
  WallTimer match_timer;
  while (match_timer.ElapsedSeconds() < seconds * 0.5) {
    for (size_t burst = 0; burst < 256; ++burst) {
      matched += snapshot.MatchedDepth(contexts[cursor]);
      cursor = (cursor + 1) % contexts.size();
      ++probes;
    }
  }
  cost.match_ns =
      match_timer.ElapsedSeconds() * 1e9 / static_cast<double>(probes);
  if (matched == 0) std::fprintf(stderr, "warning: no context matched\n");
  return cost;
}

// -------------------------------------------------- equivalence check

bool DenseMatchesSparse(
    const CompactServingBase& snapshot,
    const std::vector<std::vector<QueryId>>& contexts) {
  SnapshotScratch scratch;
  std::vector<Recommendation> reference;
  reference.reserve(contexts.size());
  internal::ForceSparseMergeForTest().store(true);
  for (const std::vector<QueryId>& context : contexts) {
    reference.push_back(snapshot.Recommend(context, 10, &scratch));
  }
  internal::ForceSparseMergeForTest().store(false);

  const auto same = [](const Recommendation& a, const Recommendation& b) {
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
  };

  size_t mismatches = 0;
  for (size_t i = 0; i < contexts.size(); ++i) {
    if (!same(reference[i], snapshot.Recommend(contexts[i], 10, &scratch))) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: %zu/%zu contexts diverged from the "
                 "sparse reference\n",
                 mismatches, contexts.size());
  }
  return mismatches == 0;
}

void WriteJson(const std::vector<Row>& rows) {
  std::FILE* out = std::fopen("BENCH_hotpath.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_hotpath.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "  {\"name\": \"%s\"", r.name.c_str());
    if (!r.variant.empty()) {
      std::fprintf(out, ", \"variant\": \"%s\"", r.variant.c_str());
    }
    if (r.recommend_ns != 0.0) {
      std::fprintf(out, ", \"recommend_ns\": %.1f, \"match_ns\": %.1f, "
                        "\"merge_score_ns\": %.1f, \"qps\": %.0f",
                   r.recommend_ns, r.match_ns, r.merge_score_ns, r.qps);
    }
    if (r.dense_over_sparse != 0.0) {
      std::fprintf(out, ", \"dense_over_sparse\": %.3f", r.dense_over_sparse);
    }
    if (r.ok >= 0) std::fprintf(out, ", \"ok\": %d", r.ok);
    std::fprintf(out, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_hotpath.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "compact-walk hot path (dense accumulation)",
      "the dense walk serves bit-identically to the legacy sparse "
      "sort-merge and beats it");

  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const auto compact = CompactSnapshot::FromSnapshot(*built.value());
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  std::vector<Row> rows;

  // Correctness first: no timing is worth reporting off a wrong walk.
  const bool equivalent = DenseMatchesSparse(*compact, contexts);
  {
    Row r;
    r.name = "hotpath_equivalence";
    r.ok = equivalent ? 1 : 0;
    rows.push_back(r);
  }
  std::printf("equivalence (dense vs sparse): %s\n\n",
              equivalent ? "ok" : "FAILED");

  // The end-to-end walk, dense then the legacy sparse sort-merge, each
  // split into descent (MatchedDepth) and score+merge.
  const auto add_walk_row = [&rows](const char* variant,
                                    const WalkCost& cost) {
    Row r;
    r.name = "hotpath_walk";
    r.variant = variant;
    r.recommend_ns = cost.recommend_ns;
    r.match_ns = cost.match_ns;
    r.merge_score_ns = std::max(0.0, cost.recommend_ns - cost.match_ns);
    r.qps = cost.qps;
    rows.push_back(r);
    std::printf("walk    %-6s recommend=%.0fns match=%.0fns "
                "score+merge=%.0fns qps=%.0f\n",
                variant, r.recommend_ns, r.match_ns, r.merge_score_ns, r.qps);
  };
  const WalkCost dense = MeasureWalk(*compact, contexts, /*seconds=*/0.6);
  add_walk_row("dense", dense);
  internal::ForceSparseMergeForTest().store(true);
  const WalkCost sparse = MeasureWalk(*compact, contexts, /*seconds=*/0.6);
  internal::ForceSparseMergeForTest().store(false);
  add_walk_row("sparse", sparse);

  {
    Row r;
    r.name = "hotpath_speedup";
    r.dense_over_sparse = sparse.recommend_ns / dense.recommend_ns;
    rows.push_back(r);
    std::printf("\nspeedup: dense/sparse = %.2fx\n", r.dense_over_sparse);
  }

  WriteJson(rows);
  return equivalent ? 0 : 1;
}
