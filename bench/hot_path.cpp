// Hot-path bench for the compact serving walk: the end-to-end dense walk
// with its cost split into descent (MatchedDepth) vs score+merge, the
// legacy sparse sort-merge for comparison, and a self-reported speedup row
// (dense over sparse). The two variants run in interleaved rounds that
// alternate which goes first; every reported figure is the median over
// rounds, and the speedup is the ratio of the two medians. Emits
// BENCH_hotpath.json (see bench/README.md) as the tracked perf surface of
// the walk.
//
// The binary also self-enforces the correctness bar: before any timing is
// reported it replays every context through the dense walk and requires
// bit-identical recommendations to the legacy sparse path, exiting nonzero
// on any mismatch.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
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

/// The first 4,096 ground-truth test contexts of length <= 5, as in
/// serve_throughput, covered by the model or not (2,848 are uncovered at
/// the default 50k corpus and take the walk's short miss path). Every row
/// carries the covered share.
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

/// The two variants run in alternating rounds until kTotalSeconds have
/// passed, with at least kMinRounds each. Each pair of rounds swaps which
/// variant goes first, so drift on the machine (clock frequency,
/// neighbours) lands on both variants instead of on whichever ran second.
constexpr double kTotalSeconds = 1.8;
constexpr size_t kMinRounds = 5;
/// Queries per round, rounded up to whole passes over the contexts so
/// every round of either variant serves the identical context mix.
constexpr size_t kRoundQueries = 1 << 14;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Field-wise median of per-round costs.
WalkCost MedianCost(const std::vector<WalkCost>& rounds) {
  const auto median_of = [&rounds](double WalkCost::*field) {
    std::vector<double> values;
    for (const WalkCost& round : rounds) values.push_back(round.*field);
    return Median(std::move(values));
  };
  return WalkCost{.recommend_ns = median_of(&WalkCost::recommend_ns),
                  .match_ns = median_of(&WalkCost::match_ns),
                  .qps = median_of(&WalkCost::qps)};
}

/// One round: `passes` walks over every context, then as many descent-only
/// passes (MatchedDepth: the walk minus the scoring and ranking; the
/// difference is the score+merge share).
WalkCost MeasureRound(const CompactSnapshot& snapshot,
                      const std::vector<std::vector<QueryId>>& contexts,
                      size_t passes, SnapshotScratch* scratch,
                      uint64_t* matched) {
  const double queries = static_cast<double>(passes * contexts.size());
  WallTimer timer;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (const std::vector<QueryId>& context : contexts) {
      const Recommendation rec = snapshot.Recommend(context, 5, scratch);
      (void)rec;
    }
  }
  const double walk_seconds = timer.ElapsedSeconds();
  WallTimer match_timer;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (const std::vector<QueryId>& context : contexts) {
      *matched += snapshot.MatchedDepth(context);
    }
  }
  const double match_seconds = match_timer.ElapsedSeconds();
  return WalkCost{.recommend_ns = walk_seconds * 1e9 / queries,
                  .match_ns = match_seconds * 1e9 / queries,
                  .qps = queries / walk_seconds};
}

// -------------------------------------------------- equivalence check

bool DenseMatchesSparse(
    const CompactSnapshot& snapshot,
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

void WriteJson(const std::vector<Row>& rows, double covered_share) {
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
    std::fprintf(out, ", \"covered_share\": %.4f}%s\n", covered_share,
                 i + 1 == rows.size() ? "" : ",");
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
  size_t covered = 0;
  {
    SnapshotScratch scratch;
    for (const std::vector<QueryId>& context : contexts) {
      covered += compact->Recommend(context, 5, &scratch).covered ? 1 : 0;
    }
  }
  const double covered_share =
      static_cast<double>(covered) / static_cast<double>(contexts.size());
  std::printf("contexts: %zu, covered share %.4f\n", contexts.size(),
              covered_share);

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

  // The end-to-end walk, dense and the legacy sparse sort-merge, each
  // split into descent (MatchedDepth) and score+merge. Rows report the
  // per-round medians.
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
  std::vector<WalkCost> dense_rounds;
  std::vector<WalkCost> sparse_rounds;
  {
    const size_t passes =
        (kRoundQueries + contexts.size() - 1) / contexts.size();
    SnapshotScratch dense_scratch;
    SnapshotScratch sparse_scratch;
    uint64_t matched = 0;
    WallTimer total;
    for (size_t pair = 0; total.ElapsedSeconds() < kTotalSeconds ||
                          dense_rounds.size() < kMinRounds;
         ++pair) {
      for (size_t turn = 0; turn < 2; ++turn) {
        const bool sparse_turn = (pair + turn) % 2 == 1;
        internal::ForceSparseMergeForTest().store(sparse_turn);
        (sparse_turn ? sparse_rounds : dense_rounds)
            .push_back(MeasureRound(*compact, contexts, passes,
                                    sparse_turn ? &sparse_scratch
                                                : &dense_scratch,
                                    &matched));
      }
    }
    internal::ForceSparseMergeForTest().store(false);
    if (matched == 0) std::fprintf(stderr, "warning: no context matched\n");
    std::printf("%zu rounds per variant, %zu queries each\n",
                dense_rounds.size(), passes * contexts.size());
  }
  const WalkCost dense = MedianCost(dense_rounds);
  const WalkCost sparse = MedianCost(sparse_rounds);
  add_walk_row("dense", dense);
  add_walk_row("sparse", sparse);

  {
    Row r;
    r.name = "hotpath_speedup";
    r.dense_over_sparse = sparse.recommend_ns / dense.recommend_ns;
    rows.push_back(r);
    std::printf("\nspeedup: dense/sparse = %.2fx\n", r.dense_over_sparse);
  }

  WriteJson(rows, covered_share);
  return equivalent ? 0 : 1;
}
