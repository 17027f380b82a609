// Embedded-predictor bench: the slim C API (libsqp_slim) serving the same
// compact snapshot the engine serves, from one malloc'd blob buffer. Emits
// BENCH_slim.json (see bench/README.md) with the ns/recommend cost of the
// dependency-free walk and the bytes the predictor keeps resident beyond
// the caller's blob.
//
// The binary also self-enforces the split's correctness bar: before any
// timing is reported it replays every bench context through both the slim
// predictor and the engine-side CompactSnapshot and requires bit-identical
// top-10 lists (query ids AND score bits), exiting nonzero on mismatch.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "harness.h"
#include "sqp/slim.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Row {
  std::string name;
  double recommend_ns = 0.0;
  double qps = 0.0;
  uint64_t resident_bytes = 0;
  uint64_t blob_bytes = 0;
  int ok = -1;  // equivalence rows: 1/0; -1 = field unused
};

/// Covered test contexts (length <= 5), as in hot_path / serve_throughput.
std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

/// Round-trips the compact snapshot through the on-disk blob format and
/// reads it back into one malloc'd buffer — the exact byte stream an
/// embedding caller would hand sqp_slim_create_from_buffer.
std::vector<uint8_t> BlobBytes(const CompactSnapshot& snapshot) {
  const std::string path = "/tmp/sqp_slim_bench.blob";
  SQP_CHECK(SnapshotIo::Save(snapshot, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SQP_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  SQP_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  std::remove(path.c_str());
  return bytes;
}

// -------------------------------------------------- equivalence check

bool SlimMatchesEngineEverywhere(
    sqp_slim_predictor* slim, const CompactSnapshot& snapshot,
    const std::vector<std::vector<QueryId>>& contexts) {
  SnapshotScratch scratch;
  uint32_t queries[10];
  double scores[10];
  size_t mismatches = 0;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation ref = snapshot.Recommend(context, 10, &scratch);
    size_t count = 0;
    size_t matched = 0;
    const sqp_status_t status =
        sqp_slim_recommend(slim, context.data(), context.size(), 10, queries,
                           scores, &count, &matched);
    bool same;
    if (!ref.covered) {
      same = status == SQP_STATUS_NOT_FOUND && count == 0;
    } else if (status != SQP_STATUS_OK || count != ref.queries.size() ||
               matched != ref.matched_length) {
      same = false;
    } else {
      same = true;
      for (size_t i = 0; i < count; ++i) {
        if (queries[i] != ref.queries[i].query ||
            std::memcmp(&scores[i], &ref.queries[i].score, sizeof(double)) !=
                0) {
          same = false;
          break;
        }
      }
    }
    if (!same) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: %zu/%zu contexts diverged between "
                 "the slim C API and the engine CompactSnapshot\n",
                 mismatches, contexts.size());
  }
  return mismatches == 0;
}

// ------------------------------------------------------ latency probe

double MeasureRecommendNs(sqp_slim_predictor* slim,
                          const std::vector<std::vector<QueryId>>& contexts,
                          double seconds, double* qps_out) {
  uint32_t queries[10];
  double scores[10];
  size_t count = 0;
  size_t cursor = 0;
  uint64_t served = 0;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    for (size_t burst = 0; burst < 256; ++burst) {
      const std::vector<QueryId>& context = contexts[cursor];
      (void)sqp_slim_recommend(slim, context.data(), context.size(), 10,
                               queries, scores, &count, nullptr);
      cursor = (cursor + 1) % contexts.size();
      ++served;
    }
  }
  const double total = timer.ElapsedSeconds();
  if (qps_out != nullptr) *qps_out = static_cast<double>(served) / total;
  return total * 1e9 / static_cast<double>(served);
}

void WriteJson(const std::vector<Row>& rows) {
  std::FILE* out = std::fopen("BENCH_slim.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_slim.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "  {\"name\": \"%s\"", r.name.c_str());
    if (r.recommend_ns != 0.0) {
      std::fprintf(out, ", \"recommend_ns\": %.1f, \"qps\": %.0f",
                   r.recommend_ns, r.qps);
    }
    if (r.resident_bytes != 0) {
      std::fprintf(out, ", \"resident_bytes\": %llu, \"blob_bytes\": %llu",
                   static_cast<unsigned long long>(r.resident_bytes),
                   static_cast<unsigned long long>(r.blob_bytes));
    }
    if (r.ok >= 0) std::fprintf(out, ", \"ok\": %d", r.ok);
    std::fprintf(out, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_slim.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "slim embedded predictor (stable C API over one blob buffer)",
      "the dependency-free serve-only walk answers bit-identically to the "
      "engine CompactSnapshot at comparable per-recommend cost");

  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const auto compact = CompactSnapshot::FromSnapshot(*built.value());
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  const std::vector<uint8_t> blob = BlobBytes(*compact);
  sqp_slim_predictor* slim = nullptr;
  const sqp_status_t created =
      sqp_slim_create_from_buffer(blob.data(), blob.size(), &slim);
  if (created != SQP_STATUS_OK) {
    std::fprintf(stderr, "slim create failed: %s\n", sqp_status_name(created));
    return 1;
  }
  sqp_slim_stats_t stats;
  std::memset(&stats, 0, sizeof(stats));
  stats.struct_size = sizeof(stats);
  SQP_CHECK(sqp_slim_stats(slim, &stats) == SQP_STATUS_OK);

  std::vector<Row> rows;

  // Correctness first: no timing is worth reporting off a divergent walk.
  const bool equivalent = SlimMatchesEngineEverywhere(slim, *compact, contexts);
  {
    Row r;
    r.name = "slim_equivalence";
    r.ok = equivalent ? 1 : 0;
    rows.push_back(r);
  }
  std::printf("equivalence (slim C API vs engine, top-10 bits): %s\n\n",
              equivalent ? "ok" : "FAILED");

  {
    Row r;
    r.name = "slim_predict";
    r.recommend_ns =
        MeasureRecommendNs(slim, contexts, /*seconds=*/0.6, &r.qps);
    r.resident_bytes = stats.resident_bytes;
    r.blob_bytes = blob.size();
    rows.push_back(r);
    std::printf("slim    recommend=%.0fns qps=%.0f resident=%lluB "
                "(blob=%lluB, nodes=%llu, entries=%llu)\n",
                r.recommend_ns, r.qps,
                static_cast<unsigned long long>(r.resident_bytes),
                static_cast<unsigned long long>(r.blob_bytes),
                static_cast<unsigned long long>(stats.num_nodes),
                static_cast<unsigned long long>(stats.num_entries));
  }

  sqp_slim_destroy(slim);
  WriteJson(rows);
  return equivalent ? 0 : 1;
}
