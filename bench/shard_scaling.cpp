// Shard-scaling bench: batch QPS and single-query latency percentiles of
// the sharded serving layer (serve/sharded_engine) as the shard count
// grows, plus the cost side of sharding (training wall time and the
// corpus duplication factor of the session partitioner). Every row also
// re-verifies the subsystem's core claim — the fleet's answers are
// bit-identical to the unsharded model — and the binary exits non-zero on
// any mismatch. Emits BENCH_shard.json (see bench/README.md).
//
// On a 1-core container the QPS rows measure routing overhead, not
// scale-out; the JSON records hardware_threads so cross-PR comparisons
// can normalize (as BENCH_serve.json does).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/sharded_engine.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Measurement {
  size_t shards = 0;
  size_t threads = 0;
  double train_ms = 0.0;
  double duplication = 0.0;  // sum of shard corpus sizes / corpus size
  double batch_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool equivalent = false;
};

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

void WriteJson(const std::vector<Measurement>& measurements,
               size_t hardware_threads) {
  std::FILE* out = std::fopen("BENCH_shard.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_shard.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(
        out,
        "  {\"name\": \"shard_serving\", \"shards\": %zu, \"threads\": %zu, "
        "\"train_ms\": %.3f, \"corpus_duplication\": %.3f, "
        "\"batch_qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
        "\"equivalent_to_unsharded\": %d, \"hardware_threads\": %zu}%s\n",
        m.shards, m.threads, m.train_ms, m.duplication, m.batch_qps,
        m.p50_us, m.p99_us, m.equivalent ? 1 : 0, hardware_threads,
        i + 1 == measurements.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_shard.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "sharded serving layer (QPS / p99 / equivalence vs shards)",
      "every shard count serves bit-identical top-10 lists to the "
      "unsharded model; QPS stays flat (routing is O(1)) and scales with "
      "lanes up to the core count");

  const size_t hardware =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("hardware threads: %zu\n\n", hardware);

  // The unsharded reference: the exact model every fleet must reproduce.
  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const std::shared_ptr<const ModelSnapshot> reference = built.value();
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  bool all_equivalent = true;
  std::vector<Measurement> measurements;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    Measurement m;
    m.shards = shards;

    ShardedTrainOptions train;
    train.model = options;
    train.num_shards = static_cast<uint32_t>(shards);
    train.vocabulary_size = harness.training_data().vocabulary_size;
    WallTimer train_timer;
    auto trained = TrainShardedSnapshots(harness.train(), train);
    SQP_CHECK(trained.ok());
    m.train_ms = train_timer.ElapsedMillis();

    {
      size_t total = 0;
      for (const auto& corpus : trained->corpora) total += corpus.size();
      m.duplication = static_cast<double>(total) /
                      static_cast<double>(harness.train().size());
    }

    ShardedEngine engine(ShardedEngineOptions{
        .num_shards = shards, .num_threads = std::min<size_t>(hardware, 4)});
    m.threads = engine.num_threads();
    for (size_t s = 0; s < shards; ++s) {
      engine.shard(s)->Publish(trained->shards[s]);
    }

    // Equivalence first (it is the claim the QPS numbers rest on).
    m.equivalent = true;
    {
      SnapshotScratch scratch;
      for (const std::vector<QueryId>& context : contexts) {
        if (!SameRecommendation(
                reference->Recommend(context, 10, &scratch),
                engine.Recommend(context, 10).recommendation)) {
          m.equivalent = false;
          all_equivalent = false;
          break;
        }
      }
    }

    // Batched QPS through the cross-shard fan-out, on the bulk lane.
    {
      ServeOptions bulk;
      bulk.lane = QosLane::kBulk;
      std::vector<ContextRef> refs;
      size_t cursor = 0;
      uint64_t served = 0;
      WallTimer timer;
      while (timer.ElapsedSeconds() < 0.8) {
        refs.clear();
        for (size_t i = 0; i < 256; ++i) {
          const std::vector<QueryId>& context = contexts[cursor];
          refs.emplace_back(context.data(), context.size());
          cursor = (cursor + 1) % contexts.size();
        }
        served += engine.RecommendMany(refs, 5, bulk).served;
      }
      m.batch_qps = static_cast<double>(served) / timer.ElapsedSeconds();
    }

    // Single-query latency through the routing front door.
    {
      std::vector<double> latencies_us;
      latencies_us.reserve(1 << 20);
      size_t cursor = 0;
      WallTimer total;
      while (total.ElapsedSeconds() < 0.8) {
        WallTimer timer;
        const ServeResult result = engine.Recommend(contexts[cursor], 5);
        latencies_us.push_back(timer.ElapsedSeconds() * 1e6);
        (void)result;
        cursor = (cursor + 1) % contexts.size();
      }
      m.p50_us = Percentile(&latencies_us, 0.50);
      m.p99_us = Percentile(&latencies_us, 0.99);
    }

    std::printf(
        "shards=%zu  train=%.0fms  dup=%.2fx  batch_qps=%.0f  "
        "p50=%.3fus  p99=%.3fus  equivalent=%s\n",
        m.shards, m.train_ms, m.duplication, m.batch_qps, m.p50_us, m.p99_us,
        m.equivalent ? "yes" : "NO");
    measurements.push_back(m);
  }

  WriteJson(measurements, hardware);

  if (!all_equivalent) {
    std::fprintf(stderr,
                 "ERROR: a sharded fleet diverged from the unsharded "
                 "model's answers\n");
    return 1;
  }
  return 0;
}
