// Answer digest: one FNV-1a 64 hash over every top-10 answer the MVMM
// gives on the harness's ground-truth test contexts, through each serving
// path that a bit-identity contract ties together:
//
//   blob       CompactSnapshot, the default truncating pack (top_k 16)
//   keep_all   CompactSnapshot packed with top_k 0
//   snapshot   ModelSnapshot, the exact reference walk
//   slim       the slim C API over the blob's bytes
//   fleet      a 2-shard ShardedEngine (TrainShardedSnapshots, one blob
//              published per shard)
//
// Per context, in harness.truth() order, the hash folds the u64 values
// `covered` and `count`, then each item's query id and score bits, as
// little-endian bytes. It exits nonzero when keep_all != snapshot,
// slim != blob or fleet != blob. The expected digests of the default
// Release build are committed in tests/data/answer_digest.json, one per
// corpus scale (SQP_BENCH_TRAIN_SESSIONS); a different compiler or an
// FMA-capable -march may round differently, while the in-run equalities
// hold on any build. The last stdout line is a JSON summary.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/mvmm_model.h"
#include "harness.h"
#include "serve/sharded_engine.h"
#include "sqp/slim.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

constexpr size_t kTopN = 10;

class Fnv1a64 {
 public:
  void Fold(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Fold(const Recommendation& rec) {
    Fold(rec.covered ? 1 : 0);
    Fold(rec.queries.size());
    for (const ScoredQuery& item : rec.queries) {
      Fold(item.query);
      Fold(std::bit_cast<uint64_t>(item.score));
    }
  }
  std::string Hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Folds `recommend(context)` for every ground-truth context, in order.
template <typename Recommend>
std::string Digest(const Harness& harness, Recommend recommend) {
  Fnv1a64 hash;
  for (const GroundTruthEntry& entry : harness.truth()) {
    hash.Fold(recommend(entry.context));
  }
  return hash.Hex();
}

std::string SlimDigest(const Harness& harness, const CompactSnapshot& blob) {
  sqp_slim_predictor* slim = nullptr;
  const std::span<const uint8_t> bytes = blob.blob_bytes();
  SQP_CHECK(sqp_slim_create_from_buffer(bytes.data(), bytes.size(), &slim) ==
            SQP_STATUS_OK);
  uint32_t queries[kTopN];
  double scores[kTopN];
  const std::string digest =
      Digest(harness, [&](const std::vector<QueryId>& context) {
        size_t count = 0;
        Recommendation rec;
        rec.covered =
            sqp_slim_recommend(slim, context.data(), context.size(), kTopN,
                               queries, scores, &count,
                               nullptr) == SQP_STATUS_OK;
        for (size_t i = 0; i < count; ++i) {
          rec.queries.push_back(ScoredQuery{queries[i], scores[i]});
        }
        return rec;
      });
  sqp_slim_destroy(slim);
  return digest;
}

std::string FleetDigest(Harness& harness, const MvmmOptions& model) {
  ShardedTrainOptions train;
  train.model = model;
  train.num_shards = 2;
  train.vocabulary_size = harness.dictionary().size();
  Result<ShardedTrainResult> trained =
      TrainShardedSnapshots(harness.train(), train);
  SQP_CHECK(trained.ok());
  ShardedEngine fleet(ShardedEngineOptions{.num_shards = 2});
  for (size_t s = 0; s < 2; ++s) {
    fleet.shard(s)->Publish(
        CompactSnapshot::FromSnapshot(*trained.value().shards[s]));
  }
  return Digest(harness, [&](const std::vector<QueryId>& context) {
    return fleet.Recommend(context, kTopN).recommendation;
  });
}

}  // namespace

int main() {
  Harness harness;
  auto* mvmm = static_cast<MvmmModel*>(harness.Mvmm());
  const ModelSnapshot& full = *mvmm->snapshot();
  const auto blob = CompactSnapshot::FromSnapshot(full);
  const auto keep_all = CompactSnapshot::FromSnapshot(full, {.top_k = 0});

  SnapshotScratch scratch;
  const auto serve = [&](const auto& model) {
    return Digest(harness, [&](const std::vector<QueryId>& context) {
      return model.Recommend(context, kTopN, &scratch);
    });
  };
  const std::string paths[][2] = {
      {"blob", serve(*blob)},
      {"keep_all", serve(*keep_all)},
      {"snapshot", serve(full)},
      {"slim", SlimDigest(harness, *blob)},
      {"fleet", FleetDigest(harness, mvmm->options())},
  };
  for (const auto& [name, digest] : paths) {
    std::printf("%-9s %s\n", name.c_str(), digest.c_str());
  }

  int failures = 0;
  const auto require = [&](size_t a, size_t b) {
    if (paths[a][1] == paths[b][1]) return;
    std::fprintf(stderr, "DIGEST MISMATCH: %s != %s\n", paths[a][0].c_str(),
                 paths[b][0].c_str());
    ++failures;
  };
  require(1, 2);  // keep_all == snapshot
  require(3, 0);  // slim == blob
  require(4, 0);  // fleet == blob
  std::printf(
      "{\"train_sessions\": %zu, \"contexts\": %zu, \"top_n\": %zu, "
      "\"digest\": \"%s\", \"paths_agree\": %s}\n",
      harness.config().train_sessions, harness.truth().size(), kTopN,
      paths[0][1].c_str(), failures == 0 ? "true" : "false");
  return failures == 0 ? 0 : 1;
}
