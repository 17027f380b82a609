#ifndef SQP_TESTS_NET_NET_TEST_UTIL_H_
#define SQP_TESTS_NET_NET_TEST_UTIL_H_

// Shared substrate for the network-tier tests: a per-process trained
// 2-shard fleet (in-memory snapshots ready to publish), a recursive temp
// directory for on-disk manifests, and helpers to stand up per-shard
// engines for loopback serving. Reuses the serve-layer synthetic corpus
// so networked answers can be compared bit-for-bit against the exact
// same models the in-process suites serve.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "../serve/serve_test_util.h"
#include "serve/recommender_engine.h"
#include "serve/sharded_engine.h"

namespace sqp::net_test {

/// A process-unique temp directory, removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sqp_net_" + std::to_string(::getpid()) + "_" + name))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// Trains one fleet of `num_shards` snapshots from the shared serving
/// corpus. Version tags every shard snapshot and the manifest.
inline ShardedTrainResult TrainFleet(size_t num_shards,
                                     uint64_t version = 1) {
  ShardedTrainOptions options;
  options.num_shards = static_cast<uint32_t>(num_shards);
  options.version = version;
  auto trained =
      TrainShardedSnapshots(serve_test::SharedCorpus().base, options);
  SQP_CHECK_OK(trained.status());
  return std::move(*trained);
}

/// Publishes a trained fleet into fresh single-lane engines (the same
/// configuration a ShardServer embeds) and returns owning + borrowed
/// views. The borrowed vector feeds LoopbackTransportFactory.
struct LoopbackFleet {
  std::vector<std::unique_ptr<RecommenderEngine>> engines;
  std::vector<const RecommenderEngine*> borrowed;
};

inline LoopbackFleet PublishLoopbackFleet(const ShardedTrainResult& trained) {
  LoopbackFleet fleet;
  for (const auto& snapshot : trained.shards) {
    auto engine = std::make_unique<RecommenderEngine>(
        EngineOptions{.num_threads = 1});
    engine->Publish(snapshot);
    fleet.borrowed.push_back(engine.get());
    fleet.engines.push_back(std::move(engine));
  }
  return fleet;
}

/// The reference in-process fleet the networked answers must match.
inline std::unique_ptr<ShardedEngine> PublishReferenceFleet(
    const ShardedTrainResult& trained) {
  auto engine = std::make_unique<ShardedEngine>(
      ShardedEngineOptions{.num_shards = trained.shards.size(),
                           .num_threads = 1});
  for (size_t s = 0; s < trained.shards.size(); ++s) {
    engine->shard(s)->Publish(trained.shards[s]);
  }
  return engine;
}

/// Online contexts drawn from both corpus periods: covered, drifted and
/// unseen mixes, the same recipe the serve-layer equivalence tests use.
inline std::vector<std::vector<QueryId>> FleetContexts(size_t limit = 400) {
  auto contexts =
      serve_test::CollectContexts(serve_test::SharedCorpus().base, limit / 2);
  auto drifted = serve_test::CollectContexts(
      serve_test::SharedCorpus().drifted, limit - contexts.size());
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());
  return contexts;
}

}  // namespace sqp::net_test

#endif  // SQP_TESTS_NET_NET_TEST_UTIL_H_
