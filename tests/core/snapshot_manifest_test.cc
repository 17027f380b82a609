// The SnapshotManifest format suite: round-trips, corruption/truncation
// rejection, blob-pin and payload verification at boot — and the committed
// golden 2-shard manifest that pins the manifest format (and the partition
// function behind it) as a compatibility contract, exactly like
// golden_snapshot_v4.blob pins the blob format.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "net/shard_server.h"
#include "serve/sharded_engine.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

/// Deterministic corpus, as in snapshot_io_test.cc: pure integer
/// arithmetic so the same seed yields the same corpus on any platform —
/// the golden-manifest contract depends on it.
std::vector<AggregatedSession> SeededCorpus(uint64_t seed,
                                            size_t num_sessions,
                                            QueryId vocabulary) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<AggregatedSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    AggregatedSession session;
    const size_t length = 2 + next() % 5;
    session.queries.reserve(length);
    for (size_t q = 0; q < length; ++q) {
      const QueryId a = static_cast<QueryId>(next() % vocabulary);
      const QueryId b = static_cast<QueryId>(next() % vocabulary);
      session.queries.push_back(std::min(a, b));
    }
    session.frequency = 1 + next() % 8;
    sessions.push_back(std::move(session));
  }
  return sessions;
}

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("sqp_manifest_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  std::ifstream in(path, std::ios::binary);
  SQP_CHECK(in.read(reinterpret_cast<char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()))
                .good());
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  SQP_CHECK(out.good());
}

ShardedTrainResult TrainFleet(const std::vector<AggregatedSession>& corpus,
                              uint32_t num_shards, uint64_t version) {
  ShardedTrainOptions options;
  options.model.default_max_depth = 4;
  options.num_shards = num_shards;
  options.vocabulary_size = 1 << 10;
  options.version = version;
  auto trained = TrainShardedSnapshots(corpus, options);
  SQP_CHECK(trained.ok());
  return std::move(trained.value());
}

TEST(ManifestTest, SaveLoadRoundTrip) {
  TempDir dir;
  const auto trained = TrainFleet(SeededCorpus(51, 400, 90), 3, 7);
  const std::string path = dir.file("fleet.manifest");
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{.top_k = 10}, path)
          .ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto loaded = SnapshotIo::LoadManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_shards(), 3u);
  EXPECT_EQ(loaded->partition_function, kShardPartitionLastQueryFnv1a);
  EXPECT_EQ(loaded->version, 7u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(loaded->shards[s].path,
              "fleet.manifest.shard" + std::to_string(s));
    const std::string blob = ResolveAgainstManifest(path,
                                                    loaded->shards[s].path);
    EXPECT_EQ(loaded->shards[s].file_size,
              std::filesystem::file_size(blob));
    const auto mapped = SnapshotIo::MapShard(*loaded, path, s);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->version(), 7u);
  }
}

TEST(ManifestTest, CorruptOrTruncatedManifestsAreRejected) {
  TempDir dir;
  const auto trained = TrainFleet(SeededCorpus(53, 200, 60), 2, 1);
  const std::string path = dir.file("c.manifest");
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{}, path).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);

  // Every single-byte flip must be caught by the CRC trailer (or the
  // magic/format checks before it).
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> mutated = bytes;
    mutated[at] ^= 0x5A;
    WriteAll(path, mutated);
    EXPECT_FALSE(SnapshotIo::LoadManifest(path).ok()) << "byte " << at;
  }
  // Truncations at every interesting boundary.
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{8}, size_t{27}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteAll(path, std::vector<uint8_t>(
                       bytes.begin(),
                       bytes.begin() + static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(SnapshotIo::LoadManifest(path).ok()) << "kept " << keep;
  }
  // Trailing garbage shifts the trailer window.
  std::vector<uint8_t> longer = bytes;
  longer.push_back(0x00);
  WriteAll(path, longer);
  EXPECT_FALSE(SnapshotIo::LoadManifest(path).ok());
}

TEST(ManifestTest, StaleBlobPinIsRefused) {
  TempDir dir;
  const std::string path = dir.file("s.manifest");
  const auto corpus = SeededCorpus(54, 300, 70);
  const auto trained = TrainFleet(corpus, 2, 1);
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{}, path).ok());

  // Swap shard 1's blob for a differently-trained one: the blob itself is
  // valid, but it is not what the manifest pinned.
  const auto other = TrainFleet(SeededCorpus(99, 300, 70), 2, 1);
  const auto packed =
      CompactSnapshot::FromSnapshot(*other.shards[1], CompactOptions{});
  ASSERT_TRUE(SnapshotIo::Save(*packed, path + ".shard1").ok());

  const auto manifest = SnapshotIo::LoadManifest(path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(SnapshotIo::MapShard(*manifest, path, 0).ok());
  const auto stale = SnapshotIo::MapShard(*manifest, path, 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("manifest pin"), std::string::npos)
      << stale.status().ToString();

  // The fleet boot is all-or-nothing: no fleet boots off a stale pin.
  EXPECT_FALSE(ShardedEngine::BootFromManifest(path).ok());

  // A blob whose pin still matches but whose payload has one flipped
  // bit: the pin only covers the header, so the section CRCs every boot
  // verifies must catch it — in-process and in a shard server alike.
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{}, path).ok());
  const auto repinned = SnapshotIo::LoadManifest(path);
  ASSERT_TRUE(repinned.ok());
  std::vector<uint8_t> blob = ReadAll(path + ".shard0");
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  blob[layout.sections[serving::kSecSigmas].offset] ^= 0x01;
  WriteAll(path + ".shard0", blob);
  ASSERT_EQ(repinned->shards[0].file_size, blob.size());
  ASSERT_EQ(repinned->shards[0].header_crc, LoadLE32(blob.data() + 60));
  const auto flipped = ShardedEngine::BootFromManifest(path);
  ASSERT_FALSE(flipped.ok());
  EXPECT_NE(flipped.status().message().find("checksum"), std::string::npos)
      << flipped.status().ToString();
  net::ShardServer server;
  EXPECT_FALSE(server.StartFromManifest(path, 0).ok());
  EXPECT_TRUE(server.StartFromManifest(path, 1).ok());
  server.Stop();
}

TEST(ManifestTest, ShardCountAndPartitionMismatchesAreRefused) {
  TempDir dir;
  const std::string path = dir.file("m.manifest");
  const auto trained = TrainFleet(SeededCorpus(55, 200, 60), 2, 1);
  ASSERT_TRUE(
      SaveShardedSnapshots(trained.shards, CompactOptions{}, path).ok());

  // A fleet takes its shard count from the manifest; a shard server
  // asking for a shard the manifest does not have is refused.
  auto booted = ShardedEngine::BootFromManifest(
      path, ShardedEngineOptions{.num_shards = 3});
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  EXPECT_EQ((*booted)->num_shards(), 2u);
  net::ShardServer server;
  EXPECT_FALSE(server.StartFromManifest(path, 2).ok());

  // Unknown partition function id.
  auto manifest = SnapshotIo::LoadManifest(path);
  ASSERT_TRUE(manifest.ok());
  SnapshotManifest altered = *manifest;
  altered.partition_function = 999;
  ASSERT_TRUE(SnapshotIo::SaveManifest(altered, path).ok());
  EXPECT_FALSE(ShardedEngine::BootFromManifest(path).ok());
  EXPECT_FALSE(server.StartFromManifest(path, 0).ok());
}

TEST(ManifestTest, ResolveAgainstManifestHandlesRelativeAndAbsolute) {
  EXPECT_EQ(ResolveAgainstManifest("/data/fleet.manifest", "s0.blob"),
            "/data/s0.blob");
  EXPECT_EQ(ResolveAgainstManifest("fleet.manifest", "s0.blob"), "s0.blob");
  EXPECT_EQ(ResolveAgainstManifest("/data/fleet.manifest", "/abs/s0.blob"),
            "/abs/s0.blob");
}

// ------------------------------------------------ format compatibility

/// The committed golden manifest + per-shard blobs: regenerate with
///   SQP_REGEN_GOLDEN=1 ./sqp_core_tests --gtest_filter='*ManifestGolden*'
/// and commit the three files together with a kManifestFormatVersion bump
/// whenever the manifest format intentionally changes. CI runs this in
/// the snapshot-format job: if the current reader cannot boot the golden
/// fleet — or the booted fleet disagrees with a freshly trained one — the
/// manifest format (or the partition function behind it) drifted silently.
constexpr char kGoldenManifestRelPath[] = "/golden_manifest_v1.manifest";
constexpr uint64_t kGoldenSeed = 88;
constexpr size_t kGoldenSessions = 500;
constexpr QueryId kGoldenVocabulary = 100;
constexpr uint32_t kGoldenShards = 2;
constexpr uint64_t kGoldenVersion = 1;

TEST(ManifestGoldenTest, CommittedManifestBootsAndMatchesFreshFleet) {
  const std::string golden_path =
      std::string(SQP_TEST_DATA_DIR) + kGoldenManifestRelPath;
  const auto corpus =
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary);
  const auto trained = TrainFleet(corpus, kGoldenShards, kGoldenVersion);
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SaveShardedSnapshots(trained.shards,
                                     CompactOptions{.top_k = 10},
                                     golden_path)
                    .ok());
    GTEST_SKIP() << "regenerated " << golden_path << " (+ shard blobs)";
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << golden_path << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  auto booted = ShardedEngine::BootFromManifest(golden_path);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  ASSERT_EQ((*booted)->num_shards(), kGoldenShards);
  EXPECT_EQ(std::ranges::max((*booted)->shard_versions()), kGoldenVersion);

  // Freshly trained + freshly packed must serve exactly what the golden
  // bytes serve (same compact top-K on both sides).
  ShardedEngine fresh(ShardedEngineOptions{.num_shards = kGoldenShards});
  for (size_t s = 0; s < kGoldenShards; ++s) {
    fresh.shard(s)->Publish(CompactSnapshot::FromSnapshot(
        *trained.shards[s], CompactOptions{.top_k = 10}));
  }

  size_t checked = 0;
  for (const AggregatedSession& session : corpus) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      const std::vector<QueryId> context(
          session.queries.begin(),
          session.queries.begin() + static_cast<ptrdiff_t>(len));
      const Recommendation want = fresh.Recommend(context, 10).recommendation;
      const Recommendation got =
          (*booted)->Recommend(context, 10).recommendation;
      ASSERT_EQ(want.covered, got.covered);
      ASSERT_EQ(want.matched_length, got.matched_length);
      ASSERT_EQ(want.queries.size(), got.queries.size());
      for (size_t i = 0; i < want.queries.size(); ++i) {
        EXPECT_EQ(want.queries[i].query, got.queries[i].query);
        EXPECT_DOUBLE_EQ(want.queries[i].score, got.queries[i].score);
      }
      if (++checked >= 500) return;
    }
  }
}

TEST(ManifestGoldenTest, SaveReproducesCommittedBytes) {
  // The writers are pinned byte for byte: saving the freshly trained golden
  // fleet under the golden file name must reproduce the committed manifest
  // and both shard blobs exactly (the manifest stores the shard paths
  // relative to its own name).
  const auto trained =
      TrainFleet(SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary),
                 kGoldenShards, kGoldenVersion);
  TempDir dir;
  const std::string name = std::string(kGoldenManifestRelPath).substr(1);
  ASSERT_TRUE(SaveShardedSnapshots(trained.shards,
                                   CompactOptions{.top_k = 10},
                                   dir.file(name))
                  .ok());
  for (const std::string suffix : {"", ".shard0", ".shard1"}) {
    const std::vector<uint8_t> saved = ReadAll(dir.file(name + suffix));
    const std::vector<uint8_t> committed = ReadAll(
        std::string(SQP_TEST_DATA_DIR) + kGoldenManifestRelPath + suffix);
    EXPECT_EQ(saved.size(), committed.size()) << name << suffix;
    EXPECT_TRUE(saved == committed) << name << suffix << " bytes differ";
  }
}

}  // namespace
}  // namespace sqp
