// The slim embedded predictor's contract suite (include/sqp/slim.h):
//
//   - equivalence: slim serves bit-identical top-10 lists (score bits
//     included) to the engine's CompactSnapshot on the committed golden
//     blob, over the same seeded context sweep the persistence suite uses;
//   - robustness: truncated and byte-flipped buffers never crash and the
//     two consumers agree on acceptance — whatever the engine loader
//     rejects as InvalidArgument, slim rejects as
//     SQP_STATUS_INVALID_ARGUMENT (both sit on core/blob_format, so this
//     pins that neither grows private validation);
//   - C-ABI hygiene: argument policing, the stats struct_size handshake,
//     and NULL-safe destroy.
//
// The pure-C side of the story (C99 TU, no libstdc++ on the link line)
// lives in slim_c_smoke.c.

#include "sqp/slim.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../core/blob_test_util.h"
#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "log/types.h"
#include "util/byte_io.h"
#include "util/status.h"

namespace sqp {
namespace {

constexpr char kGoldenRelPath[] = "/golden_snapshot_v4.blob";
constexpr uint64_t kGoldenSeed = 77;
constexpr size_t kGoldenSessions = 500;
constexpr QueryId kGoldenVocabulary = 100;

std::string GoldenPath() {
  return std::string(SQP_TEST_DATA_DIR) + kGoldenRelPath;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// The same deterministic corpus generator the persistence suite seeds its
/// golden contexts from (tests/core/snapshot_io_test.cc) — kept in sync by
/// the shared constants above and the golden top-10 comparison below.
std::vector<std::vector<QueryId>> GoldenContexts(size_t limit) {
  uint64_t state = kGoldenSeed * 6364136223846793005ull +
                   1442695040888963407ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<std::vector<QueryId>> contexts;
  for (size_t s = 0; s < kGoldenSessions; ++s) {
    std::vector<QueryId> session;
    const size_t length = 2 + next() % 5;
    session.reserve(length);
    for (size_t q = 0; q < length; ++q) {
      const QueryId a = static_cast<QueryId>(next() % kGoldenVocabulary);
      const QueryId b = static_cast<QueryId>(next() % kGoldenVocabulary);
      session.push_back(std::min(a, b));
    }
    next();  // the corpus draw for `frequency`, unused here
    for (size_t len = 1; len <= session.size(); ++len) {
      contexts.emplace_back(session.begin(),
                            session.begin() + static_cast<ptrdiff_t>(len));
      if (contexts.size() >= limit) return contexts;
    }
  }
  return contexts;
}

class SlimPredictorHandle {
 public:
  explicit SlimPredictorHandle(const std::vector<uint8_t>& blob) {
    status_ = sqp_slim_create_from_buffer(blob.data(), blob.size(), &p_);
  }
  ~SlimPredictorHandle() { sqp_slim_destroy(p_); }
  sqp_status_t status() const { return status_; }
  sqp_slim_predictor* get() const { return p_; }

 private:
  sqp_slim_predictor* p_ = nullptr;
  sqp_status_t status_ = SQP_STATUS_OK;
};

// --------------------------------------------------------- equivalence

TEST(SlimApiTest, BitIdenticalTopTenToEngineOnGoldenBlob) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(blob.empty());

  const auto loaded = SnapshotIo::Load(GoldenPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  SlimPredictorHandle slim(blob);
  ASSERT_EQ(slim.status(), SQP_STATUS_OK);

  SnapshotScratch scratch;
  uint32_t queries[10];
  double scores[10];
  size_t served = 0;
  size_t covered_contexts = 0;
  for (const std::vector<QueryId>& context : GoldenContexts(500)) {
    const Recommendation expected =
        (*loaded)->Recommend(context, 10, &scratch);

    size_t count = 0;
    size_t matched = 0;
    const sqp_status_t status =
        sqp_slim_recommend(slim.get(), context.data(), context.size(), 10,
                           queries, scores, &count, &matched);
    if (expected.covered) {
      ASSERT_EQ(status, SQP_STATUS_OK);
      ASSERT_EQ(count, expected.queries.size());
      EXPECT_EQ(matched, expected.matched_length);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(queries[i], expected.queries[i].query);
        // Bit equality, not tolerance: both consumers run the same
        // serving_walk arithmetic in the same order.
        EXPECT_EQ(scores[i], expected.queries[i].score);
      }
      ++covered_contexts;
      served += count;
    } else {
      EXPECT_EQ(status, SQP_STATUS_NOT_FOUND);
      EXPECT_EQ(count, 0u);
    }
  }
  // The sweep must actually exercise the model, not vacuously pass.
  EXPECT_GT(covered_contexts, 100u);
  EXPECT_GT(served, 1000u);
}

TEST(SlimApiTest, StatsMatchEngineCounters) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  const auto loaded = SnapshotIo::Load(GoldenPath());
  ASSERT_TRUE(loaded.ok());

  SlimPredictorHandle slim(blob);
  ASSERT_EQ(slim.status(), SQP_STATUS_OK);

  sqp_slim_stats_t stats;
  stats.struct_size = sizeof(stats);
  ASSERT_EQ(sqp_slim_stats(slim.get(), &stats), SQP_STATUS_OK);
  EXPECT_EQ(stats.struct_size, sizeof(stats));
  EXPECT_EQ(stats.snapshot_version, (*loaded)->version());
  EXPECT_EQ(stats.num_nodes, (*loaded)->num_nodes());
  EXPECT_EQ(stats.num_entries, (*loaded)->num_entries());
  EXPECT_EQ(stats.num_components, (*loaded)->sigmas().size());
  EXPECT_GT(stats.resident_bytes, 0u);
}

// ---------------------------------------------------------- robustness

/// Writes `bytes` to a scratch file and reports whether the engine loader
/// accepts them (every rejection must be InvalidArgument — the taxonomy
/// slim mirrors).
bool EngineAccepts(const std::vector<uint8_t>& bytes,
                   const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sqp_slim_corrupt_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = SnapshotIo::Load(path);
  std::filesystem::remove(path);
  if (!loaded.ok()) {
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << tag << ": " << loaded.status().ToString();
  }
  return loaded.ok();
}

TEST(SlimApiTest, TruncatedBuffersAreTypedErrorsAndAgreeWithEngine) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(blob.empty());
  const size_t cuts[] = {1,  8,   63,  64,  65,  blob.size() / 4,
                         blob.size() / 2, blob.size() - 64,
                         blob.size() - 1};
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, blob.size());
    const std::vector<uint8_t> truncated(blob.begin(),
                                         blob.begin() +
                                             static_cast<ptrdiff_t>(cut));
    SlimPredictorHandle slim(truncated);
    EXPECT_EQ(slim.status(), SQP_STATUS_INVALID_ARGUMENT)
        << "cut=" << cut;
    EXPECT_FALSE(EngineAccepts(truncated, "trunc" + std::to_string(cut)))
        << "cut=" << cut;
  }
}

TEST(SlimApiTest, ByteFlippedBuffersAgreeWithEngine) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(blob.empty());
  size_t rejected = 0;
  // A stride sweep over the whole file. Flips landing in the alignment
  // padding between sections are legitimately invisible to both readers
  // (no CRC covers padding); the contract under test is that slim and
  // the engine always AGREE, and reject with the same typed error.
  for (size_t offset = 0; offset < blob.size();
       offset += 1 + blob.size() / 97) {
    std::vector<uint8_t> flipped = blob;
    flipped[offset] ^= 0x40;
    SlimPredictorHandle slim(flipped);
    const bool engine_ok =
        EngineAccepts(flipped, "flip" + std::to_string(offset));
    if (engine_ok) {
      EXPECT_EQ(slim.status(), SQP_STATUS_OK) << "offset=" << offset;
    } else {
      EXPECT_EQ(slim.status(), SQP_STATUS_INVALID_ARGUMENT)
          << "offset=" << offset;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 10u);  // the sweep must hit CRC-covered bytes
}

TEST(SlimApiTest, GarbageBuffersAreRejected) {
  const std::vector<uint8_t> zeros(4096, 0);
  SlimPredictorHandle slim(zeros);
  EXPECT_EQ(slim.status(), SQP_STATUS_INVALID_ARGUMENT);
}

TEST(SlimApiTest, HostileMixtureParametersAreRefusedByBothReaders) {
  // CRC-valid but unusable mixture parameters: a sigma that is not finite
  // and > 0 would score NaN or silently take the depth fallback. Both
  // readers must refuse it as invalid input.
  const std::vector<uint8_t> golden = ReadFileBytes(GoldenPath());
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(golden.data(), golden.size(), &layout),
            serving::BlobError::kNone);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    serving::BlobSectionId section;
    double value;
  } cases[] = {
      {serving::kSecSigmas, 0.0},
      {serving::kSecSigmas, nan},
      {serving::kSecSigmas, -1.0},
      {serving::kSecSigmas, inf},
  };
  for (const auto& c : cases) {
    const std::string tag = "section" + std::to_string(c.section) + "=" +
                            std::to_string(c.value);
    std::vector<uint8_t> blob = golden;
    StoreLE64(blob.data() + layout.sections[c.section].offset,
              std::bit_cast<uint64_t>(c.value));
    ResealSection(&blob, c.section);
    serving::BlobLayout patched;
    ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &patched),
              serving::BlobError::kNone)
        << tag << ": the patch must pass every checksum";
    SlimPredictorHandle slim(blob);
    EXPECT_EQ(slim.status(), SQP_STATUS_INVALID_ARGUMENT) << tag;
    EXPECT_FALSE(EngineAccepts(blob, tag)) << tag;
  }
}

/// A valid blob of a small wide-id model whose local-to-global table's
/// last entry (query 65535) is rewritten to `hostile_id`, with the section,
/// section-table and header CRCs re-sealed — a few KB that parse and
/// validate cleanly yet name one id far beyond the model's size. Query
/// 65535 only ever ends a session, so it widens the id pools without
/// growing the root index, and it is the largest id, so the table stays
/// strictly ascending.
std::vector<uint8_t> WideBlobNamingId(uint32_t hostile_id,
                                      std::vector<std::vector<QueryId>>*
                                          contexts) {
  const std::vector<AggregatedSession> sessions = {
      {{1, 2, 3}, 5}, {{2, 4}, 3},    {{1, 2, 4}, 2},    {{3, 2, 3}, 4},
      {{2, 3, 5}, 6}, {{4, 1, 2}, 1}, {{5, 65535}, 2}};
  for (const AggregatedSession& session : sessions) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      contexts->emplace_back(session.queries.begin(),
                             session.queries.begin() +
                                 static_cast<ptrdiff_t>(len));
    }
  }
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = 65536;
  auto full = ModelSnapshot::Build(data, MvmmOptions{});
  EXPECT_TRUE(full.ok());
  const auto compact =
      CompactSnapshot::FromSnapshot(**full, CompactOptions{.top_k = 0});
  const std::span<const uint8_t> bytes = compact->blob_bytes();
  std::vector<uint8_t> blob(bytes.begin(), bytes.end());

  serving::BlobLayout layout;
  EXPECT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  EXPECT_FALSE(layout.narrow_ids);
  uint8_t* last_global = blob.data() +
                         layout.sections[serving::kSecNextGlobal].offset +
                         4 * (layout.num_next_queries - 1);
  EXPECT_EQ(LoadLE32(last_global), 65535u);
  StoreLE32(last_global, hostile_id);
  ResealSection(&blob, serving::kSecNextGlobal);
  return blob;
}

TEST(SlimApiTest, SparseWideIdSpaceStaysSmallAndAgreesWithEngine) {
  // A global id space of 2^24 would mean 2^24 slots (256 MiB of score,
  // stamp and touched arrays) for this few-KB blob if the accumulator were
  // indexed by global id. It is indexed by the blob's L local ids, so both
  // consumers bind it dense with L slots and serve the same answers.
  constexpr uint32_t kHostileId = (1u << 24) - 2;
  std::vector<std::vector<QueryId>> contexts;
  const std::vector<uint8_t> blob = WideBlobNamingId(kHostileId, &contexts);
  ASSERT_LT(blob.size(), 16u << 10);
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sqp_slim_hostile_" + std::to_string(::getpid()) + ".blob"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  const auto loaded = SnapshotIo::Load(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->ScratchHint().dense_queries, layout.num_next_queries);

  SlimPredictorHandle slim(blob);
  ASSERT_EQ(slim.status(), SQP_STATUS_OK);
  sqp_slim_stats_t stats;
  stats.struct_size = sizeof(stats);
  ASSERT_EQ(sqp_slim_stats(slim.get(), &stats), SQP_STATUS_OK);
  EXPECT_EQ(stats.dense_merge, 1u);
  EXPECT_LT(stats.resident_bytes, uint64_t{1} << 20);

  SnapshotScratch scratch;
  uint32_t queries[10];
  double scores[10];
  bool served_hostile = false;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation expected =
        (*loaded)->Recommend(context, 10, &scratch);
    size_t count = 0;
    size_t matched = 0;
    const sqp_status_t status =
        sqp_slim_recommend(slim.get(), context.data(), context.size(), 10,
                           queries, scores, &count, &matched);
    ASSERT_EQ(status, expected.covered ? SQP_STATUS_OK
                                       : SQP_STATUS_NOT_FOUND);
    ASSERT_EQ(count, expected.queries.size());
    EXPECT_EQ(matched, expected.matched_length);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(queries[i], expected.queries[i].query);
      EXPECT_EQ(scores[i], expected.queries[i].score);
      served_hostile = served_hostile || queries[i] == kHostileId;
    }
  }
  EXPECT_TRUE(served_hostile) << "the patched entry was never served";
}

/// The BlobError serving::BindBlob gives `blob`.
serving::BlobError BindError(const std::vector<uint8_t>& blob) {
  serving::BlobLayout layout;
  serving::ModelRef model;
  return serving::BindBlob(blob.data(), blob.size(), &layout, &model);
}

TEST(SlimApiTest, HostileV2StructureGivesItsOwnErrorInBothReaders) {
  // CRC-valid blobs that break one structural invariant each (v2's local
  // ids, v4's computed child ids) or carry an older version. BindBlob must
  // name
  // the broken invariant, and the engine (InvalidArgument, with the same
  // message) and slim (SQP_STATUS_INVALID_ARGUMENT) must both refuse it.
  const std::vector<uint8_t> golden = ReadFileBytes(GoldenPath());
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(golden.data(), golden.size(), &layout),
            serving::BlobError::kNone);
  ASSERT_TRUE(layout.narrow_ids);
  ASSERT_GT(layout.num_next_queries, 1u);
  const auto at = [&layout](std::vector<uint8_t>* blob,
                            serving::BlobSectionId id) {
    return blob->data() + layout.sections[id].offset;
  };
  // The first node with children: it owns edge 0, the root's run is empty.
  size_t first_parent = 1;
  while (LoadLE32(golden.data() +
                  layout.sections[serving::kSecChildBegin].offset +
                  4 * (first_parent + 1)) == 0) {
    ++first_parent;
  }
  ASSERT_EQ(first_parent, 1u) << "node 1 must have children";

  const struct {
    const char* name;
    serving::BlobSectionId section;
    void (*patch)(uint8_t* section, const serving::BlobLayout& layout);
    serving::BlobError want;
  } cases[] = {
      {"local next id >= L", serving::kSecNextQuery,
       [](uint8_t* pool, const serving::BlobLayout& l) {
         StoreLE16(pool, static_cast<uint16_t>(l.num_next_queries));
       },
       serving::BlobError::kNextQueryRange},
      {"table not strictly ascending", serving::kSecNextGlobal,
       [](uint8_t* table, const serving::BlobLayout&) {
         StoreLE16(table + 2, LoadLE16(table));
       },
       serving::BlobError::kNextGlobalOrder},
      {"non-empty root edge run", serving::kSecChildBegin,
       [](uint8_t* child_begin, const serving::BlobLayout&) {
         // Hand node 1's children to the root.
         StoreLE32(child_begin + 4, LoadLE32(child_begin + 8));
       },
       serving::BlobError::kRootEdgeRun},
      {"edge run not past its node", serving::kSecChildBegin,
       [](uint8_t* child_begin, const serving::BlobLayout& l) {
         // Hand every edge to the last node. The offsets stay monotone,
         // but node base's run now starts at base + 0: its children would
         // include itself.
         for (uint64_t node = 1; node < l.num_nodes; ++node) {
           StoreLE32(child_begin + 4 * node, 0);
         }
       },
       serving::BlobError::kEdgeBackward},
      {"root index id >= base", serving::kSecRootIndex,
       [](uint8_t* root_index, const serving::BlobLayout& l) {
         const uint64_t base = l.num_nodes - l.num_edges;
         StoreLE16(root_index, static_cast<uint16_t>(base));
       },
       serving::BlobError::kRootIndexRange},
      {"edges not fewer than nodes", serving::kSecMeta,
       [](uint8_t* meta, const serving::BlobLayout& l) {
         StoreLE64(meta + 40, l.num_nodes);
       },
       serving::BlobError::kEntryCount},
      {"v3 blob", serving::kSecMeta,
       [](uint8_t*, const serving::BlobLayout&) {},
       serving::BlobError::kVersionMismatch},
  };
  for (const auto& c : cases) {
    std::vector<uint8_t> blob = golden;
    c.patch(at(&blob, c.section), layout);
    if (c.want == serving::BlobError::kVersionMismatch) {
      StoreLE32(blob.data() + 8, 3);  // the retired format
    }
    ResealSection(&blob, c.section);
    EXPECT_EQ(BindError(blob), c.want) << c.name;
    SlimPredictorHandle slim(blob);
    EXPECT_EQ(slim.status(), SQP_STATUS_INVALID_ARGUMENT) << c.name;
    EXPECT_FALSE(EngineAccepts(blob, "v2_structure")) << c.name;
    auto copy = std::make_shared<std::vector<uint8_t>>(blob);
    const auto bound = CompactSnapshot::FromBlob(
        std::shared_ptr<const uint8_t>(copy, copy->data()), copy->size(),
        /*mapped=*/false);
    ASSERT_FALSE(bound.ok()) << c.name;
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << c.name;
    if (c.want != serving::BlobError::kVersionMismatch) {
      EXPECT_NE(bound.status().message().find(
                    serving::BlobErrorMessage(c.want)),
                std::string::npos)
          << c.name << ": " << bound.status().ToString();
    }
  }
}

// ------------------------------------------------------------ C hygiene

TEST(SlimApiTest, ArgumentPolicing) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  sqp_slim_predictor* p = nullptr;
  EXPECT_EQ(sqp_slim_create_from_buffer(nullptr, blob.size(), &p),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_create_from_buffer(blob.data(), 0, &p),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_create_from_buffer(blob.data(), blob.size(), nullptr),
            SQP_STATUS_INVALID_ARGUMENT);

  SlimPredictorHandle slim(blob);
  ASSERT_EQ(slim.status(), SQP_STATUS_OK);
  uint32_t queries[4];
  double scores[4];
  size_t count = 0;
  const uint32_t context[] = {1, 2};
  EXPECT_EQ(sqp_slim_recommend(nullptr, context, 2, 4, queries, scores,
                               &count, nullptr),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_recommend(slim.get(), nullptr, 2, 4, queries, scores,
                               &count, nullptr),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_recommend(slim.get(), context, 2, 4, nullptr, scores,
                               &count, nullptr),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_recommend(slim.get(), context, 2, 4, queries, nullptr,
                               &count, nullptr),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_recommend(slim.get(), context, 2, 4, queries, scores,
                               nullptr, nullptr),
            SQP_STATUS_INVALID_ARGUMENT);
  // Empty context: well-formed but never covered.
  EXPECT_EQ(sqp_slim_recommend(slim.get(), nullptr, 0, 4, queries, scores,
                               &count, nullptr),
            SQP_STATUS_NOT_FOUND);
  EXPECT_EQ(count, 0u);

  sqp_slim_stats_t stats;
  EXPECT_EQ(sqp_slim_stats(nullptr, &stats), SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(sqp_slim_stats(slim.get(), nullptr),
            SQP_STATUS_INVALID_ARGUMENT);

  sqp_slim_destroy(nullptr);  // must be a no-op
}

TEST(SlimApiTest, TopNZeroIsCoveredWithEmptyList) {
  const std::vector<uint8_t> blob = ReadFileBytes(GoldenPath());
  SlimPredictorHandle slim(blob);
  ASSERT_EQ(slim.status(), SQP_STATUS_OK);

  // Find one covered context via the sweep generator.
  for (const std::vector<QueryId>& context : GoldenContexts(100)) {
    size_t count = 7;
    size_t matched = 0;
    const sqp_status_t status = sqp_slim_recommend(
        slim.get(), context.data(), context.size(), 0, nullptr, nullptr,
        &count, &matched);
    if (status == SQP_STATUS_OK) {
      EXPECT_EQ(count, 0u);
      EXPECT_GT(matched, 0u);
      return;
    }
    EXPECT_EQ(status, SQP_STATUS_NOT_FOUND);
  }
  FAIL() << "no covered context in the sweep";
}

TEST(SlimApiTest, StatusNamesArePinned) {
  EXPECT_STREQ(sqp_status_name(SQP_STATUS_OK), "OK");
  EXPECT_STREQ(sqp_status_name(SQP_STATUS_INVALID_ARGUMENT),
               "InvalidArgument");
  EXPECT_STREQ(sqp_status_name(SQP_STATUS_NOT_FOUND), "NotFound");
  EXPECT_STREQ(sqp_status_name(static_cast<sqp_status_t>(255)), "Unknown");
}

}  // namespace
}  // namespace sqp
