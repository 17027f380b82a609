// Persistence suite for the compact snapshot blob (core/snapshot_io): a
// blob restored by copy (Load) or zero-copy (Map) must serve bit-identical
// recommendations to the in-memory CompactSnapshot it was written from,
// property-tested over seeded corpora; corrupt and truncated input must be
// rejected with a Status error — never UB (run under the SQP_ASAN build in
// CI); and the committed golden blob pins the on-disk format as a
// compatibility contract.

#include "core/snapshot_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blob_test_util.h"
#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "sort_merge_reference.h"
#include "sqp/slim.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

// ------------------------------------------------------------ fixtures

/// Deterministic pseudo-random corpus: sessions of length 2..6 over a
/// bounded id space, frequencies 1..8. Pure integer arithmetic — the same
/// seed yields the same corpus on any platform, which the golden-blob
/// contract below depends on.
std::vector<AggregatedSession> SeededCorpus(uint64_t seed,
                                            size_t num_sessions,
                                            QueryId vocabulary,
                                            QueryId id_offset = 0) {
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
      // A skewed draw so popular continuations emerge (min of two draws).
      const QueryId a = static_cast<QueryId>(next() % vocabulary);
      const QueryId b = static_cast<QueryId>(next() % vocabulary);
      session.queries.push_back(id_offset + std::min(a, b));
    }
    session.frequency = 1 + next() % 8;
    sessions.push_back(std::move(session));
  }
  return sessions;
}

std::shared_ptr<const ModelSnapshot> BuildFull(
    const std::vector<AggregatedSession>& sessions, uint64_t version,
    size_t vocabulary_bound, size_t max_depth = 4) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = vocabulary_bound;
  MvmmOptions options;
  options.default_max_depth = max_depth;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

/// Session prefixes used as online contexts (covered and uncovered mixes).
std::vector<std::vector<QueryId>> PrefixContexts(
    const std::vector<AggregatedSession>& sessions, size_t limit) {
  std::vector<std::vector<QueryId>> contexts;
  for (const AggregatedSession& session : sessions) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      contexts.emplace_back(session.queries.begin(),
                            session.queries.begin() +
                                static_cast<ptrdiff_t>(len));
      if (contexts.size() >= limit) return contexts;
    }
  }
  return contexts;
}

/// Scratch file path under the system temp dir (process-unique, so
/// concurrent ctest runs from different build trees cannot collide);
/// removed by the guard.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sqp_snapshot_io_" + std::to_string(::getpid()) + "_" +
                name))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// `expected` and `actual` are each a ModelSnapshot or a CompactSnapshot.
template <typename Expected, typename Actual>
void ExpectBitIdentical(const Expected& expected, const Actual& actual,
                        const std::vector<std::vector<QueryId>>& contexts,
                        size_t top_n) {
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation want = expected.Recommend(context, top_n, &scratch);
    const Recommendation got = actual.Recommend(context, top_n, &scratch);
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.matched_length, got.matched_length);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query) << "rank " << i;
      EXPECT_DOUBLE_EQ(want.queries[i].score, got.queries[i].score)
          << "rank " << i;
    }
    EXPECT_EQ(expected.Covers(context), actual.Covers(context));
  }
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  std::ifstream in(path, std::ios::binary);
  SQP_CHECK(in.read(reinterpret_cast<char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size())).good());
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  SQP_CHECK(out.good());
}

// ---------------------------------------------------- round-trip suite

TEST(SnapshotIoTest, SaveLoadMapServeBitIdenticallyOverSeededCorpora) {
  // The acceptance property: for every seeded corpus, a replica booted
  // from the blob (either restore path) serves bit-identical top-10 lists
  // to the in-memory compact snapshot the blob was written from.
  for (const uint64_t seed : {11ull, 23ull, 47ull}) {
    const std::vector<AggregatedSession> corpus =
        SeededCorpus(seed, 600, /*vocabulary=*/120);
    const auto full = BuildFull(corpus, /*version=*/seed, 1 << 10);
    const auto compact =
        CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});

    TempFile file("roundtrip_" + std::to_string(seed) + ".blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"))
        << "atomic save must not leave its tmp file behind";

    const auto loaded = SnapshotIo::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    EXPECT_EQ((*loaded)->version(), compact->version());
    EXPECT_EQ((*mapped)->version(), compact->version());
    EXPECT_EQ((*loaded)->num_nodes(), compact->num_nodes());
    EXPECT_EQ((*mapped)->num_nodes(), compact->num_nodes());
    EXPECT_EQ((*loaded)->num_entries(), compact->num_entries());
    EXPECT_EQ((*mapped)->num_entries(), compact->num_entries());
    EXPECT_EQ((*loaded)->sigmas(), compact->sigmas());
    EXPECT_EQ((*mapped)->sigmas(), compact->sigmas());
    EXPECT_EQ((*mapped)->blob_bytes().size(),
              std::filesystem::file_size(file.path()));

    const std::vector<std::vector<QueryId>> contexts =
        PrefixContexts(corpus, 400);
    ExpectBitIdentical(*compact, **loaded, contexts, 10);
    ExpectBitIdentical(*compact, **mapped, contexts, 10);
  }
}

TEST(SnapshotIoTest, MatchedDepthIsTheWalksDescentOnOwnedAndMappedStorage) {
  // MatchedDepth is the descent half of Recommend (benches subtract it to
  // time score+merge), so it must report exactly the walk's matched length
  // on covered contexts and 0 where Covers says no — for owned and mapped
  // blobs alike.
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(/*seed=*/31, 600, /*vocabulary=*/120);
  const auto full = BuildFull(corpus, /*version=*/1, 1 << 10);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
  TempFile file("matched_depth.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  std::vector<std::vector<QueryId>> contexts = PrefixContexts(corpus, 400);
  contexts.push_back({});
  contexts.push_back({500});                       // never seen
  contexts.push_back({500, 501, 502});             // never seen
  contexts.push_back({corpus[0].queries[0], 500});  // unseen last query
  const std::vector<const CompactSnapshot*> variants = {compact.get(),
                                                           mapped->get()};
  for (const CompactSnapshot* snapshot : variants) {
    SnapshotScratch scratch;
    size_t covered = 0;
    size_t uncovered = 0;
    for (const std::vector<QueryId>& context : contexts) {
      const size_t depth = snapshot->MatchedDepth(context);
      if (snapshot->Covers(context)) {
        EXPECT_EQ(depth,
                  snapshot->Recommend(context, 5, &scratch).matched_length);
        EXPECT_GE(depth, 1u);
        ++covered;
      } else {
        EXPECT_EQ(depth, 0u);
        ++uncovered;
      }
    }
    EXPECT_GT(covered, 0u);
    EXPECT_GE(uncovered, 4u);
  }

  // The descent runs in this thread's serving scratch (no per-call
  // buffer): a fresh thread's path buffer is grown by the first call, on
  // the longest context, and reused, not reallocated, by later ones.
  const std::vector<QueryId>& longest = *std::max_element(
      contexts.begin(), contexts.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::thread([&] {
    const std::vector<int32_t>& path = internal::ThreadScratch().path;
    EXPECT_TRUE(path.empty());
    compact->MatchedDepth(longest);
    ASSERT_FALSE(path.empty());
    const int32_t* buffer = path.data();
    for (const std::vector<QueryId>& context : contexts) {
      (*mapped)->MatchedDepth(context);
    }
    EXPECT_EQ(path.data(), buffer);
  }).join();
}

TEST(SnapshotIoTest, WideIdPoolsRoundTrip) {
  // Query ids beyond 16 bits force the wide pools — the branch with
  // 4-byte ids throughout, including the root index.
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(5, 200, /*vocabulary=*/60, /*id_offset=*/70000);
  const auto full = BuildFull(corpus, 3, 1 << 18);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});

  TempFile file("wide.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const auto loaded = SnapshotIo::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<std::vector<QueryId>> contexts =
      PrefixContexts(corpus, 300);
  ExpectBitIdentical(*compact, **loaded, contexts, 5);
  ExpectBitIdentical(*compact, **mapped, contexts, 5);

  // The mapped wide blob's dense walk is the reference sort-merge's, bit
  // for bit.
  test::SortMergeReference reference(*mapped);
  SnapshotScratch scratch;
  size_t covered = 0;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation want = reference.Recommend(context, 5);
    const Recommendation got = (*mapped)->Recommend(context, 5, &scratch);
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.matched_length, got.matched_length);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query);
      EXPECT_EQ(std::bit_cast<uint64_t>(want.queries[i].score),
                std::bit_cast<uint64_t>(got.queries[i].score));
    }
    covered += got.covered ? 1 : 0;
  }
  EXPECT_GT(covered, 0u);
}

TEST(SnapshotIoTest, MinimalModelsRoundTrip) {
  // Edge cases of the mmap loader: a root-only tree (sessions with no
  // transitions => no states, nothing to serve) and a single-state tree.
  {
    const std::vector<AggregatedSession> lonely = {{{QueryId{3}}, 5},
                                                   {{QueryId{7}}, 2}};
    const auto full = BuildFull(lonely, 1, 16);
    const auto compact = CompactSnapshot::FromSnapshot(*full);
    ASSERT_EQ(compact->num_nodes(), 1u);  // just the root
    ASSERT_EQ(compact->num_entries(), 0u);

    TempFile file("rootonly.blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->num_nodes(), 1u);
    SnapshotScratch scratch;
    const std::vector<QueryId> context = {QueryId{3}};
    EXPECT_FALSE((*mapped)->Recommend(context, 5, &scratch).covered);
    EXPECT_FALSE((*mapped)->Covers(context));
    const auto loaded = SnapshotIo::Load(file.path());
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE((*loaded)->Covers(context));
  }
  {
    const std::vector<AggregatedSession> pair = {{{QueryId{1}, QueryId{2}}, 4}};
    const auto full = BuildFull(pair, 1, 16);
    const auto compact = CompactSnapshot::FromSnapshot(*full);
    TempFile file("single.blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const std::vector<std::vector<QueryId>> contexts = {{QueryId{1}},
                                                        {QueryId{2}}};
    ExpectBitIdentical(*compact, **mapped, contexts, 5);
  }
}

TEST(SnapshotIoTest, BlobCarriesItsOwnCorpusVersion) {
  // A blob written at corpus generation 42 must come back as generation 42
  // wherever it is loaded — the version is provenance, not interpreted.
  const std::vector<AggregatedSession> corpus = SeededCorpus(9, 200, 80);
  const auto full = BuildFull(corpus, /*version=*/42, 1 << 10);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("version.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());

  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ((*mapped)->version(), 42u);

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.current_version(), 42u);
}

TEST(SnapshotIoTest, HugepageOptionsServeIdenticallyWhateverTheBacking) {
  // Map always advises transparent huge pages; the advice only changes
  // how the mapping's memory is backed, never the served bytes. Whether
  // the kernel accepts it (kAdvised) or refuses it (kNone), the mapped
  // replica must answer bit-identically.
  const std::vector<AggregatedSession> corpus = SeededCorpus(29, 300, 90);
  const auto full = BuildFull(corpus, 1, 1 << 10);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("hugepage.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());

  const auto advised = SnapshotIo::Map(file.path());
  ASSERT_TRUE(advised.ok());
  ExpectBitIdentical(*compact, **advised, PrefixContexts(corpus, 200), 10);
}

TEST(SnapshotIoTest, NarrowModelsAnswerContextIdsPastSixteenBitsAsFullModel) {
  // A narrow model stores 16-bit ids, so an older context query >= 65536
  // is in none of its pools. Owned, mapped and slim must answer
  // [..., a + 65536, b] exactly as the full model — never as [..., a, b],
  // which the low 16 bits of a + 65536 would spell. top_k = 0 keeps every
  // entry, so compact == full holds to the bit.
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(/*seed=*/77, 500, /*vocabulary=*/100);
  const auto full = BuildFull(corpus, /*version=*/1, 1 << 10);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});
  TempFile file("narrow_alias.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::vector<uint8_t> blob = ReadAll(file.path());
  sqp_slim_predictor* slim_handle = nullptr;
  ASSERT_EQ(sqp_slim_create_from_buffer(blob.data(), blob.size(),
                                        &slim_handle),
            SQP_STATUS_OK);
  const std::unique_ptr<sqp_slim_predictor, void (*)(sqp_slim_predictor*)>
      slim(slim_handle, sqp_slim_destroy);

  SnapshotScratch scratch;
  size_t would_alias = 0;
  for (std::vector<QueryId> context : PrefixContexts(corpus, 500)) {
    if (context.size() < 2) continue;
    if (full->Recommend(context, 10, &scratch).matched_length >= 2) {
      ++would_alias;
    }
    context[context.size() - 2] += 65536;
    ExpectBitIdentical(*full, *compact, {context}, 10);
    ExpectBitIdentical(*full, **mapped, {context}, 10);

    const Recommendation want = full->Recommend(context, 10, &scratch);
    uint32_t queries[10];
    double scores[10];
    size_t count = 0;
    size_t matched = 0;
    const sqp_status_t status =
        sqp_slim_recommend(slim.get(), context.data(), context.size(), 10,
                           queries, scores, &count, &matched);
    ASSERT_EQ(status, want.covered ? SQP_STATUS_OK : SQP_STATUS_NOT_FOUND);
    ASSERT_EQ(count, want.queries.size());
    EXPECT_EQ(matched, want.matched_length);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(queries[i], want.queries[i].query);
      EXPECT_EQ(scores[i], want.queries[i].score);
    }
  }
  // The sweep must include contexts whose aliased spelling matches deeper.
  EXPECT_GT(would_alias, 10u);
}

// ---------------------------------------------------- corruption suite

TEST(SnapshotIoTest, CorruptBytesAreRejectedEverywhere) {
  // Flip single bytes across the header, the section table and every
  // section payload: both restore paths must return an error (padding
  // bytes between sections carry no data and are exempt, so the sweep
  // walks the checksummed regions only).
  const std::vector<AggregatedSession> corpus = SeededCorpus(3, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("corrupt.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<uint8_t> blob = ReadAll(file.path());

  // Covered byte ranges: header, table, and each section payload (decoded
  // from the table we just wrote).
  std::vector<std::pair<size_t, size_t>> regions = {{0, 64}};
  const uint32_t section_count = LoadLE32(blob.data() + 12);
  regions.emplace_back(64, 64 + section_count * 24);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* row = blob.data() + 64 + i * 24;
    const uint64_t offset = LoadLE64(row + 8);
    const uint64_t size = LoadLE64(row + 16);
    if (size > 0) {
      regions.emplace_back(static_cast<size_t>(offset),
                           static_cast<size_t>(offset + size));
    }
  }

  size_t flipped = 0;
  for (const auto& [begin, end] : regions) {
    for (size_t at = begin; at < end; at += 97) {  // stride keeps it fast
      std::vector<uint8_t> mutated = blob;
      mutated[at] ^= 0x5A;
      WriteAll(file.path(), mutated);
      EXPECT_FALSE(SnapshotIo::Load(file.path()).ok())
          << "byte " << at << " flip not detected by Load";
      EXPECT_FALSE(SnapshotIo::Map(file.path()).ok())
          << "byte " << at << " flip not detected by Map";
      ++flipped;
    }
  }
  EXPECT_GT(flipped, 20u);
}

TEST(SnapshotIoTest, TruncatedBlobsAreRejected) {
  const std::vector<AggregatedSession> corpus = SeededCorpus(4, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("truncated.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<uint8_t> blob = ReadAll(file.path());

  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{8}, size_t{63}, size_t{64},
        size_t{100}, blob.size() / 2, blob.size() - 1}) {
    std::vector<uint8_t> shorter(blob.begin(),
                                 blob.begin() + static_cast<ptrdiff_t>(keep));
    WriteAll(file.path(), shorter);
    EXPECT_FALSE(SnapshotIo::Load(file.path()).ok()) << "kept " << keep;
    EXPECT_FALSE(SnapshotIo::Map(file.path()).ok()) << "kept " << keep;
  }

  // Trailing garbage is corruption too (the header pins the exact size).
  std::vector<uint8_t> longer = blob;
  longer.push_back(0xFF);
  WriteAll(file.path(), longer);
  EXPECT_FALSE(SnapshotIo::Load(file.path()).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path()).ok());

  EXPECT_FALSE(SnapshotIo::Load(file.path() + ".does_not_exist").ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path() + ".does_not_exist").ok());
}

TEST(SnapshotIoTest, StructuralValidationCatchesBadIdsEvenWithoutChecksums) {
  // A blob whose root index points outside the node table, re-sealed so
  // every checksum passes: the structural pass alone must refuse it — the
  // invariant the serving walk's memory-safety rests on.
  const std::vector<AggregatedSession> corpus = SeededCorpus(6, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("badid.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  std::vector<uint8_t> blob = ReadAll(file.path());

  // Point the first root-index slot at a node id far past the table.
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  ASSERT_TRUE(layout.narrow_ids);
  ASSERT_GT(layout.root_index_size, 0u);
  StoreLE16(blob.data() + layout.sections[serving::kSecRootIndex].offset,
            0xFFFF);
  ResealSection(&blob, serving::kSecRootIndex);
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  WriteAll(file.path(), blob);
  EXPECT_FALSE(SnapshotIo::Load(file.path()).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path()).ok());
}

TEST(SnapshotIoTest, StructuralValidationCatchesSpikedCsrOffset) {
  // A CSR offset array whose *intermediate* value spikes far past the
  // edge pool while start/terminal values stay valid: the validator must
  // reject it up front without ever indexing the pool at the spiked
  // offset (run under ASan in CI — an out-of-bounds probe would trip).
  const std::vector<AggregatedSession> corpus = SeededCorpus(7, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  ASSERT_GT(compact->num_nodes(), 2u);
  TempFile file("spiked.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  std::vector<uint8_t> blob = ReadAll(file.path());

  // Spike the child_begin offset of node 1 and re-seal, so only the
  // structural pass stands between the spike and the walk.
  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  StoreLE32(blob.data() + layout.sections[serving::kSecChildBegin].offset + 4,
            0x00F00000u);
  ResealSection(&blob, serving::kSecChildBegin);
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(), &layout),
            serving::BlobError::kNone);
  WriteAll(file.path(), blob);
  EXPECT_FALSE(SnapshotIo::Load(file.path()).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path()).ok());
}

// ------------------------------------------------- serving-stack suite

TEST(SnapshotIoTest, EngineColdBootsFromBlobAndKeepsServingOnBadReload) {
  const std::vector<AggregatedSession> corpus = SeededCorpus(8, 400, 100);
  const auto full = BuildFull(corpus, 5, 1 << 10);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
  TempFile file("engine.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.current_version(), 5u);

  // The cold-booted replica answers exactly like the in-memory compact.
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : PrefixContexts(corpus, 120)) {
    const Recommendation want = compact->Recommend(context, 10, &scratch);
    const Recommendation got = engine.Recommend(context, 10).recommendation;
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query);
      EXPECT_DOUBLE_EQ(want.queries[i].score, got.queries[i].score);
    }
  }

  // A failed reload (corrupt file) must leave the current snapshot live.
  std::vector<uint8_t> blob = ReadAll(file.path());
  blob[blob.size() / 2] ^= 0xFF;
  WriteAll(file.path(), blob);
  const std::shared_ptr<const CompactSnapshot> before =
      engine.CurrentSnapshot();
  EXPECT_FALSE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.CurrentSnapshot().get(), before.get());
  EXPECT_EQ(engine.current_version(), 5u);
}

TEST(SnapshotIoTest, RetrainerPersistsEveryPublishedRebuild) {
  const std::vector<AggregatedSession> base = SeededCorpus(20, 400, 100);
  const std::vector<AggregatedSession> fresh = SeededCorpus(21, 150, 100);

  TempFile file("retrainer.blob");
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options;
  options.model.default_max_depth = 4;
  options.vocabulary_size = 1 << 10;
  options.persist_path = file.path();
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(base).ok());

  // Generation 1 is on disk, loadable, and identical to what was
  // published.
  {
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->version(), 1u);
    const std::shared_ptr<const CompactSnapshot> published =
        engine.CurrentSnapshot();
    ASSERT_NE(published, nullptr);
    ExpectBitIdentical(*published, **mapped, PrefixContexts(base, 150), 10);
  }

  // A retrain cycle rewrites the blob with generation 2.
  retrainer.AppendSessions(fresh);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  {
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ((*mapped)->version(), 2u);
    // A brand-new replica cold-booted from the persisted blob serves the
    // retrained generation exactly.
    RecommenderEngine replica(EngineOptions{.num_threads = 1});
    ASSERT_TRUE(replica.LoadAndPublish(file.path()).ok());
    EXPECT_EQ(replica.current_version(), 2u);
    for (const std::vector<QueryId>& context : PrefixContexts(fresh, 60)) {
      const Recommendation a = engine.Recommend(context, 10).recommendation;
      const Recommendation b = replica.Recommend(context, 10).recommendation;
      ASSERT_EQ(a.covered, b.covered);
      ASSERT_EQ(a.queries.size(), b.queries.size());
      for (size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].query, b.queries[i].query);
      }
    }
  }
}

// ------------------------------------------------ format compatibility

/// The committed golden blob: regenerate with
///   SQP_REGEN_GOLDEN=1 ./sqp_core_tests --gtest_filter='*Golden*'
/// and commit the file together with a serving::kBlobFormatVersion bump
/// whenever the format intentionally changes. CI runs this test in a
/// dedicated job: if the current reader cannot reproduce the freshly
/// trained model's top-10 lists from the golden bytes, the format drifted
/// silently and the build fails.
constexpr char kGoldenRelPath[] = "/golden_snapshot_v4.blob";
constexpr uint64_t kGoldenSeed = 77;
constexpr size_t kGoldenSessions = 500;
constexpr QueryId kGoldenVocabulary = 100;
constexpr uint64_t kGoldenVersion = 1;

std::shared_ptr<const CompactSnapshot> BuildGoldenCompact() {
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary);
  const auto full = BuildFull(corpus, kGoldenVersion, 1 << 10);
  return CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
}

TEST(SnapshotGoldenTest, CommittedBlobMatchesFreshlyTrainedModel) {
  const std::string golden_path = std::string(SQP_TEST_DATA_DIR) +
                                  kGoldenRelPath;
  const auto compact = BuildGoldenCompact();
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SnapshotIo::Save(*compact, golden_path).ok());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << golden_path << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  const auto loaded = SnapshotIo::Load(golden_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto mapped = SnapshotIo::Map(golden_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_EQ((*loaded)->version(), kGoldenVersion);
  EXPECT_EQ((*loaded)->num_nodes(), compact->num_nodes());
  EXPECT_EQ((*loaded)->num_entries(), compact->num_entries());
  EXPECT_EQ((*loaded)->sigmas(), compact->sigmas());

  // Identical top-10 lists between the golden bytes and a model trained
  // from scratch on the same seeded corpus, through both restore paths.
  const std::vector<std::vector<QueryId>> contexts = PrefixContexts(
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary), 500);
  ExpectBitIdentical(*compact, **loaded, contexts, 10);
  ExpectBitIdentical(*compact, **mapped, contexts, 10);
}

TEST(SnapshotGoldenTest, SaveReproducesCommittedBytes) {
  // The writer is pinned byte for byte: packing the golden corpus and
  // saving it must reproduce the committed blob exactly — same section
  // order, alignment padding and checksums.
  const auto compact = BuildGoldenCompact();
  EXPECT_EQ(compact->top_k(), 10u);  // META carries the packing top_k
  TempFile file("golden_resave.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<uint8_t> saved = ReadAll(file.path());
  const std::vector<uint8_t> committed =
      ReadAll(std::string(SQP_TEST_DATA_DIR) + kGoldenRelPath);
  EXPECT_EQ(saved.size(), committed.size());
  EXPECT_TRUE(saved == committed) << "saved blob differs from the golden";
}

TEST(SnapshotGoldenTest, SigmaFitConvergesOnTheGoldenCorpus) {
  // The fit stops by its own convergence test, before the safety cap, and
  // every width it hands the blob lies in the sigma box.
  const auto full = BuildFull(
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary),
      kGoldenVersion, 1 << 10);
  const MvmmFitReport& report = full->fit_report();
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 0u);
  EXPECT_LT(report.iterations, internal::kMaxFitIterations);
  EXPECT_GE(report.final_objective, report.initial_objective);
  for (const double sigma : full->sigmas()) {
    EXPECT_TRUE(serving::ValidSigma(sigma));
    EXPECT_GE(sigma, internal::kMinSigma);
    EXPECT_LE(sigma, internal::kMaxSigma);
  }
}

/// internal::NodeTopK at every node equals the reference walk at the
/// node's own context, in ids, order and score bits, for every K. A scan
/// limit of 4 sends nodes both ways: through the query -> index map and
/// through the scan.
void ExpectNodeTopKIsTheReferenceTopK(const ModelSnapshot& full) {
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  SnapshotScratch scratch;
  size_t mapped = 0;
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{16},
                         size_t{64}}) {
    internal::NodeTopK exact(full, /*scan_limit=*/4);
    for (size_t id = 1; id < nodes.size(); ++id) {
      mapped += k == 1 && nodes[id].nexts.size() > 4 ? 1 : 0;
      const Recommendation want =
          full.Recommend(nodes[id].context, k, &scratch);
      const std::vector<ScoredQuery>& got = exact.TopK(id, k);
      ASSERT_EQ(want.queries.size(), got.size()) << "node " << id << " k " << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(want.queries[i].query, got[i].query)
            << "node " << id << " k " << k << " rank " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(want.queries[i].score),
                  std::bit_cast<uint64_t>(got[i].score))
            << "node " << id << " k " << k << " rank " << i;
      }
    }
  }
  EXPECT_GT(mapped, 0u);
}

TEST(SnapshotGoldenTest, NodeTopKIsTheReferenceTopKAtEveryNode) {
  std::vector<AggregatedSession> corpus =
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary);
  const auto golden = BuildFull(corpus, kGoldenVersion, 1 << 10);
  ExpectNodeTopKIsTheReferenceTopK(*golden);

  // Grow the corpus as the feedback loop does: one session per served
  // list, its context plus the query clicked at a rotating position.
  SnapshotScratch scratch;
  const std::vector<std::vector<QueryId>> contexts =
      PrefixContexts(corpus, 600);
  for (size_t i = 0; i < contexts.size(); ++i) {
    const Recommendation served = golden->Recommend(contexts[i], 5, &scratch);
    if (served.queries.empty()) continue;
    AggregatedSession session;
    session.queries = contexts[i];
    session.queries.push_back(
        served.queries[i % served.queries.size()].query);
    session.frequency = 1;
    corpus.push_back(std::move(session));
  }
  ExpectNodeTopKIsTheReferenceTopK(
      *BuildFull(corpus, kGoldenVersion + 1, 1 << 10));
}

TEST(SnapshotGoldenTest, HostileTopNAnswersLikeNumEntriesInBoundedScratch) {
  // A wire request may carry top_n up to 2^32 - 1. No list holds more
  // distinct queries than the blob's L local ids (at most num_entries), so
  // an oversized top_n must give exactly the num_entries answer without
  // sizing the ranked-list scratch past it.
  const auto golden =
      SnapshotIo::Map(std::string(SQP_TEST_DATA_DIR) + kGoldenRelPath);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const CompactSnapshot& model = **golden;
  const size_t bound = model.num_entries();
  const std::vector<std::vector<QueryId>> contexts = PrefixContexts(
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary), 200);
  SnapshotScratch bounded, hostile;
  size_t covered = 0;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation want = model.Recommend(context, bound, &bounded);
    const Recommendation got =
        model.Recommend(context, size_t{1} << 24, &hostile);
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.matched_length, got.matched_length);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query);
      EXPECT_EQ(want.queries[i].score, got.queries[i].score);
    }
    covered += got.covered ? 1 : 0;
  }
  EXPECT_GT(covered, 0u);
  EXPECT_LE(hostile.topn_query.capacity(), bound);
  EXPECT_LE(hostile.topn_score.capacity(), bound);
}

}  // namespace
}  // namespace sqp
