// The closed-loop feedback log (serve/feedback): bounded, crash-safe,
// append-only segments. The load-bearing properties: every intact record
// survives a roundtrip byte-exactly; a torn or corrupt tail is detected
// and dropped, never decoded as garbage; rotation keeps the disk
// footprint bounded; a reopened log continues record ids where the
// previous writer stopped; a writer killed without running destructors
// loses nothing it appended; a live log reads back every record without
// a seal; and the committed golden segment pins the on-disk byte layout
// (docs/FEEDBACK.md) against format drift.

#include "serve/feedback.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sqp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("sqp_feedback_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

FeedbackRecord MakeImpression(uint64_t record_id,
                              std::vector<QueryId> context,
                              std::vector<ServedItem> served) {
  FeedbackRecord record;
  record.record_id = record_id;
  record.snapshot_version = 7;
  record.policy = ExplorePolicy::kEpsilonGreedy;
  record.policy_param = 0.25;
  record.context = std::move(context);
  record.served = std::move(served);
  return record;
}

std::vector<ServedItem> ThreeItems() {
  return {{10, 0.5, 0.9}, {11, 0.3, 0.05}, {12, 0.2, 0.05}};
}

std::vector<fs::path> SegmentFiles(const std::string& dir) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FeedbackLogTest, RoundtripJoinsClicksFirstClickWins) {
  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());

  const uint64_t id1 = (*log)->NextRecordId();
  const uint64_t id2 = (*log)->NextRecordId();
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, 2u);
  const FeedbackRecord first = MakeImpression(id1, {1, 2, 3}, ThreeItems());
  const FeedbackRecord second = MakeImpression(id2, {4}, ThreeItems());
  ASSERT_TRUE((*log)->AppendImpression(first).ok());
  ASSERT_TRUE((*log)->AppendImpression(second).ok());
  ASSERT_TRUE((*log)->RecordClick(id1, 2).ok());
  // Duplicate click (a retry): the first click wins, this one is inert.
  ASSERT_TRUE((*log)->RecordClick(id1, 0).ok());
  // Click referencing an impression that was never logged.
  ASSERT_TRUE((*log)->RecordClick(999, 0).ok());

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(report.impressions, 2u);
  EXPECT_EQ(report.clicks, 3u);
  EXPECT_EQ(report.unmatched_clicks, 1u);
  EXPECT_EQ(report.torn_records, 0u);

  FeedbackRecord want_first = first;
  want_first.clicked_position = 2;
  EXPECT_EQ((*records)[0], want_first);
  FeedbackRecord want_second = second;
  want_second.clicked_position = kFeedbackNoClick;
  EXPECT_EQ((*records)[1], want_second);

  const FeedbackLogStats stats = (*log)->stats();
  EXPECT_EQ(stats.impressions_appended, 2u);
  EXPECT_EQ(stats.clicks_appended, 3u);
  EXPECT_EQ(stats.dropped_appends, 0u);
}

TEST(FeedbackLogTest, MissingDirectoryReadsEmpty) {
  TempDir dir;  // never created on disk
  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str() + "/nonexistent", &report);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(report.impressions, 0u);
}

TEST(FeedbackLogTest, TornTailIsDroppedNotDecoded) {
  TempDir dir;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)
                      ->AppendImpression(MakeImpression(
                          (*log)->NextRecordId(), {1, 2}, ThreeItems()))
                      .ok());
    }
    ASSERT_TRUE((*log)->Seal().ok());
  }
  const std::vector<fs::path> files = SegmentFiles(dir.str());
  fs::path sealed;
  for (const fs::path& f : files) {
    if (f.extension() == ".seg") sealed = f;
  }
  ASSERT_FALSE(sealed.empty());

  // Tear the last record: chop 5 bytes off the end (mid-CRC).
  const uintmax_t size = fs::file_size(sealed);
  fs::resize_file(sealed, size - 5);

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // the intact prefix survives
  EXPECT_EQ(report.torn_records, 1u);
}

TEST(FeedbackLogTest, CrcCorruptionEndsTheSegmentScan) {
  TempDir dir;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)
                      ->AppendImpression(MakeImpression(
                          (*log)->NextRecordId(), {1, 2}, ThreeItems()))
                      .ok());
    }
    ASSERT_TRUE((*log)->Seal().ok());
  }
  fs::path sealed;
  for (const fs::path& f : SegmentFiles(dir.str())) {
    if (f.extension() == ".seg") sealed = f;
  }
  ASSERT_FALSE(sealed.empty());

  // Flip one byte inside the second record's body. Records are equal-sized
  // here; the first body starts at header(8) + len(4).
  const uintmax_t size = fs::file_size(sealed);
  const uintmax_t record_bytes = (size - 8) / 3;
  {
    std::fstream f(sealed, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(8 + record_bytes + 10));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(8 + record_bytes + 10));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(static_cast<std::streamoff>(8 + record_bytes + 10));
    f.write(&byte, 1);
  }

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  // Only the record before the corruption survives: a CRC failure ends
  // that segment's scan (framing after it cannot be trusted).
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(report.torn_records, 1u);
}

TEST(FeedbackLogTest, RotationSealsSegmentsAndBoundsDiskFootprint) {
  TempDir dir;
  FeedbackLogOptions options;
  options.dir = dir.str();
  options.max_segment_bytes = 256;  // a few records per segment
  options.max_segments = 3;
  auto log = FeedbackLog::Open(options);
  ASSERT_TRUE(log.ok());

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*log)
                    ->AppendImpression(MakeImpression(
                        (*log)->NextRecordId(), {1, 2, 3}, ThreeItems()))
                    .ok());
  }
  const FeedbackLogStats stats = (*log)->stats();
  EXPECT_GT(stats.segments_sealed, 3u);
  EXPECT_GT(stats.segments_deleted, 0u);
  EXPECT_EQ(stats.segments_sealed - stats.segments_deleted, 3u);

  // On disk: at most max_segments sealed + 1 active.
  size_t sealed = 0, open = 0;
  for (const fs::path& f : SegmentFiles(dir.str())) {
    if (f.extension() == ".seg") ++sealed;
    if (f.extension() == ".open") ++open;
  }
  EXPECT_EQ(sealed, 3u);
  EXPECT_EQ(open, 1u);

  // The retained tail is still fully readable.
  const auto records = ReadFeedbackLog(dir.str());
  ASSERT_TRUE(records.ok());
  EXPECT_GT(records->size(), 0u);
  EXPECT_LT(records->size(), 64u);  // oldest segments rotated out
  // Newest records survive; read is sorted by record id.
  EXPECT_EQ(records->back().record_id, 64u);
}

TEST(FeedbackLogTest, ReopenRecoversOpenSegmentAndContinuesRecordIds) {
  TempDir dir;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*log)
                      ->AppendImpression(MakeImpression(
                          (*log)->NextRecordId(), {5, 6}, ThreeItems()))
                      .ok());
    }
    // Destroyed without Seal: the .open segment stays behind.
  }
  {
    std::vector<fs::path> files = SegmentFiles(dir.str());
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].extension(), ".open");
    // Simulate a crash mid-append: tear the tail of the leftover segment.
    fs::resize_file(files[0], fs::file_size(files[0]) - 3);
  }

  auto reopened = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(reopened.ok());
  // Record 4 was torn away with the tail; the valid prefix (ids 1-3) got
  // sealed, and ids continue after the largest *recovered* one.
  EXPECT_EQ((*reopened)->NextRecordId(), 4u);
  ASSERT_TRUE((*reopened)
                  ->AppendImpression(
                      MakeImpression(4, {7}, ThreeItems()))
                  .ok());

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);  // 3 recovered + 1 new
  EXPECT_EQ(report.torn_records, 0u);  // the torn tail was truncated away
  EXPECT_EQ((*records)[0].record_id, 1u);
  EXPECT_EQ((*records)[3].record_id, 4u);
}

TEST(FeedbackLogTest, CrashedWriterLosesNoAppendedRecord) {
  TempDir dir;
  constexpr uint64_t kImpressions = 25;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The child appends and dies without running any destructor, so
    // nothing is flushed, truncated or sealed after the last append.
    auto log = FeedbackLog::Open({.dir = dir.str()});
    if (!log.ok()) ::_exit(2);
    for (uint64_t i = 0; i < kImpressions; ++i) {
      const uint64_t id = (*log)->NextRecordId();
      if (!(*log)->AppendImpression(MakeImpression(id, {1, 2}, ThreeItems()))
               .ok()) {
        ::_exit(3);
      }
      if (id % 3 == 0 && !(*log)->RecordClick(id, id % 2).ok()) ::_exit(4);
    }
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  auto reopened = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->NextRecordId(), kImpressions + 1);

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), kImpressions);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(report.clicks, kImpressions / 3);
  EXPECT_EQ(report.unmatched_clicks, 0u);
  for (uint64_t i = 0; i < kImpressions; ++i) {
    const FeedbackRecord& record = (*records)[i];
    FeedbackRecord want = MakeImpression(i + 1, {1, 2}, ThreeItems());
    if (want.record_id % 3 == 0) {
      want.clicked_position = static_cast<uint32_t>(want.record_id % 2);
    }
    EXPECT_EQ(record, want);
  }
}

TEST(FeedbackLogTest, LiveLogReadsEveryAppendedRecordWithoutSeal) {
  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  for (uint64_t n = 1; n <= 5; ++n) {
    const uint64_t id = (*log)->NextRecordId();
    ASSERT_TRUE(
        (*log)->AppendImpression(MakeImpression(id, {4, 5}, ThreeItems()))
            .ok());
    ASSERT_TRUE((*log)->RecordClick(id, 1).ok());

    // Read while the writer is live, after every append: nothing is
    // sealed, flushed or closed in between.
    FeedbackReadReport report;
    const auto records = ReadFeedbackLog(dir.str(), &report);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), n);
    EXPECT_EQ(report.torn_records, 0u);
    EXPECT_EQ(report.clicks, n);
    EXPECT_EQ(records->back().record_id, id);
    EXPECT_EQ(records->back().clicked_position, 1u);
  }
  EXPECT_EQ((*log)->stats().segments_sealed, 0u);
}

/// A live writer preallocates its `.open` segment, and a read stops at the
/// zero tail, pulling the file in chunks. At every record count — records
/// straddling a chunk boundary included — a fresh cursor over the live
/// segment hands over exactly what a full read of the log gives.
TEST(FeedbackLogTest, CursorOverALiveOpenSegmentMatchesAFullRead) {
  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  // ~700-byte impressions: 300 of them span several 64 KiB chunks.
  std::vector<QueryId> context(150);
  for (size_t i = 0; i < context.size(); ++i) {
    context[i] = static_cast<QueryId>(i + 1);
  }
  for (uint64_t n = 1; n <= 300; ++n) {
    const uint64_t id = (*log)->NextRecordId();
    context[0] = static_cast<QueryId>(1000 + n);
    ASSERT_TRUE(
        (*log)->AppendImpression(MakeImpression(id, context, ThreeItems()))
            .ok());
    if (n % 4 != 0) {
      ASSERT_TRUE((*log)->RecordClick(id, static_cast<uint32_t>(n % 3)).ok());
    }

    FeedbackReadReport report;
    const auto records = ReadFeedbackLog(dir.str(), &report);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), n);
    EXPECT_EQ(report.torn_records, 0u);
    EXPECT_EQ(report.clicks, n - n / 4);

    FeedbackCursor cursor;
    std::vector<AggregatedSession> got;
    const auto consumed = cursor.Consume(
        dir.str(),
        [&](std::vector<AggregatedSession> sessions) { got = sessions; });
    ASSERT_TRUE(consumed.ok());
    const std::vector<AggregatedSession> want = SessionsFromFeedback(*records);
    EXPECT_EQ(*consumed, want.size());
    ASSERT_EQ(got.size(), want.size()) << n << " records";
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].queries, want[i].queries) << n << " records";
      EXPECT_EQ(got[i].frequency, want[i].frequency) << n << " records";
    }
  }
  // Everything went to the one live segment, which still has a zero tail.
  EXPECT_EQ((*log)->stats().segments_sealed, 0u);
  const std::vector<fs::path> files = SegmentFiles(dir.str());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].extension(), ".open");
  EXPECT_EQ(fs::file_size(files[0]), FeedbackLogOptions{}.max_segment_bytes);
  EXPECT_GT(fs::file_size(files[0]), (*log)->stats().active_segment_bytes);
}

TEST(FeedbackLogTest, OversizedRecordLandsInASegmentOfItsOwn) {
  TempDir dir;
  FeedbackLogOptions options;
  options.dir = dir.str();
  options.max_segment_bytes = 128;
  auto log = FeedbackLog::Open(options);
  ASSERT_TRUE(log.ok());

  // 100 context queries: a 35 + 400 + 60 byte body, far past the bound.
  std::vector<QueryId> long_context(100);
  for (size_t i = 0; i < long_context.size(); ++i) {
    long_context[i] = static_cast<QueryId>(i + 1);
  }
  const std::vector<FeedbackRecord> written = {
      MakeImpression(1, long_context, ThreeItems()),  // first in a segment
      MakeImpression(2, {3}, ThreeItems()),
      MakeImpression(3, long_context, ThreeItems()),  // after a small one
  };
  for (const FeedbackRecord& record : written) {
    ASSERT_TRUE((*log)->AppendImpression(record).ok());
  }
  ASSERT_TRUE((*log)->Seal().ok());
  EXPECT_EQ((*log)->stats().dropped_appends, 0u);

  std::vector<uintmax_t> sealed_sizes;
  for (const fs::path& f : SegmentFiles(dir.str())) {
    if (f.extension() == ".seg") sealed_sizes.push_back(fs::file_size(f));
  }
  // Header + [len][body][crc] per segment, one record each.
  const uintmax_t big = 8 + 8 + (35 + 4 * 100 + 20 * 3);
  const uintmax_t small = 8 + 8 + (35 + 4 * 1 + 20 * 3);
  EXPECT_EQ(sealed_sizes, (std::vector<uintmax_t>{big, small, big}));

  FeedbackReadReport report;
  const auto records = ReadFeedbackLog(dir.str(), &report);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, written);
  EXPECT_EQ(report.torn_records, 0u);
}

TEST(FeedbackLogTest, SealIsIdempotentAndEmptySegmentsAreNotSealed) {
  TempDir dir;
  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Seal().ok());  // nothing to seal
  ASSERT_TRUE((*log)->Seal().ok());
  EXPECT_EQ((*log)->stats().segments_sealed, 0u);

  ASSERT_TRUE((*log)
                  ->AppendImpression(MakeImpression(
                      (*log)->NextRecordId(), {1}, ThreeItems()))
                  .ok());
  ASSERT_TRUE((*log)->Seal().ok());
  ASSERT_TRUE((*log)->Seal().ok());  // second seal: empty active, no-op
  EXPECT_EQ((*log)->stats().segments_sealed, 1u);
}

TEST(FeedbackLogTest, SessionsFromFeedbackSkipsUnusableRecords) {
  std::vector<FeedbackRecord> records;
  // Clicked slot 1 -> session {1, 2, 11}.
  records.push_back(MakeImpression(1, {1, 2}, ThreeItems()));
  records.back().clicked_position = 1;
  // No click: contributes nothing.
  records.push_back(MakeImpression(2, {3}, ThreeItems()));
  // Out-of-range click position: contributes nothing.
  records.push_back(MakeImpression(3, {4}, ThreeItems()));
  records.back().clicked_position = 9;
  // Empty context: contributes nothing.
  records.push_back(MakeImpression(4, {}, ThreeItems()));
  records.back().clicked_position = 0;
  // Clicked slot 0 -> session {5, 10}.
  records.push_back(MakeImpression(5, {5}, ThreeItems()));
  records.back().clicked_position = 0;

  const std::vector<AggregatedSession> sessions =
      SessionsFromFeedback(records);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].queries, (std::vector<QueryId>{1, 2, 11}));
  EXPECT_EQ(sessions[0].frequency, 1u);
  EXPECT_EQ(sessions[1].queries, (std::vector<QueryId>{5, 10}));
}

/// FeedbackCursor reads each sealed segment once. Over many rounds it
/// must hand over exactly what a reference that re-reads the whole log
/// hands over (ReadFeedbackLog, then SessionsFromFeedback past the same
/// watermark), through: clicks landing in a later segment than their
/// impression, live reads of an `.open` segment that later grows and is
/// sealed, torn `.open` segments that Open re-seals, retention deleting
/// old segments, and the cursor moving to a second directory and back.
TEST(FeedbackLogTest, CursorReadsEachSealedSegmentOnceAndMatchesAFullReread) {
  TempDir dirs[2];
  const auto open_log = [&](size_t d) {
    FeedbackLogOptions options;
    options.dir = dirs[d].str();
    options.max_segment_bytes = 256;  // about two impressions per segment
    options.max_segments = 6;
    auto log = FeedbackLog::Open(options);
    SQP_CHECK(log.ok());
    return std::move(log.value());
  };
  const auto tear_open_segment = [&](size_t d) {
    for (const fs::path& f : SegmentFiles(dirs[d].str())) {
      if (f.extension() == ".open") {
        fs::resize_file(f, fs::file_size(f) - 3);
        return;
      }
    }
    FAIL() << "no .open segment to tear";
  };

  FeedbackCursor cursor;
  uint64_t reference_watermark = 0;
  size_t handed_over = 0;
  // One consume through the cursor and through the reference; returns
  // the number of sessions handed over.
  const auto consume = [&](size_t d) -> size_t {
    std::vector<AggregatedSession> got;
    const auto consumed = cursor.Consume(
        dirs[d].str(),
        [&](std::vector<AggregatedSession> sessions) { got = sessions; });
    EXPECT_TRUE(consumed.ok());
    const auto records = ReadFeedbackLog(dirs[d].str());
    EXPECT_TRUE(records.ok());
    std::vector<FeedbackRecord> fresh;
    uint64_t max_id = reference_watermark;
    for (const FeedbackRecord& record : *records) {
      if (record.record_id <= reference_watermark) continue;
      max_id = std::max(max_id, record.record_id);
      fresh.push_back(record);
    }
    reference_watermark = max_id;
    const std::vector<AggregatedSession> want = SessionsFromFeedback(fresh);
    EXPECT_EQ(*consumed, want.size());
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].queries, want[i].queries) << "session " << i;
      EXPECT_EQ(got[i].frequency, want[i].frequency) << "session " << i;
    }
    handed_over += want.size();
    return want.size();
  };

  std::unique_ptr<FeedbackLog> logs[2] = {open_log(0), open_log(1)};
  std::vector<uint64_t> unclicked[2];  // impressions to click next round
  std::mt19937 rng(20261018);
  uint64_t next_id = 1;  // one id sequence across both directories
  size_t late_clicks = 0;
  for (size_t round = 0; round < 48; ++round) {
    // Rounds 0-23 and 36-47 write dir 0, rounds 24-35 dir 1.
    const size_t d = round >= 24 && round < 36 ? 1 : 0;
    FeedbackLog& log = *logs[d];
    // Last round's deferred clicks: an even round sealed after them, so
    // each lands in a later segment than its impression.
    for (const uint64_t id : unclicked[d]) {
      ASSERT_TRUE(log.RecordClick(id, static_cast<uint32_t>(id % 3)).ok());
      late_clicks += round % 2 == 1 ? 1 : 0;
    }
    unclicked[d].clear();
    const size_t impressions = 1 + rng() % 4;
    for (size_t i = 0; i < impressions; ++i) {
      std::vector<QueryId> context(1 + rng() % 3);
      for (QueryId& q : context) q = 1 + static_cast<QueryId>(rng() % 20);
      const uint64_t id = next_id++;
      ASSERT_TRUE(
          log.AppendImpression(MakeImpression(id, context, ThreeItems())).ok());
      switch (rng() % 3) {
        case 0:
          ASSERT_TRUE(log.RecordClick(id, static_cast<uint32_t>(rng() % 3))
                          .ok());
          break;
        case 1:
          unclicked[d].push_back(id);
          break;
        default:
          break;  // never clicked
      }
    }
    // Odd rounds read the `.open` segment live; the next round appends to
    // it and seals it.
    if (round % 2 == 0) {
      ASSERT_TRUE(log.Seal().ok());
    }

    if (round == 10 || round == 30) {
      // A writer dies with records in its `.open` segment; the cursor
      // reads it, the tail tears, and Open re-seals the valid prefix.
      logs[d].reset();
      consume(d);
      tear_open_segment(d);
      logs[d] = open_log(d);
    } else if (round == 16) {
      // The same without a read in between.
      logs[d].reset();
      tear_open_segment(d);
      logs[d] = open_log(d);
    }
    consume(d);
    EXPECT_EQ(consume(d), 0u) << "round " << round;  // idempotent
  }
  EXPECT_GT(late_clicks, 0u);
  EXPECT_GT(handed_over, 20u);
  EXPECT_GT(logs[0]->stats().segments_deleted, 0u);  // retention ran
}

TEST(FeedbackLogTest, RejectsInvalidAppendsAndOptions) {
  EXPECT_EQ(FeedbackLog::Open({.dir = ""}).status().code(),
            StatusCode::kInvalidArgument);
  TempDir dir;
  FeedbackLogOptions options;
  options.dir = dir.str();
  options.max_segments = 0;
  EXPECT_EQ(FeedbackLog::Open(options).status().code(),
            StatusCode::kInvalidArgument);

  auto log = FeedbackLog::Open({.dir = dir.str()});
  ASSERT_TRUE(log.ok());
  FeedbackRecord no_id = MakeImpression(0, {1}, ThreeItems());
  EXPECT_EQ((*log)->AppendImpression(no_id).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*log)->RecordClick(0, 0).code(), StatusCode::kInvalidArgument);
}

/// The committed golden segment: regenerate with
///   SQP_REGEN_GOLDEN=1 ./sqp_serve_tests --gtest_filter='*GoldenSegment*'
/// and commit the new tests/data/golden_feedback_v1.seg ONLY for a
/// deliberate, versioned format change (docs/FEEDBACK.md documents the
/// layout). If this test fails, the writer's byte output drifted — v1
/// readers in the field would stop understanding live logs.
TEST(FeedbackLogTest, GoldenSegmentBytesArePinned) {
  const std::string golden_path =
      std::string(SQP_TEST_DATA_DIR) + "/golden_feedback_v1.seg";

  // A fixed record set with every field exercised: both record types,
  // a duplicate click, non-trivial doubles (exact binary64 values).
  TempDir dir;
  {
    auto log = FeedbackLog::Open({.dir = dir.str()});
    ASSERT_TRUE(log.ok());
    FeedbackRecord first;
    first.record_id = (*log)->NextRecordId();
    first.snapshot_version = 3;
    first.policy = ExplorePolicy::kEpsilonGreedy;
    first.policy_param = 0.125;
    first.context = {17, 42, 99};
    first.served = {{7, 1.5, 0.90625}, {8, 0.75, 0.046875},
                    {9, 0.25, 0.046875}};
    ASSERT_TRUE((*log)->AppendImpression(first).ok());
    FeedbackRecord second;
    second.record_id = (*log)->NextRecordId();
    second.snapshot_version = 3;
    second.policy = ExplorePolicy::kSoftmax;
    second.policy_param = 8.0;
    second.context = {1};
    second.served = {{2, -0.5, 1.0}};
    ASSERT_TRUE((*log)->AppendImpression(second).ok());
    ASSERT_TRUE((*log)->RecordClick(first.record_id, 1).ok());
    ASSERT_TRUE((*log)->RecordClick(first.record_id, 0).ok());
    ASSERT_TRUE((*log)->Seal().ok());
  }
  std::string written_path;
  for (const fs::path& f : SegmentFiles(dir.str())) {
    if (f.extension() == ".seg") written_path = f.string();
  }
  ASSERT_FALSE(written_path.empty());

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    out << read_all(written_path);
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  ASSERT_TRUE(fs::exists(golden_path))
      << golden_path << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  // Byte-identical: today's writer must produce exactly the v1 bytes.
  EXPECT_EQ(read_all(written_path), read_all(golden_path))
      << "feedback segment byte layout drifted from the committed v1 "
         "golden — this breaks live-log compatibility";

  // And today's reader must decode the golden bytes into the records
  // above, clicks joined.
  TempDir golden_dir;
  fs::create_directories(golden_dir.path());
  fs::copy_file(golden_path, golden_dir.path() / "feedback.000001.seg");
  const auto records = ReadFeedbackLog(golden_dir.str());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].record_id, 1u);
  EXPECT_EQ((*records)[0].policy, ExplorePolicy::kEpsilonGreedy);
  EXPECT_EQ((*records)[0].policy_param, 0.125);
  EXPECT_EQ((*records)[0].context, (std::vector<QueryId>{17, 42, 99}));
  EXPECT_EQ((*records)[0].clicked_position, 1u);  // first click won
  EXPECT_EQ((*records)[0].served[0].propensity, 0.90625);
  EXPECT_EQ((*records)[1].record_id, 2u);
  EXPECT_EQ((*records)[1].policy, ExplorePolicy::kSoftmax);
  EXPECT_EQ((*records)[1].clicked_position, kFeedbackNoClick);
}

}  // namespace
}  // namespace sqp
