#include "serve/feedback.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "serve/explorer.h"
#include "util/byte_io.h"
#include "util/file_io.h"

namespace sqp {
namespace {

namespace fs = std::filesystem;

// Segment header: magic "SQFB" (LE u32), u16 format version, u16 reserved.
constexpr uint32_t kSegmentMagic = 0x42465153u;
constexpr uint16_t kSegmentFormatVersion = 1;
constexpr size_t kSegmentHeaderBytes = 8;

// Record body leads with [u8 record type][u8 record version].
constexpr uint8_t kRecordImpression = 1;
constexpr uint8_t kRecordClick = 2;
constexpr uint8_t kRecordVersion = 1;

// Defensive caps on CRC-validated lengths, so a hostile file cannot make
// the reader allocate unbounded memory.
constexpr uint32_t kMaxBodyBytes = 1u << 26;
constexpr uint32_t kMaxListLen = 1u << 20;

// Body sizes: an impression is [type][version] record_id
// snapshot_version policy policy_param context_len served_len, then the
// two lists; a click is [type][version] impression_record_id position.
constexpr size_t kImpressionFixedBytes = 2 + 8 + 8 + 1 + 8 + 4 + 4;
constexpr size_t kServedItemBytes = 4 + 8 + 8;
constexpr size_t kClickBodyBytes = 2 + 8 + 4;
// [u32 body_len] before and [u32 crc32(body)] after every body.
constexpr size_t kFrameBytes = 8;

struct ClickEvent {
  uint64_t impression_record_id;
  uint32_t position;
};

/// What one segment scan produced. `valid_bytes` is the byte offset of the
/// end of the last intact record — the truncation point for crash recovery.
struct SegmentScan {
  std::vector<FeedbackRecord> impressions;
  std::vector<ClickEvent> clicks;
  size_t torn_records = 0;
  uint64_t valid_bytes = 0;
  bool header_ok = false;
};

bool DecodeImpression(ByteReader cur, FeedbackRecord* out) {
  uint8_t policy = 0;
  uint32_t context_len = 0;
  uint32_t served_len = 0;
  if (!cur.U64(&out->record_id) || !cur.U64(&out->snapshot_version) ||
      !cur.U8(&policy) || !cur.F64(&out->policy_param) ||
      !cur.U32(&context_len) || !cur.U32(&served_len)) {
    return false;
  }
  if (context_len > kMaxListLen || served_len > kMaxListLen) return false;
  out->policy = static_cast<ExplorePolicy>(policy);
  // Each list is bounded by the bytes left before it is sized.
  if (context_len > cur.remaining() / 4) return false;
  out->context.resize(context_len);
  for (uint32_t i = 0; i < context_len; ++i) {
    if (!cur.U32(&out->context[i])) return false;
  }
  if (served_len > cur.remaining() / kServedItemBytes) return false;
  out->served.resize(served_len);
  for (uint32_t i = 0; i < served_len; ++i) {
    ServedItem& item = out->served[i];
    if (!cur.U32(&item.query) || !cur.F64(&item.score) ||
        !cur.F64(&item.propensity)) {
      return false;
    }
  }
  out->clicked_position = kFeedbackNoClick;
  return true;
}

/// Parses one segment. In an `.open` segment (`sealed == false`) a zero
/// length word is the writer's unwritten preallocated tail, so it ends
/// the scan cleanly; anywhere else it is a torn record.
SegmentScan ScanSegment(const std::string& path, bool sealed) {
  SegmentScan scan;
  std::vector<uint8_t> bytes;
  if (!ReadWholeFile(path, &bytes).ok() ||
      bytes.size() < kSegmentHeaderBytes ||
      LoadLE32(bytes.data()) != kSegmentMagic ||
      LoadLE16(bytes.data() + 4) != kSegmentFormatVersion) {
    return scan;
  }
  scan.header_ok = true;

  const uint8_t* const end = bytes.data() + bytes.size();
  const uint8_t* p = bytes.data() + kSegmentHeaderBytes;
  while (end - p >= 4) {  // fewer bytes than a length word: clean EOF
    const uint32_t body_len = LoadLE32(p);
    if (body_len == 0 && !sealed) break;  // unwritten space: clean end
    if (body_len < 2 || body_len > kMaxBodyBytes) {
      ++scan.torn_records;
      break;
    }
    if (static_cast<size_t>(end - p) < kFrameBytes + body_len) {
      ++scan.torn_records;  // the tail record was torn mid-write
      break;
    }
    const uint8_t* body = p + 4;
    if (Crc32(body, body_len) != LoadLE32(body + body_len)) {
      ++scan.torn_records;
      break;
    }
    ByteReader cur(body + 2, body_len - 2);
    const uint8_t type = body[0];
    const uint8_t version = body[1];
    bool decoded = false;
    if (version == kRecordVersion && type == kRecordImpression) {
      FeedbackRecord record;
      if (DecodeImpression(cur, &record)) {
        scan.impressions.push_back(std::move(record));
        decoded = true;
      }
    } else if (version == kRecordVersion && type == kRecordClick) {
      ClickEvent click{};
      if (cur.U64(&click.impression_record_id) && cur.U32(&click.position)) {
        scan.clicks.push_back(click);
        decoded = true;
      }
    } else {
      // An unknown record type/version with a valid CRC is a future
      // format extension, not corruption: skip it, keep scanning.
      decoded = true;
    }
    if (!decoded) {
      ++scan.torn_records;
      break;
    }
    p += kFrameBytes + body_len;
  }
  scan.valid_bytes = static_cast<uint64_t>(p - bytes.data());
  return scan;
}

/// Parses "feedback.<seq>.seg" / "feedback.<seq>.open" filenames.
bool ParseSegmentName(const std::string& name, uint64_t* seq, bool* sealed) {
  constexpr std::string_view kPrefix = "feedback.";
  if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix)) {
    return false;
  }
  size_t pos = kPrefix.size();
  uint64_t value = 0;
  size_t digits = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0) return false;
  const std::string_view rest(name.c_str() + pos);
  if (rest == ".seg") {
    *sealed = true;
  } else if (rest == ".open") {
    *sealed = false;
  } else {
    return false;
  }
  *seq = value;
  return true;
}

/// ReadFeedbackLog's reader, minus the sealed segments numbered below
/// `skip_sealed_below` (0 reads everything). `next_unread` receives the
/// first segment number at or past `skip_sealed_below` that this read did
/// not fully read as a sealed segment: every segment below it was sealed
/// when read, and sealed segments never change.
Result<std::vector<FeedbackRecord>> ReadSegments(const std::string& dir,
                                                 uint64_t skip_sealed_below,
                                                 FeedbackReadReport* rep,
                                                 uint64_t* next_unread) {
  *rep = FeedbackReadReport{};
  *next_unread = skip_sealed_below;
  std::vector<FeedbackRecord> records;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return records;

  std::vector<std::tuple<uint64_t, std::string, bool>> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    bool sealed = false;
    if (!ParseSegmentName(entry.path().filename().string(), &seq, &sealed)) {
      continue;
    }
    if (sealed && seq < skip_sealed_below) continue;
    segments.emplace_back(seq, entry.path().string(), sealed);
  }
  if (ec) {
    return Status::IOError("cannot list feedback dir " + dir + ": " +
                           ec.message());
  }
  std::sort(segments.begin(), segments.end());

  std::vector<ClickEvent> clicks;
  // An `.open` segment may still grow, and a sealed one that failed to
  // read (renamed or deleted under us) may read differently next time:
  // the next read starts at the first of either.
  bool all_sealed_so_far = true;
  for (const auto& [seq, path, sealed] : segments) {
    SegmentScan scan = ScanSegment(path, sealed);
    all_sealed_so_far = all_sealed_so_far && sealed && scan.header_ok;
    if (all_sealed_so_far) *next_unread = seq + 1;
    rep->torn_records += scan.torn_records;
    rep->impressions += scan.impressions.size();
    rep->clicks += scan.clicks.size();
    for (FeedbackRecord& record : scan.impressions) {
      records.push_back(std::move(record));
    }
    clicks.insert(clicks.end(), scan.clicks.begin(), scan.clicks.end());
  }

  std::sort(records.begin(), records.end(),
            [](const FeedbackRecord& a, const FeedbackRecord& b) {
              return a.record_id < b.record_id;
            });

  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    by_id.emplace(records[i].record_id, i);
  }
  for (const ClickEvent& click : clicks) {
    auto it = by_id.find(click.impression_record_id);
    if (it == by_id.end()) {
      ++rep->unmatched_clicks;
      continue;
    }
    // First click wins: duplicates (retries, replays) don't move it.
    if (records[it->second].clicked_position == kFeedbackNoClick) {
      records[it->second].clicked_position = click.position;
    }
  }
  return records;
}

}  // namespace

FeedbackLog::FeedbackLog(FeedbackLogOptions options)
    : options_(std::move(options)) {}

FeedbackLog::~FeedbackLog() {
  std::lock_guard<std::mutex> lock(io_mu_);
  // The .open segment stays behind, truncated to its records; the next
  // Open() seals it, so nothing written before destruction is lost.
  (void)CloseSegment();
}

std::string FeedbackLog::SegmentPath(uint64_t seq, bool sealed) const {
  char name[64];
  std::snprintf(name, sizeof(name), "feedback.%06llu.%s",
                static_cast<unsigned long long>(seq), sealed ? "seg" : "open");
  return (fs::path(options_.dir) / name).string();
}

Result<std::unique_ptr<FeedbackLog>> FeedbackLog::Open(
    FeedbackLogOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("feedback log dir must not be empty");
  }
  if (options.max_segments == 0) {
    return Status::InvalidArgument("feedback log max_segments must be > 0");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create feedback dir " + options.dir + ": " +
                           ec.message());
  }

  auto log = std::unique_ptr<FeedbackLog>(new FeedbackLog(std::move(options)));

  // Inventory existing segments.
  std::vector<uint64_t> sealed;
  std::vector<uint64_t> open_segs;
  for (const auto& entry : fs::directory_iterator(log->options_.dir, ec)) {
    uint64_t seq = 0;
    bool is_sealed = false;
    if (!ParseSegmentName(entry.path().filename().string(), &seq, &is_sealed)) {
      continue;
    }
    (is_sealed ? sealed : open_segs).push_back(seq);
  }
  if (ec) {
    return Status::IOError("cannot list feedback dir " + log->options_.dir +
                           ": " + ec.message());
  }
  std::sort(sealed.begin(), sealed.end());
  std::sort(open_segs.begin(), open_segs.end());

  uint64_t max_seq = 0;
  uint64_t max_record_id = 0;
  for (uint64_t seq : sealed) {
    max_seq = std::max(max_seq, seq);
    SegmentScan scan =
        ScanSegment(log->SegmentPath(seq, /*sealed=*/true), /*sealed=*/true);
    for (const FeedbackRecord& record : scan.impressions) {
      max_record_id = std::max(max_record_id, record.record_id);
    }
  }

  // Recover .open segments left by a crashed (or just destroyed) writer:
  // truncate the torn tail and seal the valid prefix; delete empty ones.
  for (uint64_t seq : open_segs) {
    max_seq = std::max(max_seq, seq);
    const std::string open_path = log->SegmentPath(seq, /*sealed=*/false);
    SegmentScan scan = ScanSegment(open_path, /*sealed=*/false);
    const bool has_records = !scan.impressions.empty() || !scan.clicks.empty();
    if (!scan.header_ok || !has_records) {
      fs::remove(open_path, ec);
      continue;
    }
    for (const FeedbackRecord& record : scan.impressions) {
      max_record_id = std::max(max_record_id, record.record_id);
    }
    fs::resize_file(open_path, scan.valid_bytes, ec);
    if (ec) {
      return Status::IOError("cannot truncate torn feedback segment " +
                             open_path + ": " + ec.message());
    }
    fs::rename(open_path, log->SegmentPath(seq, /*sealed=*/true), ec);
    if (ec) {
      return Status::IOError("cannot seal recovered feedback segment " +
                             open_path + ": " + ec.message());
    }
    sealed.push_back(seq);
  }
  std::sort(sealed.begin(), sealed.end());

  log->sealed_seqs_ = std::move(sealed);
  log->next_record_id_.store(max_record_id + 1, std::memory_order_relaxed);
  log->active_seq_ = max_seq + 1;
  {
    std::lock_guard<std::mutex> lock(log->io_mu_);
    SQP_RETURN_IF_ERROR(log->StartSegment(0));
    // Enforce the retention bound immediately: a reopened log may have
    // inherited more sealed segments than options allow.
    while (log->sealed_seqs_.size() > log->options_.max_segments) {
      fs::remove(log->SegmentPath(log->sealed_seqs_.front(), true), ec);
      log->sealed_seqs_.erase(log->sealed_seqs_.begin());
      log->segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return log;
}

Status FeedbackLog::StartSegment(size_t framed) {
  const std::string path = SegmentPath(active_seq_, /*sealed=*/false);
  const size_t capacity =
      std::max(options_.max_segment_bytes, kSegmentHeaderBytes + framed);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IOError("cannot open feedback segment " + path + ": " +
                           std::strerror(errno));
  }
  // Allocate the blocks up front: a store into a mapped hole on a full
  // disk would be a SIGBUS, not an error.
  const int err = ::posix_fallocate(fd, 0, static_cast<off_t>(capacity));
  void* base = err == 0 ? ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                                 MAP_SHARED, fd, 0)
                        : MAP_FAILED;
  if (base == MAP_FAILED) {
    const std::string why = std::strerror(err != 0 ? err : errno);
    ::close(fd);
    std::error_code ec;
    fs::remove(path, ec);
    return Status::IOError("cannot preallocate feedback segment " + path +
                           ": " + why);
  }
  fd_ = fd;
  base_ = static_cast<uint8_t*>(base);
  capacity_ = capacity;
  StoreLE32(base_, kSegmentMagic);
  StoreLE16(base_ + 4, kSegmentFormatVersion);
  StoreLE16(base_ + 6, 0);
  active_bytes_ = kSegmentHeaderBytes;
  active_records_ = 0;
  return Status::OK();
}

Status FeedbackLog::CloseSegment() {
  if (base_ == nullptr) return Status::OK();
  // Drop the unwritten preallocated tail: the file is left holding
  // exactly the bytes written, as a sealed segment must.
  const bool truncated =
      ::ftruncate(fd_, static_cast<off_t>(active_bytes_)) == 0;
  ::munmap(base_, capacity_);
  ::close(fd_);
  fd_ = -1;
  base_ = nullptr;
  capacity_ = 0;
  if (!truncated) {
    return Status::IOError("cannot truncate feedback segment " +
                           SegmentPath(active_seq_, /*sealed=*/false));
  }
  return Status::OK();
}

Status FeedbackLog::SealLocked() {
  if (active_records_ == 0) return Status::OK();
  Status status = CloseSegment();
  std::error_code ec;
  if (status.ok()) {
    fs::rename(SegmentPath(active_seq_, false), SegmentPath(active_seq_, true),
               ec);
    if (ec) {
      status = Status::IOError("cannot seal feedback segment: " +
                               ec.message());
    }
  }
  if (status.ok()) {
    sealed_seqs_.push_back(active_seq_);
    segments_sealed_.fetch_add(1, std::memory_order_relaxed);
    while (sealed_seqs_.size() > options_.max_segments) {
      fs::remove(SegmentPath(sealed_seqs_.front(), true), ec);
      sealed_seqs_.erase(sealed_seqs_.begin());
      segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Even when sealing failed the next segment gets a new number, so it
  // never overwrites this one's records (the next Open() recovers them).
  ++active_seq_;
  active_records_ = 0;
  SQP_RETURN_IF_ERROR(status);
  return StartSegment(0);
}

template <typename Encode>
Status FeedbackLog::AppendBody(size_t body_len, bool is_click,
                               const Encode& encode) {
  const size_t framed = kFrameBytes + body_len;
  Status status;
  if (active_records_ > 0 &&
      active_bytes_ + framed > options_.max_segment_bytes) {
    status = SealLocked();
  }
  // No segment (a start failed earlier), or a record too large for the
  // empty one: (re)start it sized for the record.
  if (status.ok() &&
      (base_ == nullptr || active_bytes_ + framed > capacity_)) {
    status = CloseSegment();
    if (status.ok()) status = StartSegment(framed);
  }
  if (!status.ok()) {
    dropped_appends_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  uint8_t* const record = base_ + active_bytes_;
  uint8_t* const body = record + 4;
  encode(body);
  StoreLE32(body + body_len, Crc32(body, body_len));
  // The length word goes last: until it is stored, readers and crash
  // recovery see this record's slot as the zero tail of the segment.
  std::atomic_signal_fence(std::memory_order_release);
  StoreLE32(record, static_cast<uint32_t>(body_len));
  active_bytes_ += framed;
  ++active_records_;
  (is_click ? clicks_appended_ : impressions_appended_)
      .fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

template <typename ItemAt>
Status FeedbackLog::AppendImpressionFrom(uint64_t record_id,
                                         uint64_t snapshot_version,
                                         ExplorePolicy policy,
                                         double policy_param,
                                         std::span<const QueryId> context,
                                         size_t served_len,
                                         const ItemAt& item) {
  const size_t body_len = kImpressionFixedBytes +
                          context.size() * 4 + served_len * kServedItemBytes;
  std::lock_guard<std::mutex> lock(io_mu_);
  return AppendBody(body_len, /*is_click=*/false, [&](uint8_t* body) {
    ByteWriter out(body);
    out.U8(kRecordImpression);
    out.U8(kRecordVersion);
    out.U64(record_id);
    out.U64(snapshot_version);
    out.U8(static_cast<uint8_t>(policy));
    out.F64(policy_param);
    out.U32(static_cast<uint32_t>(context.size()));
    out.U32(static_cast<uint32_t>(served_len));
    for (QueryId q : context) out.U32(q);
    for (size_t i = 0; i < served_len; ++i) {
      const ServedItem served = item(i);
      out.U32(served.query);
      out.F64(served.score);
      out.F64(served.propensity);
    }
  });
}

Status FeedbackLog::AppendImpression(const FeedbackRecord& record) {
  if (record.record_id == 0) {
    return Status::InvalidArgument("impression record_id must be > 0");
  }
  return AppendImpressionFrom(
      record.record_id, record.snapshot_version, record.policy,
      record.policy_param, record.context, record.served.size(),
      [&](size_t i) { return record.served[i]; });
}

Status FeedbackLog::RecordClick(uint64_t impression_record_id,
                                uint32_t position) {
  if (impression_record_id == 0) {
    return Status::InvalidArgument("click impression_record_id must be > 0");
  }
  std::lock_guard<std::mutex> lock(io_mu_);
  return AppendBody(kClickBodyBytes, /*is_click=*/true, [&](uint8_t* body) {
    ByteWriter out(body);
    out.U8(kRecordClick);
    out.U8(kRecordVersion);
    out.U64(impression_record_id);
    out.U32(position);
  });
}

Status FeedbackLog::Seal() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return SealLocked();
}

FeedbackLogStats FeedbackLog::stats() const {
  FeedbackLogStats s;
  s.impressions_appended = impressions_appended_.load(std::memory_order_relaxed);
  s.clicks_appended = clicks_appended_.load(std::memory_order_relaxed);
  s.dropped_appends = dropped_appends_.load(std::memory_order_relaxed);
  s.segments_sealed = segments_sealed_.load(std::memory_order_relaxed);
  s.segments_deleted = segments_deleted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    s.active_segment_bytes = active_bytes_;
  }
  return s;
}

Result<std::vector<FeedbackRecord>> ReadFeedbackLog(const std::string& dir,
                                                    FeedbackReadReport* report) {
  FeedbackReadReport local;
  uint64_t next_unread = 0;
  return ReadSegments(dir, /*skip_sealed_below=*/0, report ? report : &local,
                      &next_unread);
}

std::vector<AggregatedSession> SessionsFromFeedback(
    std::span<const FeedbackRecord> records) {
  std::vector<AggregatedSession> sessions;
  for (const FeedbackRecord& record : records) {
    if (record.clicked_position == kFeedbackNoClick) continue;
    if (record.clicked_position >= record.served.size()) continue;
    if (record.context.empty()) continue;
    const QueryId clicked = record.served[record.clicked_position].query;
    if (clicked == kInvalidQueryId) continue;
    AggregatedSession session;
    session.queries = record.context;
    session.queries.push_back(clicked);
    session.frequency = 1;
    sessions.push_back(std::move(session));
  }
  return sessions;
}

Result<size_t> FeedbackCursor::Consume(
    const std::string& dir,
    const std::function<void(std::vector<AggregatedSession>)>& append) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir != dir_) {
    dir_ = dir;
    next_segment_ = 0;
  }
  FeedbackReadReport report;
  uint64_t next_segment = 0;
  Result<std::vector<FeedbackRecord>> records =
      ReadSegments(dir, next_segment_, &report, &next_segment);
  if (!records.ok()) return records.status();
  std::vector<FeedbackRecord> fresh;
  uint64_t max_id = watermark_;
  for (FeedbackRecord& record : *records) {
    if (record.record_id <= watermark_) continue;
    max_id = std::max(max_id, record.record_id);
    fresh.push_back(std::move(record));
  }
  std::vector<AggregatedSession> sessions = SessionsFromFeedback(fresh);
  const size_t consumed = sessions.size();
  if (!sessions.empty()) append(std::move(sessions));
  watermark_ = max_id;
  next_segment_ = next_segment;
  return consumed;
}

uint64_t FeedbackHook::OnServed(std::span<const QueryId> context,
                                uint64_t served_version,
                                Recommendation* rec) const {
  if (rec == nullptr || !rec->covered || rec->queries.empty()) return 0;
  const bool exploring = explorer != nullptr && explorer->enabled();
  if (log == nullptr && !exploring) return 0;

  const uint64_t record_id =
      log != nullptr ? log->NextRecordId()
                     : unlogged_id_.fetch_add(1, std::memory_order_relaxed);

  std::vector<double> propensities;
  if (explorer != nullptr) {
    explorer->Rerank(record_id, &rec->queries, &propensities);
  } else {
    propensities.assign(rec->queries.size(), 0.0);
    propensities[0] = 1.0;
  }

  if (log == nullptr) return 0;

  // Serving never fails on a log error: the drop is counted in stats().
  const std::vector<ScoredQuery>& served = rec->queries;
  (void)log->AppendImpressionFrom(
      record_id, served_version,
      explorer != nullptr ? explorer->options().policy : ExplorePolicy::kNone,
      explorer != nullptr ? explorer->options().param : 0.0, context,
      served.size(), [&](size_t i) {
        return ServedItem{served[i].query, served[i].score, propensities[i]};
      });
  return record_id;
}

}  // namespace sqp
