#ifndef SQP_SERVE_FEEDBACK_H_
#define SQP_SERVE_FEEDBACK_H_

/// Closed-loop serving, part 1: the feedback log. Every served
/// recommendation can be recorded as an *impression* — (context, the
/// served top-N with per-item sampling propensities, the policy that
/// produced the order) — and every observed click as a *click* record
/// referencing the impression it landed on. The resulting stream is what
/// turns a static-corpus recommender into a system that learns from its
/// own traffic: `Retrainer::ConsumeFeedback` folds clicked impressions
/// back into the training corpus, and `eval/ips.h` uses the logged
/// propensities for unbiased (inverse-propensity-scored) evaluation.
///
/// The on-disk format (byte-level layout in docs/FEEDBACK.md, pinned by
/// tests/data/golden_feedback_v1.seg) is a bounded, crash-safe,
/// append-only segment log:
///  - versioned little-endian records framed as
///    [u32 body_len][body][u32 crc32(body)] via util/byte_io — a torn or
///    corrupt tail record is detected and dropped on read, never served
///    as garbage;
///  - the active segment `feedback.<seq>.open` is preallocated and mapped
///    shared: an append stores the body and CRC into the mapping and the
///    length word last, so a record is in the page cache (visible to
///    readers, surviving a process crash) once the append returns, and
///    unwritten space reads as a zero length word;
///  - the active segment is truncated to its written bytes and sealed by
///    an atomic rename to `feedback.<seq>.seg` when it reaches
///    max_segment_bytes;
///  - at most max_segments sealed segments are retained (oldest deleted
///    on rotation), so the log's disk footprint is bounded regardless of
///    traffic.
///
/// Serving integration: engines write impressions behind the
/// `ServeOptions::feedback` hook (serve/deadline.h). With no hook — or a
/// hook whose explorer is disabled (policy none / epsilon 0) — served
/// answers are bit-identical to pre-feedback serving; the hook only ever
/// *appends observations*, it cannot change what the greedy walk returns
/// (enforced by bench/closed_loop and tests/serve/closed_loop_test.cc).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/prediction_model.h"
#include "log/types.h"
#include "util/status.h"

namespace sqp {

class Explorer;

/// Exploration policy identifiers, persisted as u8 in impression records
/// (pinned values — extend, never renumber). The policy set mirrors
/// vw_slim's `vw_predict_exploration` (epsilon-greedy / softmax / bag).
enum class ExplorePolicy : uint8_t {
  kNone = 0,
  kEpsilonGreedy = 1,
  kSoftmax = 2,
  kBag = 3,
};

/// One served slot of an impression: the query, the model score it was
/// served with, and the probability the exploration policy had of putting
/// this item at slot 1 (the "sampling propensity" — 1.0 at slot 1 and 0.0
/// elsewhere for pure greedy serving). Propensities are logged with every
/// served item so off-policy evaluation can reweight without re-serving.
struct ServedItem {
  QueryId query = kInvalidQueryId;
  double score = 0.0;
  double propensity = 0.0;

  bool operator==(const ServedItem&) const = default;
};

inline constexpr uint32_t kFeedbackNoClick = 0xffffffffu;

/// One joined feedback record: an impression plus the click (if any) that
/// later referenced it. `record_id` is a process-lifetime-monotonic
/// sequence number assigned at serve time; reranking is deterministic per
/// record id (see Explorer), so a logged stream can be replayed exactly.
struct FeedbackRecord {
  uint64_t record_id = 0;
  uint64_t snapshot_version = 0;
  ExplorePolicy policy = ExplorePolicy::kNone;
  double policy_param = 0.0;
  std::vector<QueryId> context;
  std::vector<ServedItem> served;
  /// 0-based served slot the user clicked, kFeedbackNoClick when no click
  /// record referenced this impression.
  uint32_t clicked_position = kFeedbackNoClick;

  bool operator==(const FeedbackRecord&) const = default;
};

struct FeedbackLogOptions {
  /// Directory holding the segment files. Created if missing.
  std::string dir;

  /// Active-segment size that triggers rotation. A single record larger
  /// than this still gets written (records are never split), in a
  /// segment of its own.
  size_t max_segment_bytes = 1 << 20;

  /// Sealed segments retained; the oldest is deleted when rotation would
  /// exceed this. Bounds the log's disk footprint.
  size_t max_segments = 8;
};

/// Writer-side counters (monotonic since Open).
struct FeedbackLogStats {
  uint64_t impressions_appended = 0;
  uint64_t clicks_appended = 0;
  /// Appends that failed to reach a segment (disk full, unlinked dir).
  /// Serving never fails on a log error — the record is dropped and
  /// counted here.
  uint64_t dropped_appends = 0;
  uint64_t segments_sealed = 0;
  uint64_t segments_deleted = 0;
  uint64_t active_segment_bytes = 0;
};

/// What the reader observed while scanning a log directory.
struct FeedbackReadReport {
  size_t impressions = 0;
  size_t clicks = 0;
  /// Records dropped because the segment ended mid-record (a crash tore
  /// the tail) or a CRC failed; the rest of that segment is skipped.
  size_t torn_records = 0;
  /// Click records whose impression id was not in the scanned segments
  /// (e.g. the impression's segment was already rotated out).
  size_t unmatched_clicks = 0;
};

/// The bounded append-only feedback log writer. Thread-safe: any number
/// of serving threads may append concurrently (appends serialize on one
/// mutex — the serving hot path copies one small record into the mapped
/// segment per request, see BENCH_feedback.json for the measured cost).
/// Every append is visible to ReadFeedbackLog when it returns.
class FeedbackLog {
 public:
  /// Opens (or creates) the log in options.dir. An `.open` segment left
  /// behind by a crashed process is recovered: its valid prefix is sealed
  /// (torn or unwritten tail truncated) and a fresh active segment is
  /// started; record ids continue after the largest recovered id.
  static Result<std::unique_ptr<FeedbackLog>> Open(FeedbackLogOptions options);

  ~FeedbackLog();

  FeedbackLog(const FeedbackLog&) = delete;
  FeedbackLog& operator=(const FeedbackLog&) = delete;

  /// Reserves the next impression record id (> 0, strictly increasing).
  /// Taken *before* reranking so the explorer's per-record determinism is
  /// keyed on the id the record will carry.
  uint64_t NextRecordId() {
    return next_record_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one impression. `record.clicked_position` is ignored on
  /// write (clicks are separate records, joined at read time).
  Status AppendImpression(const FeedbackRecord& record);

  /// Appends a click record referencing a previously served impression.
  Status RecordClick(uint64_t impression_record_id, uint32_t position);

  /// Seals the active segment (truncate to its records, atomic rename to
  /// `.seg`) if it holds any records, and starts a fresh one. Idempotent.
  Status Seal();

  const FeedbackLogOptions& options() const { return options_; }
  FeedbackLogStats stats() const;

 private:
  friend struct FeedbackHook;

  explicit FeedbackLog(FeedbackLogOptions options);

  std::string SegmentPath(uint64_t seq, bool sealed) const;
  /// Creates feedback.<active_seq_>.open, preallocates it to
  /// max(max_segment_bytes, header + `framed`), maps it shared and writes
  /// the segment header. io_mu_ must be held and no segment mapped.
  Status StartSegment(size_t framed);
  /// Truncates the mapped segment to its written bytes, unmaps and closes
  /// it. No-op when nothing is mapped. io_mu_ must be held.
  Status CloseSegment();
  /// Appends one impression, encoded straight into the segment; `item(i)`
  /// returns served slot i as a ServedItem. Defined in feedback.cc.
  template <typename ItemAt>
  Status AppendImpressionFrom(uint64_t record_id, uint64_t snapshot_version,
                              ExplorePolicy policy, double policy_param,
                              std::span<const QueryId> context,
                              size_t served_len, const ItemAt& item);
  /// Frames one `body_len`-byte record that `encode(uint8_t*)` writes,
  /// rotating or starting a segment first as needed. io_mu_ must be held.
  template <typename Encode>
  Status AppendBody(size_t body_len, bool is_click, const Encode& encode);
  /// Seal + prune + start the next segment. io_mu_ must be held.
  Status SealLocked();

  FeedbackLogOptions options_;
  std::atomic<uint64_t> next_record_id_{1};

  mutable std::mutex io_mu_;
  int fd_ = -1;
  uint8_t* base_ = nullptr;  // the active segment's mapping
  size_t capacity_ = 0;      // its mapped (preallocated) length
  uint64_t active_seq_ = 0;
  uint64_t active_bytes_ = 0;
  uint64_t active_records_ = 0;
  std::vector<uint64_t> sealed_seqs_;  // ascending

  std::atomic<uint64_t> impressions_appended_{0};
  std::atomic<uint64_t> clicks_appended_{0};
  std::atomic<uint64_t> dropped_appends_{0};
  std::atomic<uint64_t> segments_sealed_{0};
  std::atomic<uint64_t> segments_deleted_{0};
};

/// Reads every segment (sealed first, then the active one) in sequence
/// order and returns the *joined* impressions — clicks folded into their
/// impression's `clicked_position` — sorted by record id. Torn or corrupt
/// records end their segment's scan (counted in the report); other
/// segments are unaffected. In an `.open` segment a zero length word is
/// the unwritten preallocated tail: a clean end, not a torn record. A
/// live, unsealed log reads every record appended so far. An empty or missing directory yields an empty
/// vector, not an error (a fresh deployment has no feedback yet).
Result<std::vector<FeedbackRecord>> ReadFeedbackLog(
    const std::string& dir, FeedbackReadReport* report = nullptr);

/// Converts clicked impressions into training sessions: each record with
/// a valid clicked_position becomes AggregatedSession{context + clicked
/// query, 1}, in record-id order. Records with no click, an empty
/// context, or an out-of-range position contribute nothing. Appending the
/// result to a Retrainer is exactly equivalent to appending the same
/// sessions directly (tested in tests/serve/closed_loop_test.cc).
std::vector<AggregatedSession> SessionsFromFeedback(
    std::span<const FeedbackRecord> records);

/// The consume side of the closed loop: one watermark (the largest record
/// id already consumed) behind one mutex. Consume reads the log at `dir`,
/// converts the clicked impressions past the watermark into sessions
/// (SessionsFromFeedback), hands them to `append` under the cursor's lock
/// (so two concurrent consumes never hand over the same records; not
/// called when there are none) and advances the watermark past every
/// record seen, clicked or not — so repeated calls over the same log are
/// idempotent, and a click must be in the log by the time its impression
/// is consumed. Returns the number of sessions handed over. Thread-safe.
///
/// Each sealed segment is read once: the cursor also keeps the `dir` it
/// read and the first segment number it has not fully read as a sealed
/// segment, and skips the sealed segments below it. That hands over
/// exactly what re-reading the whole log would, because sealed segments
/// never change, every record of a fully read segment is at or below the
/// watermark, and a click is appended after its impression (so it lands
/// in the same or a later segment). An `.open` segment is read again once
/// sealed, as is one that FeedbackLog::Open recovered; a different `dir`
/// starts from segment 0. The skip point moves only on a successful read.
class FeedbackCursor {
 public:
  Result<size_t> Consume(
      const std::string& dir,
      const std::function<void(std::vector<AggregatedSession>)>& append);

 private:
  std::mutex mu_;
  uint64_t watermark_ = 0;     // guarded by mu_
  std::string dir_;            // guarded by mu_
  uint64_t next_segment_ = 0;  // guarded by mu_; valid for dir_
};

/// The serving-side hook carried by ServeOptions::feedback: reranks the
/// served list through `explorer` (when set) and appends the impression
/// to `log` (when set). Either member may be null — explore-only serving
/// is possible but loses the propensity trail, so the CLI requires a log
/// whenever exploration is on. Thread-safe; owned by the caller and
/// shared by any number of concurrent requests.
struct FeedbackHook {
  FeedbackLog* log = nullptr;
  const Explorer* explorer = nullptr;

  /// Applies the hook to one served answer: no-op for uncovered/empty
  /// results; otherwise reranks in place (identity when exploration is
  /// off) and logs the impression. Returns the impression's record id (0
  /// when nothing was logged) so callers can attribute later clicks.
  uint64_t OnServed(std::span<const QueryId> context, uint64_t served_version,
                    Recommendation* rec) const;

 private:
  /// Record ids for hooks without a log (exploration still needs a
  /// deterministic per-record key).
  mutable std::atomic<uint64_t> unlogged_id_{1};
};

}  // namespace sqp

#endif  // SQP_SERVE_FEEDBACK_H_
