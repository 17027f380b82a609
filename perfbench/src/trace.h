#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into the library's
// public functions. A span holds its name, start, end, parent span and
// request id; spans stay in memory and are written out when the run ends.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal: the layer call it wraps
  int32_t parent = -1;    // index of the parent span, -1 for a root
  uint32_t items = 1;     // work items the span covers (contexts, records)
  uint64_t request = 0;   // spans of one request share this id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one thread. Single-threaded by design: every thread that
/// records owns its buffer, and Trace::Absorb merges them at the end.
/// Spans past `capacity` are counted and dropped, so a traced run's memory
/// stays bounded.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity = size_t{1} << 20);

  /// Opens a span as a child of the innermost open span; -1 when full.
  int32_t Open(const char* name, uint64_t request, uint32_t items);
  void Close(int32_t index);

  /// Records an already-finished span (e.g. one derived from timestamps a
  /// transport captured) under `parent`.
  int32_t Add(const char* name, uint64_t request, int64_t start_ns,
              int64_t end_ns, uint32_t items, int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  size_t capacity_;
  size_t dropped_ = 0;
};

/// RAII span; a null buffer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request = 0,
             uint32_t items = 1)
      : buffer_(buffer),
        index_(buffer == nullptr ? -1 : buffer->Open(name, request, items)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span, so overlapping children are subtracted
/// once. `spans` must list every parent before its children.
std::vector<int64_t> SelfTimes(std::span<const Span> spans);

/// Per-name figures, per work item.
struct SpanSummary {
  size_t count = 0;
  double p50_ns = 0.0;  // duration per item
  Percentile p99_ns;    // duration per item, tail (see TailPercentile)
  double self_p50_ns = 0.0;
  double total_ns = 0.0;
};

/// Every span of a run, merged from the per-thread buffers.
class Trace {
 public:
  void Absorb(const SpanBuffer& buffer);

  /// Per-name summaries over the whole trace.
  std::map<std::string, SpanSummary> Summaries() const;

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  /// Writes one tab-separated line per span (name, parent, request,
  /// start_ns, end_ns, items, self_ns). Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

using SpanSummaries = std::map<std::string, SpanSummary>;

/// The summary for `name`, all zero when no span had that name.
SpanSummary Find(const SpanSummaries& summaries, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
