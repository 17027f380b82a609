#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanBuffer::SpanBuffer(size_t capacity) : capacity_(capacity) {
  spans_.reserve(std::min<size_t>(capacity, size_t{1} << 16));
}

int32_t SpanBuffer::Open(const char* name, uint64_t request, uint32_t items) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .items = items,
                        .request = request,
                        .start_ns = NowNs()});
  open_.push_back(index);
  return index;
}

void SpanBuffer::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int32_t SpanBuffer::Add(const char* name, uint64_t request, int64_t start_ns,
                        int64_t end_ns, uint32_t items, int32_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{.name = name,
                        .parent = parent,
                        .items = items,
                        .request = request,
                        .start_ns = start_ns,
                        .end_ns = end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) {
      children[static_cast<size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (const auto& [start, end] : kids) {
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

void Trace::Absorb(const SpanBuffer& buffer) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : buffer.spans()) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  dropped_ += buffer.dropped();
}

std::map<std::string, SpanSummary> Trace::Summaries() const {
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::map<std::string, std::vector<double>> per_item;
  std::map<std::string, std::vector<double>> self_per_item;
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double items = std::max<uint32_t>(span.items, 1);
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    SpanSummary& summary = out[span.name];
    ++summary.count;
    summary.total_ns += duration;
    per_item[span.name].push_back(duration / items);
    self_per_item[span.name].push_back(static_cast<double>(self[i]) / items);
  }
  for (auto& [name, summary] : out) {
    summary.p50_ns = Median(per_item[name]);
    summary.p99_ns = TailPercentile(std::move(per_item[name]), 99.0);
    summary.self_p50_ns = Median(std::move(self_per_item[name]));
  }
  return out;
}

SpanSummary Find(const SpanSummaries& summaries, const std::string& name) {
  const auto it = summaries.find(name);
  return it == summaries.end() ? SpanSummary{} : it->second;
}

bool Trace::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::fprintf(out, "name\tparent\trequest\tstart_ns\tend_ns\titems\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\t%d\t%llu\t%lld\t%lld\t%u\t%lld\n", s.name, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.items,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
