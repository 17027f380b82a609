#ifndef SQP_TESTS_CORE_SORT_MERGE_REFERENCE_H_
#define SQP_TESTS_CORE_SORT_MERGE_REFERENCE_H_

// A sort-merge ranking of the compact walk's candidates: the reference
// the dense walk is pinned against (tests/serve/kernel_equivalence_test.cc,
// tests/core/snapshot_io_test.cc) and timed against (bench/hot_path.cpp).
// It binds the snapshot's blob bytes through serving::BindBlob itself and
// runs the same descent and mixture weighting as serving::RecommendTopN,
// then ranks by a different route: one candidate per nexts entry, a sort by
// (query, push order), run summation in push order, and a streaming top-N
// under (score desc, query asc). Every candidate's score is
// `scale * (code << shift)`, so the sums are the dense walk's bits only if
// its ldexp folding is exact.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "util/status.h"

namespace sqp::test {

class SortMergeReference {
 public:
  explicit SortMergeReference(std::shared_ptr<const CompactSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {
    const std::span<const uint8_t> blob = snapshot_->blob_bytes();
    serving::BlobLayout layout;
    SQP_CHECK(serving::BindBlob(blob.data(), blob.size(), &layout,
                                &model_) == serving::BlobError::kNone);
    path_.resize(model_.sizing.path_depth);
    level_weight_.resize(model_.sizing.path_depth);
    matched_.resize(model_.num_components);
    weights_.resize(model_.num_components);
  }

  /// The reference answer for `context`: global query ids, ranked.
  Recommendation Recommend(std::span<const QueryId> context, size_t top_n) {
    return model_.narrow_ids ? RecommendIn(model_.narrow, context, top_n)
                             : RecommendIn(model_.wide, context, top_n);
  }

 private:
  /// One candidate: `seq` is the push sequence number, so sorting by
  /// (query, seq) is a stable sort by query without stable_sort.
  struct RawHit {
    uint32_t query = 0;
    uint32_t seq = 0;
    double score = 0.0;
  };

  template <typename T>
  Recommendation RecommendIn(const serving::PoolsRef<T>& pools,
                             std::span<const QueryId> context, size_t top_n) {
    const serving::ModelRef& m = model_;
    Recommendation rec;
    const size_t len = context.size();
    const size_t depth =
        serving::MatchPath(m, context.data(), len, path_.data(),
                           std::min(len, path_.size()));
    if (depth == 0) return rec;

    const size_t k = m.num_components;
    for (size_t c = 0; c < k; ++c) {
      size_t depth_c = depth;
      while (depth_c > 0 && (MaskOf(path_[depth_c - 1]) >> c & 1) == 0) {
        --depth_c;
      }
      matched_[c] = depth_c;
    }
    serving::ComputeWeights(m.weighting, m.sigmas, k, len, matched_.data(),
                            weights_.data());
    serving::NormalizeWeights(weights_.data(), k);
    std::fill(level_weight_.begin(), level_weight_.begin() + depth, 0.0);
    for (size_t c = 0; c < k; ++c) {
      if (weights_[c] <= 0.0 || matched_[c] == 0) continue;
      const int32_t state = path_[matched_[c] - 1];
      double lw =
          weights_[c] * serving::EscapeWeight(m, state, len - matched_[c]);
      for (size_t d = matched_[c]; d >= 1; --d) {
        level_weight_[d - 1] += lw;
        lw *= serving::kEscape;
      }
    }

    raw_.clear();
    for (size_t d = 0; d < depth; ++d) {
      const size_t node = static_cast<size_t>(path_[d]);
      if (level_weight_[d] <= 0.0 || m.total_count[node] == 0) continue;
      const double scale =
          level_weight_[d] / static_cast<double>(m.total_count[node]);
      for (uint32_t i = m.next_begin[node]; i < m.next_begin[node + 1]; ++i) {
        const uint64_t count = uint64_t{m.next_code[i]} << m.count_shift[node];
        raw_.push_back(RawHit{pools.next_global[pools.next_query[i]],
                              static_cast<uint32_t>(raw_.size()),
                              scale * static_cast<double>(count)});
      }
    }
    if (raw_.empty()) return rec;
    std::sort(raw_.begin(), raw_.end(), [](const RawHit& a, const RawHit& b) {
      return a.query != b.query ? a.query < b.query : a.seq < b.seq;
    });
    // Streaming top-N of the merged runs under (score desc, query asc).
    const auto before = [](const ScoredQuery& a, const ScoredQuery& b) {
      return a.score != b.score ? a.score > b.score : a.query < b.query;
    };
    std::vector<ScoredQuery>& top = rec.queries;
    for (size_t i = 0; i < raw_.size();) {
      ScoredQuery merged{raw_[i].query, raw_[i].score};
      for (++i; i < raw_.size() && raw_[i].query == merged.query; ++i) {
        merged.score += raw_[i].score;
      }
      if (top.size() == top_n) {
        if (top_n == 0 || !before(merged, top.back())) continue;
        top.pop_back();
      }
      top.insert(std::upper_bound(top.begin(), top.end(), merged, before),
                 merged);
    }
    rec.covered = true;
    rec.matched_length = depth;
    return rec;
  }

  uint64_t MaskOf(int32_t node) const {
    const size_t id = static_cast<size_t>(node);
    return model_.mask64 != nullptr ? model_.mask64[id]
                                    : uint64_t{model_.mask16[id]};
  }

  std::shared_ptr<const CompactSnapshot> snapshot_;  // owns the blob bytes
  serving::ModelRef model_;
  std::vector<int32_t> path_;
  std::vector<size_t> matched_;
  std::vector<double> weights_;
  std::vector<double> level_weight_;
  std::vector<RawHit> raw_;
};

}  // namespace sqp::test

#endif  // SQP_TESTS_CORE_SORT_MERGE_REFERENCE_H_
