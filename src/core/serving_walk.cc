// The runtime-free compact serving walk (see serving_walk.h for the
// layering contract). Every function here is an exact port of the
// pre-split CompactServingBase / model_snapshot arithmetic — same
// operations in the same order, so both consumers (engine tiers and the
// slim embedded predictor) serve bit-identical recommendations.
//
// Discipline: no allocation, no exceptions, no statics with dynamic
// initializers, no iostreams. <algorithm> is used for the header-only
// lower_bound/sort/min/max; <cmath> for libm.

#include "core/serving_walk.h"

#include <algorithm>

namespace sqp::serving {

namespace {

inline uint64_t MaskOf(const ModelRef& m, size_t node) {
  return m.mask64 != nullptr ? m.mask64[node] : uint64_t{m.mask16[node]};
}

/// Depth-1 step: the root's dense fan-out index, one O(1) array load
/// (absent = node 0 = -1).
template <typename QT, typename NT>
inline int32_t RootChildIn(const PoolsRef<QT, NT>& pools, uint32_t query) {
  if (query >= pools.root_index_size) return -1;
  const int32_t child = static_cast<int32_t>(pools.root_child_by_query[query]);
  return child == 0 ? -1 : child;
}

/// Child of non-root `node` along `query` in the CSR edge pool, or -1.
/// The root is served by RootChildIn, which keeps this loop branch-lean.
template <typename QT, typename NT>
inline int32_t FindChildIn(const ModelRef& m, const PoolsRef<QT, NT>& pools,
                           int32_t node, uint32_t query) {
  // A query past QT's range is in no pool of this width; narrowing it
  // would alias a smaller id.
  if (query != static_cast<QT>(query)) return -1;
  const uint32_t begin = m.child_begin[static_cast<size_t>(node)];
  const uint32_t end = m.child_begin[static_cast<size_t>(node) + 1];
  const QT* first = pools.edge_query + begin;
  const QT* last = pools.edge_query + end;
  const QT* at = std::lower_bound(first, last, static_cast<QT>(query));
  if (at == last || *at != static_cast<QT>(query)) return -1;
  return static_cast<int32_t>(
      pools.edge_child[static_cast<size_t>(begin + (at - first))]);
}

/// Longest-suffix walk recording the matched chain. Prefetches each
/// matched node's edge run and nexts slice so the binary search and the
/// scoring pass hit warm lines.
template <typename QT, typename NT>
size_t MatchPathIn(const ModelRef& m, const PoolsRef<QT, NT>& pools,
                   const uint32_t* context, size_t len, int32_t* path,
                   size_t path_capacity) {
  if (len == 0 || path_capacity == 0) return 0;
  int32_t cur = RootChildIn(pools, context[len - 1]);
  if (cur < 0) return 0;
  size_t depth = 0;
  path[depth++] = cur;
  for (size_t back = 1; back < len && depth < path_capacity; ++back) {
    const size_t id = static_cast<size_t>(cur);
    // Warm the matched node's edge run (the next lookup binary-searches
    // it) and its nexts slice (the scoring pass streams it).
    PrefetchRead(pools.edge_query + m.child_begin[id]);
    PrefetchRead(pools.next_query + m.next_begin[id]);
    PrefetchRead(m.next_code + m.next_begin[id]);
    const int32_t child = FindChildIn(m, pools, cur, context[len - 1 - back]);
    if (child < 0) break;
    cur = child;
    path[depth++] = cur;
  }
  return depth;
}

/// Strict total ranking order of the result lists: score desc, query asc.
inline bool RankBefore(double score_a, uint32_t query_a, double score_b,
                       uint32_t query_b) {
  if (score_a != score_b) return score_a > score_b;
  return query_a < query_b;
}

/// Streaming top-N selection into the caller's arrays, kept sorted under
/// RankBefore. Selection under a strict total order has a unique result,
/// so this produces exactly the list the legacy nth_element + sort
/// (model_snapshot's RankTopN) produced from the same candidates.
struct TopNSink {
  uint32_t* queries;
  double* scores;
  size_t top_n;
  size_t count = 0;

  inline void Offer(uint32_t query, double score) {
    if (count == top_n) {
      if (top_n == 0 ||
          !RankBefore(score, query, scores[count - 1], queries[count - 1])) {
        return;
      }
      --count;  // evict the current last
    }
    size_t pos = count;
    while (pos > 0 && RankBefore(score, query, scores[pos - 1],
                                 queries[pos - 1])) {
      queries[pos] = queries[pos - 1];
      scores[pos] = scores[pos - 1];
      --pos;
    }
    queries[pos] = query;
    scores[pos] = score;
    ++count;
  }
};

template <typename QT, typename NT>
WalkResult RecommendIn(const ModelRef& m, const PoolsRef<QT, NT>& pools,
                       const uint32_t* context, size_t len, size_t top_n,
                       bool use_dense, WalkScratch* scratch,
                       uint32_t* out_queries, double* out_scores) {
  WalkResult result;
  if (len == 0) return result;

  const size_t depth = MatchPathIn(m, pools, context, len, scratch->path,
                                   scratch->path_capacity);
  if (depth == 0) return result;
  const int32_t* path = scratch->path;

  // Per-component matched depths off the membership masks: view membership
  // is ancestor-closed, so each component's bit covers a prefix of the
  // path (exactly ModelSnapshot::SharedMatchDepths).
  const size_t k = m.num_components;
  size_t* matched = scratch->matched;
  for (size_t c = 0; c < k; ++c) {
    const uint64_t bit = uint64_t{1} << c;
    size_t depth_c = depth;
    while (depth_c > 0 &&
           (MaskOf(m, static_cast<size_t>(path[depth_c - 1])) & bit) == 0) {
      --depth_c;
    }
    matched[c] = depth_c;
  }

  double* weights = scratch->weights;
  ComputeWeights(m.weighting, m.sigmas, k, len, matched, weights);
  NormalizeWeights(weights, k);

  // Escape-weighted per-level accumulation, then one pass over the CSR
  // nexts slices — operation-for-operation the full snapshot's ranking
  // loop, with `(code << shift)` standing in for the exact count.
  double* level_weight = scratch->level_weight;
  for (size_t d = 0; d < depth; ++d) level_weight[d] = 0.0;
  for (size_t c = 0; c < k; ++c) {
    if (weights[c] <= 0.0 || matched[c] == 0) continue;
    const int32_t state = path[matched[c] - 1];
    double lw = weights[c] * EscapeWeight(m, state, len - matched[c], c);
    const double esc = m.component_escape[c];
    for (size_t d = matched[c]; d >= 1; --d) {
      level_weight[d - 1] += lw;
      lw *= esc;
    }
  }

  if (use_dense) {
    // Dense level-major accumulation: each level's nexts run streams into
    // the epoch-stamped per-query array — no per-entry push and no
    // sort-merge. Summing per query in level order is exactly the order
    // the (stable) sort-merge sums in, and ldexp folds the dequantization
    // shift into the scale exactly (power-of-two scaling), so one widening
    // conversion and one multiply per entry reproduce the sparse path's
    // scores and top-N lists bit for bit.
    DenseAccumulator* acc = scratch->acc;
    for (size_t d = 0; d < depth; ++d) {
      if (level_weight[d] <= 0.0) continue;
      const size_t node = static_cast<size_t>(path[d]);
      if (m.total_count[node] == 0) continue;
      if (d + 1 < depth) {
        // Warm the next level's slice while this one streams.
        const size_t nn = static_cast<size_t>(path[d + 1]);
        PrefetchRead(pools.next_query + m.next_begin[nn]);
        PrefetchRead(m.next_code + m.next_begin[nn]);
      }
      const double scale =
          std::ldexp(level_weight[d] / static_cast<double>(m.total_count[node]),
                     m.count_shift[node]);
      const uint32_t end = m.next_begin[node + 1];
      for (uint32_t i = m.next_begin[node]; i < end; ++i) {
        acc->Add(pools.next_query[i],
                 scale * static_cast<double>(m.next_code[i]));
      }
    }
    if (acc->touched_count == 0) return result;
    TopNSink sink{out_queries, out_scores, top_n};
    for (size_t i = 0; i < acc->touched_count; ++i) {
      const uint32_t q = acc->touched[i];
      sink.Offer(q, acc->score[q]);
    }
    result.count = sink.count;
    result.matched_length = depth;
    result.covered = true;
    return result;
  }

  // Sparse sort-merge: per-entry push, order-preserving sort by
  // (query, seq), run summation in push order. Kept as the fallback for
  // sparse wide id spaces and as the reference the kernel equivalence
  // suite pins the dense walk against.
  RawHit* raw = scratch->raw;
  size_t num_raw = 0;
  for (size_t d = 0; d < depth; ++d) {
    if (level_weight[d] <= 0.0) continue;
    const size_t node = static_cast<size_t>(path[d]);
    if (m.total_count[node] == 0) continue;
    const double scale =
        level_weight[d] / static_cast<double>(m.total_count[node]);
    const uint8_t shift = m.count_shift[node];
    const uint32_t begin = m.next_begin[node];
    const uint32_t end = m.next_begin[node + 1];
    for (uint32_t i = begin; i < end && num_raw < scratch->raw_capacity;
         ++i) {
      const uint64_t count = static_cast<uint64_t>(m.next_code[i]) << shift;
      raw[num_raw] = RawHit{static_cast<uint32_t>(pools.next_query[i]),
                            static_cast<uint32_t>(num_raw),
                            scale * static_cast<double>(count)};
      ++num_raw;
    }
  }
  if (num_raw == 0) return result;

  // (query asc, seq asc) == the legacy stable_sort-by-query order.
  std::sort(raw, raw + num_raw, [](const RawHit& a, const RawHit& b) {
    if (a.query != b.query) return a.query < b.query;
    return a.seq < b.seq;
  });
  TopNSink sink{out_queries, out_scores, top_n};
  for (size_t i = 0; i < num_raw;) {
    const uint32_t query = raw[i].query;
    double score = raw[i].score;
    for (++i; i < num_raw && raw[i].query == query; ++i) {
      score += raw[i].score;
    }
    sink.Offer(query, score);
  }
  result.count = sink.count;
  result.matched_length = depth;
  result.covered = true;
  return result;
}

}  // namespace

void FinalizeModelRef(ModelRef* m, double* escape_pow_storage,
                      uint32_t* depth_scratch) {
  // Escape power tables: the same left-to-right multiply chain as the old
  // per-request loop (1.0 * e * e * ...), so every looked-up power is
  // bit-identical to what the loop produced.
  const size_t k = m->num_components;
  for (size_t c = 0; c < k; ++c) {
    double* row = escape_pow_storage + c * (kEscapePowCap + 1);
    row[0] = 1.0;
    for (size_t j = 1; j <= kEscapePowCap; ++j) {
      row[j] = row[j - 1] * m->component_escape[c];
    }
  }
  m->escape_pow = escape_pow_storage;

  // Dense-accumulator bound: one past the largest query id in the nexts
  // pool. Blob query ids are not range-validated, so a few-KB wide blob
  // can claim an arbitrarily sparse id space; the dense array is sized
  // only while it stays proportional to the model (kDenseQueryFloor), the
  // walk otherwise keeps the sort-merge.
  uint64_t bound = 0;
  if (m->narrow_ids) {
    for (size_t i = 0; i < m->num_entries; ++i) {
      bound = std::max(bound,
                       static_cast<uint64_t>(m->narrow.next_query[i]) + 1);
    }
  } else {
    for (size_t i = 0; i < m->num_entries; ++i) {
      bound = std::max(bound,
                       static_cast<uint64_t>(m->wide.next_query[i]) + 1);
    }
  }
  m->scored_query_bound = bound;
  m->dense_merge =
      bound <= std::max<uint64_t>(kDenseQueryFloor, m->num_entries);

  // The derivations below stay in-bounds even on malformed CSR offsets
  // (a bad blob would merely mis-size hints); BindBlob validates the
  // structure before it calls this.
  m->max_next_run = 0;
  for (size_t node = 0; node < m->num_nodes; ++node) {
    if (m->next_begin[node + 1] > m->next_begin[node]) {
      m->max_next_run = std::max(
          m->max_next_run, m->next_begin[node + 1] - m->next_begin[node]);
    }
  }

  // Tree depth for path-array pre-sizing: ids are parent-before-child in
  // every well-formed layout, so one forward sweep settles all depths.
  size_t max_depth = 0;
  if (m->num_nodes > 0 && depth_scratch != nullptr) {
    for (size_t i = 0; i < m->num_nodes; ++i) depth_scratch[i] = 0;
    const auto sweep = [&](const auto* edge_child) {
      for (size_t node = 0; node < m->num_nodes; ++node) {
        const size_t end =
            std::min<size_t>(m->child_begin[node + 1], m->num_edges);
        for (size_t e = m->child_begin[node]; e < end; ++e) {
          const size_t child = static_cast<size_t>(edge_child[e]);
          if (child > node && child < m->num_nodes) {
            depth_scratch[child] = depth_scratch[node] + 1;
            max_depth = std::max<size_t>(max_depth, depth_scratch[child]);
          }
        }
      }
    };
    if (m->narrow_ids) {
      sweep(m->narrow.edge_child);
    } else {
      sweep(m->wide.edge_child);
    }
  }
  m->sizing.path_depth = max_depth;
  m->sizing.num_components = k;
  m->sizing.raw_entries = std::min<size_t>(m->num_entries, size_t{4096});
  m->sizing.dense_queries =
      m->dense_merge ? static_cast<size_t>(m->scored_query_bound) : 0;
}

size_t MatchPath(const ModelRef& m, const uint32_t* context, size_t len,
                 int32_t* path, size_t path_capacity) {
  return m.narrow_ids
             ? MatchPathIn(m, m.narrow, context, len, path, path_capacity)
             : MatchPathIn(m, m.wide, context, len, path, path_capacity);
}

bool Covers(const ModelRef& m, const uint32_t* context, size_t len) {
  if (len == 0) return false;
  return (m.narrow_ids ? RootChildIn(m.narrow, context[len - 1])
                       : RootChildIn(m.wide, context[len - 1])) >= 0;
}

void ComputeWeights(MixtureWeighting weighting, const double* sigmas,
                    size_t k, size_t context_len, const size_t* matched,
                    double* weights) {
  for (size_t c = 0; c < k; ++c) weights[c] = 0.0;
  switch (weighting) {
    case MixtureWeighting::kGaussianEditDistance: {
      for (size_t c = 0; c < k; ++c) {
        // The matched state's context is the trailing matched[c] queries
        // of the online context, so the edit distance degenerates to the
        // number of dropped prefix queries.
        const double d = static_cast<double>(context_len - matched[c]);
        weights[c] = GaussianPdf(d, sigmas[c]);
      }
      // With a tightly fitted sigma the Gaussian can underflow for every
      // component (all matches far from the context); fall back to
      // weighting by match depth so the mixture stays well defined.
      double total = 0.0;
      for (size_t c = 0; c < k; ++c) total += weights[c];
      if (total <= kWeightUnderflow) {
        for (size_t c = 0; c < k; ++c) {
          weights[c] = 1.0 + static_cast<double>(matched[c]);
        }
      }
      break;
    }
    case MixtureWeighting::kUniform:
      for (size_t c = 0; c < k; ++c) weights[c] = 1.0;
      break;
    case MixtureWeighting::kLongestMatch: {
      size_t best = 0;
      for (size_t c = 0; c < k; ++c) best = std::max(best, matched[c]);
      for (size_t c = 0; c < k; ++c) {
        weights[c] = matched[c] == best ? 1.0 : 0.0;
      }
      break;
    }
  }
}

void NormalizeWeights(double* weights, size_t k) {
  double total = 0.0;
  for (size_t c = 0; c < k; ++c) total += weights[c];
  if (total <= 0.0) return;
  for (size_t c = 0; c < k; ++c) weights[c] /= total;
}

double EscapePow(const ModelRef& m, size_t component, size_t power) {
  const double* row = m.escape_pow + component * (kEscapePowCap + 1);
  if (power <= kEscapePowCap) return row[power];
  // Contexts deeper than the table cap are vanishingly rare; extend the
  // chain from the table's last entry so the rounding sequence matches
  // the pre-table loop exactly.
  double escape = row[kEscapePowCap];
  const double base = m.component_escape[component];
  for (size_t j = kEscapePowCap; j < power; ++j) escape *= base;
  return escape;
}

double EscapeWeight(const ModelRef& m, int32_t node, size_t dropped,
                    size_t component) {
  if (dropped == 0) return 1.0;
  double escape = EscapePow(m, component, dropped - 1);
  const size_t id = static_cast<size_t>(node);
  // The same branch EscapeMass takes on exact counts: a real (non-root)
  // state with observed session starts contributes start/total, anything
  // else the component default.
  if (node != 0 && m.total_count[id] > 0 && m.start_count[id] > 0) {
    escape *= static_cast<double>(m.start_count[id]) /
              static_cast<double>(m.total_count[id]);
  } else {
    escape *= m.component_escape[component];
  }
  return escape;
}

WalkResult RecommendTopN(const ModelRef& m, const uint32_t* context,
                         size_t len, size_t top_n, bool use_dense,
                         WalkScratch* scratch, uint32_t* out_queries,
                         double* out_scores) {
  return m.narrow_ids
             ? RecommendIn(m, m.narrow, context, len, top_n, use_dense,
                           scratch, out_queries, out_scores)
             : RecommendIn(m, m.wide, context, len, top_n, use_dense,
                           scratch, out_queries, out_scores);
}

}  // namespace sqp::serving
