// The runtime-free compact serving walk (see serving_walk.h for the
// layering contract). Every function here is an exact port of the
// pre-split CompactServingBase / model_snapshot arithmetic — same
// operations in the same order, so both consumers (engine tiers and the
// slim embedded predictor) serve bit-identical recommendations.
//
// Discipline: no allocation, no exceptions, no statics with dynamic
// initializers, no iostreams. <algorithm> is used for the header-only
// lower_bound/min/max; <cmath> for libm.

#include "core/serving_walk.h"

#include <algorithm>

namespace sqp::serving {

namespace {

inline uint64_t MaskOf(const ModelRef& m, size_t node) {
  return m.mask64 != nullptr ? m.mask64[node] : uint64_t{m.mask16[node]};
}

/// Depth-1 step: the root's dense fan-out index, one O(1) array load
/// (absent = node 0 = -1).
template <typename T>
inline int32_t RootChildIn(const PoolsRef<T>& pools, uint32_t query) {
  if (query >= pools.root_index_size) return -1;
  const int32_t child = static_cast<int32_t>(pools.root_child_by_query[query]);
  return child == 0 ? -1 : child;
}

/// Child of non-root `node` along `query` in the CSR edge pool, or -1.
/// The root's children live only in the root index (RootChildIn); its
/// edge run is empty. Edge e leads to node num_nodes - num_edges + e.
template <typename T>
inline int32_t FindChildIn(const ModelRef& m, const PoolsRef<T>& pools,
                           int32_t node, uint32_t query) {
  // A query past T's range is in no pool of this width; narrowing it
  // would alias a smaller id.
  if (query != static_cast<T>(query)) return -1;
  const T* first = pools.edge_query + m.child_begin[static_cast<size_t>(node)];
  const T* last =
      pools.edge_query + m.child_begin[static_cast<size_t>(node) + 1];
  const T* at = std::lower_bound(first, last, static_cast<T>(query));
  if (at == last || *at != static_cast<T>(query)) return -1;
  return static_cast<int32_t>(m.num_nodes - m.num_edges +
                              static_cast<size_t>(at - pools.edge_query));
}

/// Longest-suffix walk recording the matched chain. Prefetches each
/// matched node's edge run and nexts slice so the binary search and the
/// scoring pass hit warm lines.
template <typename T>
size_t MatchPathIn(const ModelRef& m, const PoolsRef<T>& pools,
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

template <typename T>
WalkResult RecommendIn(const ModelRef& m, const PoolsRef<T>& pools,
                       const uint32_t* context, size_t len, size_t top_n,
                       WalkScratch* scratch, uint32_t* out_queries,
                       double* out_scores) {
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
    double lw = weights[c] * EscapeWeight(m, state, len - matched[c]);
    for (size_t d = matched[c]; d >= 1; --d) {
      level_weight[d - 1] += lw;
      lw *= kEscape;
    }
  }

  // Dense level-major accumulation: each level's nexts run streams into
  // the epoch-stamped per-local-id array. Summing per query in level order
  // is exactly the order a stable sort-merge sums in, and ldexp folds the
  // dequantization shift into the scale exactly (power-of-two scaling), so
  // one widening conversion and one multiply per entry reproduce
  // scale * (code << shift) bit for bit.
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
  // Rank local ids (their order is the global order), then map only the
  // winners.
  TopNSink sink{out_queries, out_scores, top_n};
  for (size_t i = 0; i < acc->touched_count; ++i) {
    const uint32_t q = acc->touched[i];
    sink.Offer(q, acc->score[q]);
  }
  for (size_t i = 0; i < sink.count; ++i) {
    out_queries[i] = pools.next_global[out_queries[i]];
  }
  result.count = sink.count;
  result.matched_length = depth;
  result.covered = true;
  return result;
}

}  // namespace

void FinalizeModelRef(ModelRef* m) {
  // Path-array sizing: the number of tree levels. Let base = num_nodes -
  // num_edges, E_0 = 1 and E_j = base + child_begin[E_{j-1}]; E_1 = base,
  // since the root's edge run is empty. Level j is [E_{j-1}, E_j).
  //
  // Every matched chain n_1, n_2, ... has n_j in level j. n_1 is a root
  // index id, in [1, base). If n_j is in [E_{j-1}, E_j), its child is
  // base + e for an edge e of n_j, and the nondecreasing offsets give
  // child_begin[E_{j-1}] <= child_begin[n_j] <= e < child_begin[n_j + 1]
  // <= child_begin[E_j], so n_{j+1} is in [E_j, E_{j+1}). A chain of depth
  // d thus meets d nonempty levels: the count bounds every chain.
  //
  // The count terminates: for E_j < num_nodes, ValidateBlobStructure's
  // base + child_begin[i] > i gives E_{j+1} > E_j, and num_nodes is a fixed
  // point (child_begin[num_nodes] == num_edges). On a breadth-first tree
  // level j holds exactly the nodes at depth j, so the count is exact.
  const size_t base = m->num_nodes - m->num_edges;
  size_t levels = 0;
  for (size_t end = 1; end < m->num_nodes; ++levels) {
    end = base + m->child_begin[end];
  }
  m->sizing.path_depth = levels;
  m->sizing.num_components = m->num_components;
  m->sizing.dense_queries = m->num_next_queries;
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

double EscapePow(size_t power) {
  if (power <= kEscapePowCap) return kEscapePow.value[power];
  // Contexts deeper than the table cap are vanishingly rare; extend the
  // chain from the table's last entry so the rounding sequence matches
  // the loop exactly.
  double escape = kEscapePow.value[kEscapePowCap];
  for (size_t j = kEscapePowCap; j < power; ++j) escape *= kEscape;
  return escape;
}

double EscapeWeight(const ModelRef& m, int32_t node, size_t dropped) {
  if (dropped == 0) return 1.0;
  double escape = EscapePow(dropped - 1);
  const size_t id = static_cast<size_t>(node);
  // The same branch EscapeMass takes on exact counts: a real (non-root)
  // state with observed session starts contributes start/total, anything
  // else kEscape.
  if (node != 0 && m.total_count[id] > 0 && m.start_count[id] > 0) {
    escape *= static_cast<double>(m.start_count[id]) /
              static_cast<double>(m.total_count[id]);
  } else {
    escape *= kEscape;
  }
  return escape;
}

WalkResult RecommendTopN(const ModelRef& m, const uint32_t* context,
                         size_t len, size_t top_n, WalkScratch* scratch,
                         uint32_t* out_queries, double* out_scores) {
  return m.narrow_ids ? RecommendIn(m, m.narrow, context, len, top_n, scratch,
                                    out_queries, out_scores)
                      : RecommendIn(m, m.wide, context, len, top_n, scratch,
                                    out_queries, out_scores);
}

}  // namespace sqp::serving
