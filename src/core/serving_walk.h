#ifndef SQP_CORE_SERVING_WALK_H_
#define SQP_CORE_SERVING_WALK_H_

/// The compact serving walk as a runtime-free layer: pure model arithmetic
/// over caller-provided memory, with no dependency on the engine runtime
/// (no threads, no mmap, no exceptions/RTTI, no allocation, no iostreams,
/// no function-local statics). Everything mutable a request touches lives
/// in a caller-owned WalkScratch; everything immutable is referenced
/// through a ModelRef of raw pointers into storage the caller keeps alive.
///
/// Two consumers share this layer and must serve bit-identical results:
///
///   - the engine tiers (core/compact_snapshot.h binds its blob bytes into
///     a ModelRef; serve/ and net/ ride on top), which add snapshot swap,
///     admission control and persistence around it;
///   - the slim embedded predictor (src/slim/, include/sqp/slim.h), a
///     dependency-free static library that links this layer, the blob
///     parser and nothing else — the form factor a browser omnibox,
///     mobile keyboard or JNI/Python/Rust binding embeds.
///
/// The arithmetic is operation-for-operation the MVMM serving math of the
/// paper (Eq. 4-6 weighting, escape-weighted per-level accumulation,
/// score-desc/query-asc ranking) over the quantized compact layout; the
/// equivalence is pinned by tests/slim/ and the golden blob sweep, which
/// serve the same blob through both consumers and compare score bits.
///
/// One accumulation strategy: every request sums into a dense per-query
/// array of L slots, where L is the number of distinct next queries the
/// blob stores (its nexts pool holds blob-local ids 0..L-1), so the array
/// is proportional to the blob whatever global ids it names. A sort-merge
/// ranking is kept only as a test reference
/// (tests/core/sort_merge_reference.h).
///
/// Freestanding-ish discipline (keep it that way):
///   - headers: C standard headers plus <algorithm> (lower_bound / min /
///     max are header-only) and <cmath> (libm) only;
///   - no std::vector/string (operator new is a libstdc++ symbol), no
///     std::stable_sort (allocates), no function-local statics with
///     dynamic initializers (__cxa_guard), no exceptions/RTTI.
/// CI's slim-abi job enforces this by linking the slim library from a C99
/// translation unit without libstdc++ and inspecting its undefined symbols.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sqp::serving {

/// How the mixture weighs its components for an online context (paper
/// Eq. 4 plus the ablation variants). This is the canonical definition;
/// core/model_snapshot.h aliases it for the engine-side spelling
/// `sqp::MixtureWeighting`. The enumerator order is persisted in snapshot
/// blobs (META weighting u32) — append, never reorder.
enum class MixtureWeighting {
  kGaussianEditDistance,  // paper Eq. 4, sigmas learned by the fit
  kUniform,               // every component weighs the same
  kLongestMatch,          // all weight on the deepest-matching component(s)
};

/// What a model knows about the scratch capacity one request against it
/// can need. Computed by FinalizeModelRef from the bound arrays, so any
/// consumer — engine scratch pools and slim's create-time arena alike —
/// can size every per-thread buffer up front and serve allocation-free.
struct ScratchSizing {
  size_t path_depth = 0;      // tree levels: bounds every matched path
  size_t num_components = 0;  // mixture component count
  size_t dense_queries = 0;   // dense-accumulator slots: the blob's L
};

/// Epoch-stamped dense per-query score accumulator over caller-owned
/// arrays. score[q] is valid iff stamp[q] == epoch; BeginGeneration
/// invalidates every slot in O(1) by bumping the epoch (with an exact O(n)
/// re-zero only on the ~4-billion generation wraparound). `touched` lists
/// the queries written this generation, in first-touch order.
///
/// All three arrays must have `capacity` slots; stamps must start zeroed
/// (0 is never a live epoch). The struct is the persistent accumulator
/// state — keep it (or at least its epoch) alive across requests so the
/// epoch trick stays sound. The engine wraps it in the vector-backed
/// AccumulatorStorage (core/model_snapshot.h); slim carves it from its
/// create-time arena.
struct DenseAccumulator {
  double* score = nullptr;
  uint32_t* stamp = nullptr;
  uint32_t* touched = nullptr;
  size_t capacity = 0;
  size_t touched_count = 0;
  uint32_t epoch = 0;

  /// Starts a new accumulation generation over every slot.
  void BeginGeneration() {
    if (++epoch == 0) {
      // Wrapped: stamps from ~2^32 generations ago could alias the new
      // epoch, so pay one exact reset.
      if (capacity > 0) std::memset(stamp, 0, capacity * sizeof(uint32_t));
      epoch = 1;
    }
    touched_count = 0;
  }

  /// Merges one contribution. First touch of a generation *assigns* (no
  /// read of the stale score), later touches add — accumulation order is
  /// the call order, which the serving walk keeps level-major.
  inline void Add(uint32_t query, double value) {
    if (stamp[query] != epoch) {
      stamp[query] = epoch;
      score[query] = value;
      touched[touched_count++] = query;
    } else {
      score[query] += value;
    }
  }
};

/// Best-effort read prefetch of the cache line at `address` (no-op where
/// the builtin is unavailable). The walk uses it to pull the next path
/// level's CSR slices in while the current level is being scored.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

/// Width-parameterized raw-pointer views of the compact id pools: `T`
/// holds the query ids and the root index's node ids alike. The root index
/// uses node id 0 (never a child) as its absent sentinel. The nexts pool
/// holds blob-local query ids 0..L-1, numbered in ascending global-id
/// order; `next_global` maps them back. Edge queries and the root index
/// match context ids, so they hold global ids. No pool holds a child id:
/// nodes are numbered breadth-first, so edge e leads to node
/// num_nodes - num_edges + e.
template <typename T>
struct PoolsRef {
  const T* next_query = nullptr;   // num_entries, local ids
  const T* next_global = nullptr;  // num_next_queries, strictly ascending
  const T* edge_query = nullptr;   // num_edges
  const T* root_child_by_query = nullptr;  // root_index_size
  size_t root_index_size = 0;
};

/// The escape probability of a step into a suffix the data gives no Eq. 6
/// ratio for (an intermediate dropped suffix, the root, or a state with no
/// observed session start). An implementation constant of the walk, not a
/// model parameter: no blob stores it.
inline constexpr double kEscape = 0.1;

/// kEscapePow covers powers up to this cap; beyond it the chain is
/// extended by plain multiplication.
inline constexpr size_t kEscapePowCap = 64;

/// kEscapePow.value[j] = kEscape^j, built with the left-to-right chain
/// 1.0 * e * e * ... that internal::EscapeMass multiplies, so every
/// looked-up power is bit-identical to the loop. Constant-initialized.
struct EscapePowTable {
  double value[kEscapePowCap + 1];
};
inline constexpr EscapePowTable kEscapePow = [] {
  EscapePowTable table{};
  table.value[0] = 1.0;
  for (size_t j = 1; j <= kEscapePowCap; ++j) {
    table.value[j] = table.value[j - 1] * kEscape;
  }
  return table;
}();

/// One compact model, as raw pointers into caller-owned storage (an owned
/// blob buffer, a memory-mapped blob, or a caller-provided buffer — the
/// walk cannot tell). All arrays little-endian-decoded, host-order, naturally
/// aligned. Exactly one of mask16/mask64 is non-null (the blob's one mask
/// section, at the width its narrow-mask flag gives), and exactly one of
/// the narrow/wide pools is populated (`narrow_ids` says which).
///
/// The `derived` block is computed once per model by FinalizeModelRef;
/// everything above it is bound by the storage owner.
struct ModelRef {
  // Node arrays, parallel, index = node id, 0 = root.
  const uint32_t* next_begin = nullptr;   // num_nodes + 1 (CSR offsets)
  const uint32_t* child_begin = nullptr;  // num_nodes + 1 (CSR offsets)
  const uint32_t* total_count = nullptr;  // num_nodes
  const uint32_t* start_count = nullptr;  // num_nodes
  const uint8_t* count_shift = nullptr;   // num_nodes
  const uint16_t* mask16 = nullptr;       // num_nodes, or null
  const uint64_t* mask64 = nullptr;       // num_nodes, or null
  /// Quantized count codes, parallel to the active pools' next_query.
  const uint16_t* next_code = nullptr;    // num_entries
  size_t num_nodes = 0;
  size_t num_entries = 0;
  size_t num_edges = 0;
  /// L: the distinct next queries of the nexts pool (local ids 0..L-1).
  size_t num_next_queries = 0;
  bool narrow_ids = false;
  PoolsRef<uint16_t> narrow;
  PoolsRef<uint32_t> wide;

  // Mixture state.
  MixtureWeighting weighting = MixtureWeighting::kGaussianEditDistance;
  const double* sigmas = nullptr;  // num_components
  size_t num_components = 0;

  // ----- derived (FinalizeModelRef) -----
  ScratchSizing sizing;
};

/// Computes the derived block of `m` off its bound arrays: the scratch
/// sizing, with O(1) working state. BindBlob runs it only on arrays that
/// passed ValidateBlobStructure, which the level count needs to terminate
/// and to bound every matched path.
void FinalizeModelRef(ModelRef* m);

/// Longest-suffix walk recording the matched chain into `path` (capacity
/// `path_capacity`; sizing.path_depth bounds the depth of every validated
/// model, and the walk never writes past the capacity). Returns the
/// matched depth.
size_t MatchPath(const ModelRef& m, const uint32_t* context, size_t len,
                 int32_t* path, size_t path_capacity);

/// True iff the model can match at least the last context query.
bool Covers(const ModelRef& m, const uint32_t* context, size_t len);

/// True iff `sigma` is a width the mixture can serve with: finite and > 0.
/// Every sigma reaches the walk through this check — ModelSnapshot::Build
/// and WithSigmas for the full model, BindBlob for a blob — so
/// GaussianPdf below needs none.
inline bool ValidSigma(double sigma) {
  return sigma > 0.0 && std::isfinite(sigma);
}

/// Gaussian density N(x; 0, sigma); no SQP_CHECK so the layer stays
/// abort-free.
inline double GaussianPdf(double x, double sigma) {
  constexpr double kInvSqrt2Pi = 0.3989422804014327;
  const double z = x / sigma;
  return kInvSqrt2Pi / sigma * std::exp(-0.5 * z * z);
}

/// Below this total the Gaussian weights of a context count as all
/// underflowed, and ComputeWeights falls back to weighting by match depth.
inline constexpr double kWeightUnderflow = 1e-280;

/// Unnormalized per-component weights (paper Eq. 4 plus the ablation
/// variants, including the all-underflow depth fallback). `matched` and
/// `weights` have `k` = num_components entries; `context_len` is the full
/// online context length.
void ComputeWeights(MixtureWeighting weighting, const double* sigmas,
                    size_t k, size_t context_len, const size_t* matched,
                    double* weights);

/// Normalizes `weights[0..k)` to sum to 1. No-op if the sum is <= 0.
void NormalizeWeights(double* weights, size_t k);

/// kEscape^power via kEscapePow; beyond the cap the chain is extended by
/// multiplication (bit-identical to the loop).
double EscapePow(size_t power);

/// EscapeMass (Eq. 5-6) off the stored start/total counts.
double EscapeWeight(const ModelRef& m, int32_t node, size_t dropped);

/// Caller-owned mutable state of one request. Capacities the caller must
/// provide (see ScratchSizing): path/level_weight >= path_capacity slots,
/// matched/weights >= num_components, and acc prepared over
/// sizing.dense_queries slots with BeginGeneration already called for this
/// request.
struct WalkScratch {
  int32_t* path = nullptr;
  size_t path_capacity = 0;
  size_t* matched = nullptr;
  double* weights = nullptr;
  double* level_weight = nullptr;
  DenseAccumulator* acc = nullptr;
};

struct WalkResult {
  size_t count = 0;           // entries written to out_queries/out_scores
  size_t matched_length = 0;  // depth of the matched chain
  bool covered = false;       // false = no candidates (count == 0)
};

/// One full recommendation: longest-suffix match, Eq. 4/5 mixture
/// weighting, escape-weighted per-level accumulation over the CSR nexts
/// slices into the dense accumulator (one slot per local id), and top-N
/// ranking (score desc, query asc) into the caller's arrays (capacity
/// `top_n` each). Only the ranked winners are mapped to global ids; local
/// order is global order, so the ranking is the global one.
WalkResult RecommendTopN(const ModelRef& m, const uint32_t* context,
                         size_t len, size_t top_n, WalkScratch* scratch,
                         uint32_t* out_queries, double* out_scores);

}  // namespace sqp::serving

#endif  // SQP_CORE_SERVING_WALK_H_
