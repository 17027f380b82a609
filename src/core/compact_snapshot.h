#ifndef SQP_CORE_COMPACT_SNAPSHOT_H_
#define SQP_CORE_COMPACT_SNAPSHOT_H_

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/model_snapshot.h"
#include "core/pst.h"

namespace sqp {

class SnapshotIo;  // core/snapshot_io.h: persists / restores the layout

namespace internal {
/// Test hook: when set, the compact walk ranks through the legacy
/// push_back + sort-merge path instead of the dense accumulator. The
/// kernel equivalence suite uses it to pin the dense walk bit-identical
/// to that reference; production code never touches it.
std::atomic<bool>& ForceSparseMergeForTest();
}  // namespace internal

/// Parameters of the compact serving layout.
struct CompactOptions {
  /// Keep at most this many next-query entries per node (the highest-count
  /// ones; ties by ascending QueryId, i.e. a prefix of the node's
  /// descending-sorted count list), closed under the ancestor relation: a
  /// query kept in a node is also kept in every ancestor (its counts nest,
  /// so it is guaranteed to appear there). The closure means a candidate
  /// kept at the deepest path level that lists it accumulates *all* its
  /// per-level contributions — its served score is exactly the full
  /// model's score. (A query can still be truncated from a *deeper* node
  /// than the ones keeping it, in which case it serves with the deep
  /// contribution understated; the aggregate closure in KeptEntries pins
  /// the full model's own served lists to make that rare.) 0 = keep all.
  /// Serving top-N lists are preserved for N <= top_k on the bench corpora
  /// (tested; tab07_memory_footprint tracks the exact agreement rate in
  /// BENCH_memory.json).
  size_t top_k = 16;
};

/// Width-parameterized read-only views of the compact id pools. `QT` holds
/// query ids, `NT` node ids; the root index uses node id 0 (never a child)
/// as its absent sentinel.
template <typename QT, typename NT>
struct CompactPoolsView {
  std::span<const QT> next_query;
  std::span<const QT> edge_query;
  std::span<const NT> edge_child;
  /// Dense root fan-out index: query id -> depth-1 node, 0 if absent.
  std::span<const NT> root_child_by_query;

  uint64_t flat_bytes() const {
    return next_query.size_bytes() + edge_query.size_bytes() +
           edge_child.size_bytes() + root_child_by_query.size_bytes();
  }
};

/// The compact-layout serving algorithm, factored over *views* of the CSR
/// arrays so one implementation serves both storage variants:
///
///  - CompactSnapshot owns the arrays as vectors (built in memory from a
///    trained ModelSnapshot);
///  - MappedCompactSnapshot (core/snapshot_io.h) points the same spans at
///    a memory-mapped blob — a serving replica boots zero-copy.
///
/// Derived classes own the referenced storage and must keep it alive and
/// byte-stable for their whole lifetime; the mixture state (sigmas,
/// per-component escapes) is small and always owned here. The serving
/// arithmetic is identical through either storage, so a mapped replica is
/// bit-for-bit the snapshot it was written from.
class CompactServingBase : public ServingSnapshot {
 public:
  /// Mixture recommendation over the CSR tree; the same walk and Eq. 4/5
  /// ranking as ModelSnapshot::Recommend, off the quantized counts.
  Recommendation Recommend(std::span<const QueryId> context, size_t top_n,
                           SnapshotScratch* scratch) const override;

  bool Covers(std::span<const QueryId> context) const override;

  /// Longest-suffix matched depth of `context` — the descent without the
  /// ranking. Exposed so benches can split one request's cost into walk
  /// vs score+merge; it descends through this thread's serving scratch,
  /// so like Recommend it allocates nothing in steady state.
  size_t MatchedDepth(std::span<const QueryId> context) const;

  /// Pre-sizing hint for the dense-accumulator walk (see ServingSnapshot).
  ScratchSizing ScratchHint() const override;

  size_t num_nodes() const { return total_count_.size(); }
  uint64_t num_entries() const { return next_code_.size(); }
  uint64_t num_edges() const {
    return is_narrow_ ? narrow_view_.edge_query.size()
                      : wide_view_.edge_query.size();
  }
  const CompactOptions& options() const { return options_; }
  const std::vector<double>& sigmas() const { return sigmas_; }

 protected:
  CompactServingBase() = default;

  using NarrowPoolsView = CompactPoolsView<uint16_t, uint16_t>;
  using WidePoolsView = CompactPoolsView<uint32_t, uint32_t>;

  /// Binds the runtime-free walk layer's ModelRef over the views and
  /// computes its bind-time derivatives (escape power tables, the dense
  /// accumulator bound, the scratch sizing hint). Both storage variants
  /// (owned vectors and mapped blob) must call this once their views are
  /// final — all serving then goes through serving::RecommendTopN, the
  /// exact same code path the slim embedded predictor runs.
  void FinalizeDerived();

  /// Exact bytes of the referenced arrays plus the owned mixture state —
  /// the shared ModelStats::memory_bytes math of both storage variants.
  uint64_t ServingBytes() const;

  CompactOptions options_;

  // Mixture state (always owned; a handful of doubles per component).
  MixtureWeighting weighting_ = MixtureWeighting::kGaussianEditDistance;
  std::vector<double> sigmas_;
  std::vector<double> component_escape_;  // default_escape per component

  // Views of the node arrays (see the layout diagram on CompactSnapshot).
  std::span<const uint32_t> next_begin_;   // size num_nodes + 1
  std::span<const uint32_t> child_begin_;  // size num_nodes + 1
  std::span<const uint32_t> total_count_;
  std::span<const uint32_t> start_count_;
  std::span<const uint8_t> count_shift_;
  /// Exactly one of the two mask views is populated: the narrow one when
  /// every component bit fits 16 bits (the default 11-component model),
  /// the wide one otherwise.
  std::span<const uint16_t> mask16_;
  std::span<const Pst::ViewMask> mask64_;

  /// Exactly one of the two pool view sets is populated (see the layout
  /// note on adaptive id widths).
  NarrowPoolsView narrow_view_;
  WidePoolsView wide_view_;
  bool is_narrow_ = false;

  /// Quantized count codes, parallel to the active pools' next_query.
  std::span<const uint16_t> next_code_;

  // ----- bind-time derivatives (FinalizeDerived) -----

  /// The walk layer's raw-pointer view of this model: every Recommend /
  /// Covers / MatchedDepth call funnels through it, so the engine serves
  /// byte-for-byte the arithmetic the slim predictor serves.
  serving::ModelRef model_;
  /// Backing storage of model_.escape_pow (row-major
  /// k x (serving::kEscapePowCap + 1) power tables).
  std::vector<double> escape_pow_;
};

/// A serving-only MVMM variant re-packed for footprint: the shared
/// multi-view PST flattened into CSR-style struct-of-arrays storage (one
/// contiguous pool of next-query entries and one of child edges instead of
/// per-node std::vectors), each node's nexts truncated to the top-K
/// continuations, and 64-bit counts quantized to block-scaled 16-bit
/// fixed-point: each node stores a shift such that its largest count fits
/// 16 bits, entries store `count >> shift`. The quantized probability of an
/// entry is (code << shift) / total.
///
/// Per node the layout costs two CSR offsets, the count total, the escape
/// numerator, the block shift and the component-membership mask — no
/// contexts (the walk re-derives them), no vector headers:
///
///   node arrays (parallel, index = node id, 0 = root):
///     next_begin   u32    CSR offset into the nexts pool    \ 4 B
///     child_begin  u32    CSR offset into the edge pool     | 4 B
///     total_count  u32    Eq. 5 denominator                 | 4 B
///     start_count  u32    Eq. 6 escape numerator            | 4 B
///     count_shift  u8     entry dequantization block shift  | 1 B
///     view_mask    u16/u64  component membership bits       / 2-8 B
///   (19 B/node for the default 11-component model: the mask array is
///   16-bit wide whenever the model has at most 16 components)
///   nexts pool (top-K per node, count-descending; the root's prior is
///   not packed — serving never reads it):
///     next_query  u16/u32  +  next_code u16 (count >> shift) = 4-6 B / entry
///   edge pool (all children, query-ascending):
///     edge_query  u16/u32  +  edge_child u16/i32             = 4-8 B / edge
///   (id widths are adaptive: whenever every query id and node id fits 16
///   bits — true for corpora up to 65k distinct queries / tree nodes — the
///   pools and the dense root index store 16-bit ids)
///
/// versus ~96 B of Pst::Node header plus 16 B per entry in the full tree.
///
/// Equivalence: whenever every count of a node fits 16 bits (count_shift
/// 0 — always true on the bench corpora), dequantization is exact and the
/// serving arithmetic reproduces ModelSnapshot::Recommend bit-for-bit, so
/// rankings differ from the full model only where top-K truncation removed
/// a candidate. Larger corpora lose the shifted-out low bits: scores move
/// by at most 2^-16 relative per entry, and sub-resolution counts clamp to
/// one code step so observed continuations keep a positive probability.
///
/// It is built *from* a trained ModelSnapshot (same node ids, sigmas and
/// weighting) and publishes through the identical RecommenderEngine seam;
/// readers cannot tell which variant answered beyond the truncation.
/// Serving-only: ConditionalProb / MixtureWeights / retraining stay on the
/// full ModelSnapshot, which keeps exact counts.
///
/// The layout is also the unit of persistence: core/snapshot_io writes it
/// to a versioned memory-mappable blob and restores it either by copy
/// (back into this class) or zero-copy (MappedCompactSnapshot over the
/// mapped file).
class CompactSnapshot final : public CompactServingBase {
 public:
  /// Packs `full` into the compact layout. The result carries the same
  /// version tag and serves the same recommendations up to ancestor-closed
  /// top-K truncation and block-scaled 16-bit count rounding.
  static std::shared_ptr<const CompactSnapshot> FromSnapshot(
      const ModelSnapshot& full, const CompactOptions& options = {});

  /// Exact resident bytes of the flat arrays (Table VII scale, via
  /// core/memory_accounting.h).
  ModelStats Stats() const override;

 private:
  friend class SnapshotIo;  // (de)serializes the owned arrays verbatim

  CompactSnapshot() = default;

  /// Points the base-class serving views at the owned vectors. Must be
  /// called after every vector reached its final size/address (the views
  /// hold raw pointers into the vector storage).
  void BindViews();

  /// Width-parameterized owned id pools, mirroring CompactPoolsView.
  template <typename QT, typename NT>
  struct Pools {
    std::vector<QT> next_query;
    std::vector<QT> edge_query;
    std::vector<NT> edge_child;
    std::vector<NT> root_child_by_query;
  };
  using NarrowPools = Pools<uint16_t, uint16_t>;
  using WidePools = Pools<uint32_t, uint32_t>;

  // Owned storage behind the base-class views (same layout, same names
  // minus the own_ prefix).
  std::vector<uint32_t> own_next_begin_;
  std::vector<uint32_t> own_child_begin_;
  std::vector<uint32_t> own_total_count_;
  std::vector<uint32_t> own_start_count_;
  std::vector<uint8_t> own_count_shift_;
  std::vector<uint16_t> own_mask16_;
  std::vector<Pst::ViewMask> own_mask64_;
  NarrowPools narrow_;
  WidePools wide_;
  std::vector<uint16_t> own_next_code_;
};

}  // namespace sqp

#endif  // SQP_CORE_COMPACT_SNAPSHOT_H_
