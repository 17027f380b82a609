#ifndef SQP_CORE_COMPACT_SNAPSHOT_H_
#define SQP_CORE_COMPACT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/model_snapshot.h"
#include "core/serving_walk.h"
#include "util/status.h"

namespace sqp {

namespace internal {
/// The exact top-K of the full model at a tree node's own context, without
/// the full walk: ModelSnapshot::Recommend(nodes[node].context, k) pushes
/// every nexts entry of every path level and sorts them, which costs
/// ~25 us per call under a head node at 1M sessions. This runs the
/// threshold algorithm (Fagin, Lotem and Naor, "Optimal aggregation
/// algorithms for middleware", PODS 2001) over the path levels'
/// count-sorted nexts instead: round-robin sorted access, each new query
/// scored exactly by random access into every level, and a stop once the
/// K-th exact score is strictly greater than the threshold
/// sum_d scale_d * count_d[cursor_d] (summed in level order), which bounds
/// the score of every query not yet seen. Scores are summed in the level
/// order of MergeAndRank, so the list equals Recommend's in ids, order and
/// score bits. The truncating pack (KeptEntries) runs it once per node
/// under a truncated node.
///
/// Not thread-safe: one instance per thread; it borrows `full`.
class NodeTopK {
 public:
  /// Random access reads nodes with more than `scan_limit` nexts through a
  /// query -> index map built on first use, and scans the others.
  NodeTopK(const ModelSnapshot& full, size_t scan_limit);

  /// The ranked top-`k` (score desc, query asc) of
  /// full.Recommend(nodes[node].context, k).queries; `node` > 0.
  const std::vector<ScoredQuery>& TopK(size_t node, size_t k);

  /// Index of `query` in nodes[node].nexts, or -1 if the node lists none.
  int64_t IndexOf(size_t node, QueryId query);

 private:
  struct Level {
    size_t node;
    double scale;
    size_t cursor;
  };

  const ModelSnapshot& full_;
  const std::vector<Pst::Node>& nodes_;
  const size_t scan_limit_;
  /// Per node, (query, index) sorted by query; empty until first used.
  std::vector<std::vector<std::pair<QueryId, uint32_t>>> index_;
  /// seen_[query] == epoch_ iff TopK already scored `query` this call.
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
  SnapshotScratch scratch_;
  std::vector<Level> levels_;
  std::vector<ScoredQuery> top_;
};
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
  /// Packing costs one exact top-K (internal::NodeTopK) per node with a
  /// node of more than top_k nexts on its parent chain, and none when no
  /// node has.
  /// Serving top-N lists are preserved for N <= top_k on the bench corpora
  /// (tested; tab07_memory_footprint tracks the exact agreement rate in
  /// BENCH_memory.json).
  size_t top_k = 16;
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
///   next_query holds blob-local ids 0..L-1, numbered in ascending global
///   order over the L distinct queries the pool names, and a table maps
///   them back:
///     next_global u16/u32  local id -> global id               2-4 B / id
///   (the dense accumulator therefore has L slots, whatever ids the blob
///   names, and ranking by local id is ranking by global id)
///   edge pool (non-root children, query-ascending, each child id larger
///   than its node; the root's children are only in the root index):
///     edge_query  u16/u32  +  edge_child u16/i32             = 4-8 B / edge
///   root index (dense over the root's child queries, 0 = absent)
///   (id widths are adaptive: whenever every query id and node id fits 16
///   bits — true for corpora up to 65k distinct queries / tree nodes — the
///   pools, the table and the root index store 16-bit ids)
///
/// versus ~96 B of Pst::Node header plus 16 B per entry in the full tree.
///
/// Storage: a CompactSnapshot IS its v2 blob (core/blob_format.h) — the
/// arrays above are sections of one byte buffer, served in place through
/// the serving::ModelRef that serving::BindBlob points at them, the same
/// bind the slim embedded predictor runs. The bytes are either owned (a
/// FromSnapshot pack, or a SnapshotIo::Load copy) or a read-only file
/// mapping (SnapshotIo::Map), released when the snapshot dies. Persisting
/// is writing blob_bytes() out; there is no second in-memory form.
///
/// Equivalence: whenever every count of a node fits 16 bits (count_shift
/// 0 — always true on the bench corpora), dequantization is exact and the
/// serving arithmetic reproduces ModelSnapshot::Recommend bit-for-bit, so
/// rankings differ from the full model only where top-K truncation removed
/// a candidate. Larger corpora lose the shifted-out low bits: scores move
/// by at most 2^-16 relative per entry, and sub-resolution counts clamp to
/// one code step so observed continuations keep a positive probability.
/// The backing never changes an answer: owned, loaded and mapped copies of
/// one blob serve bit-identically.
///
/// It is built *from* a trained ModelSnapshot (same node ids, sigmas and
/// weighting) and is the one model engines serve: RecommenderEngine,
/// ShardedEngine and the retrainer's publish all hold
/// shared_ptr<const CompactSnapshot>. Serving-only: ConditionalProb /
/// MixtureWeights / retraining stay on the full ModelSnapshot, which keeps
/// exact counts and is the reference this walk is tested against.
///
/// Thread-safety: a snapshot is deeply immutable; any number of threads may
/// call the const methods concurrently with one SnapshotScratch per thread.
class CompactSnapshot {
 public:
  /// Packs `full` into the compact layout and writes it as v2 blob bytes
  /// (the exact bytes SnapshotIo::Save persists). The result carries the
  /// same version tag and serves the same recommendations up to
  /// ancestor-closed top-K truncation and block-scaled 16-bit count
  /// rounding.
  static std::shared_ptr<const CompactSnapshot> FromSnapshot(
      const ModelSnapshot& full, const CompactOptions& options = {});

  /// Serves the v2 blob of `size` bytes at `bytes` in place, after
  /// serving::BindBlob parsed and validated it, every section CRC
  /// included. `bytes` must be 8-byte aligned and stay
  /// unchanged; the snapshot holds it, so its deleter (freeing a heap
  /// buffer or unmapping a file) runs when the snapshot dies. `mapped`
  /// only names the backing in Stats(). Any malformed blob is
  /// InvalidArgument.
  static Result<std::shared_ptr<const CompactSnapshot>> FromBlob(
      std::shared_ptr<const uint8_t> bytes, size_t size, bool mapped);

  /// Mixture recommendation over the CSR tree; the same walk and Eq. 4/5
  /// ranking as ModelSnapshot::Recommend, off the quantized counts.
  Recommendation Recommend(std::span<const QueryId> context, size_t top_n,
                           SnapshotScratch* scratch) const;

  /// True iff at least one component matches a non-root state.
  bool Covers(std::span<const QueryId> context) const;

  /// Longest-suffix matched depth of `context` — the descent without the
  /// ranking. Exposed so benches can split one request's cost into walk
  /// vs score+merge; it descends through this thread's serving scratch,
  /// so like Recommend it allocates nothing in steady state.
  size_t MatchedDepth(std::span<const QueryId> context) const;

  /// Scratch capacities one request against this blob can need, so an
  /// engine pre-sizes its per-lane scratches once per published generation
  /// (SnapshotScratch::Prepare). Purely a sizing hint.
  ScratchSizing ScratchHint() const;

  /// Table VII accounting: exact bytes of the served arrays plus sigmas
  /// and escapes (every blob section but META; header, section table and
  /// alignment padding excluded), identical for every backing.
  ModelStats Stats() const;

  /// The corpus/dictionary generation this blob reflects (the packed
  /// ModelSnapshot's version, stored in the blob). Carried, never
  /// interpreted.
  uint64_t version() const { return version_; }

  size_t num_nodes() const { return model_.num_nodes; }
  uint64_t num_entries() const { return model_.num_entries; }
  uint64_t num_edges() const { return model_.num_edges; }
  /// The per-node entry cap the blob was packed with (0 = keep all).
  uint64_t top_k() const { return top_k_; }
  std::vector<double> sigmas() const {
    return {model_.sigmas, model_.sigmas + model_.num_components};
  }
  /// The whole v2 blob (header, section table, padding and sections).
  std::span<const uint8_t> blob_bytes() const { return {bytes_.get(), size_}; }

 private:
  CompactSnapshot() = default;

  std::shared_ptr<const uint8_t> bytes_;
  size_t size_ = 0;
  bool mapped_ = false;
  uint64_t version_ = 0;
  uint64_t top_k_ = 0;
  uint64_t memory_bytes_ = 0;
  /// The walk layer's raw-pointer view of the blob: every Recommend /
  /// Covers / MatchedDepth call funnels through it, so the engine serves
  /// byte-for-byte the arithmetic the slim predictor serves.
  serving::ModelRef model_;
  /// Backing storage of model_.escape_pow (row-major
  /// k x (serving::kEscapePowCap + 1) power tables).
  std::vector<double> escape_pow_;
};

// Former type names, kept so the benchmark sources stay unchanged between
// the revisions a benchmark run compares:
// perfbench/src/common.cc dynamic-casts to CompactServingBase.
using CompactServingBase = CompactSnapshot;
// perfbench/src/common.h and closed_loop.cc hold snapshots as ServingSnapshot.
using ServingSnapshot = CompactSnapshot;

}  // namespace sqp

#endif  // SQP_CORE_COMPACT_SNAPSHOT_H_
