#ifndef SQP_CORE_PST_H_
#define SQP_CORE_PST_H_

#include <span>
#include <vector>

#include "log/context_builder.h"
#include "log/types.h"
#include "util/status.h"

namespace sqp {

/// Parameters of PST construction (paper Section IV-B.1). Only `epsilon` is
/// tuned in the paper; the rest mirror its fixed conventions.
struct PstOptions {
  /// KL-divergence growth threshold: a context s (|s| >= 2) becomes a state
  /// iff D_KL( P(.|parent(s)) || P(.|s) ) >= epsilon in log base 10, where
  /// parent(s) drops the oldest query. epsilon -> +inf degenerates to an
  /// order-1 (Adjacency-like) model; epsilon = 0 keeps every observed
  /// context (paper Fig. 4).
  double epsilon = 0.05;

  /// Maximum context length D (0 = unbounded). A D-bounded PST never stores
  /// contexts longer than D.
  size_t max_depth = 0;

  /// Candidate contexts with fewer weighted occurrences than this are
  /// filtered before the KL test (paper stage (a), "a user threshold could
  /// be set to filter those infrequent training sequences").
  uint64_t min_support = 1;
};

/// A Prediction Suffix Tree over query sequences.
///
/// Nodes are contexts (oldest query first). The parent of node s is its
/// longest proper suffix (s minus its oldest query); the tree therefore
/// deepens *backwards in time*, and matching a test context walks from the
/// most recent query toward older ones. The suffix-closure invariant holds:
/// if s is a node, every suffix of s is a node.
///
/// Node ids are breadth-first: the root is 0, its children are 1..R in
/// ascending query order, then come each node's children in node order,
/// query-ascending. So parents precede children and siblings take
/// consecutive ids, which lets the compact blob compute a child's id from
/// its edge's index instead of storing it.
///
/// A Pst can also be built as a *shared* tree covering several component
/// configurations at once (Pst::BuildShared): one maximal node pool plus a
/// per-node bitmask recording which components ("views") would have built
/// that node — the paper's merged-PST deployment (Section V-F.2).
class Pst {
 public:
  /// One child edge. A node's `children` vector is sorted by `query`
  /// ascending, enabling branch-friendly linear/binary search instead of
  /// per-node hash buckets.
  struct Edge {
    QueryId query = kInvalidQueryId;
    int32_t child = 0;
  };

  struct Node {
    std::vector<QueryId> context;       // empty for the root
    std::vector<NextQueryCount> nexts;  // sorted desc by count
    uint64_t total_count = 0;           // sum of nexts counts
    uint64_t start_count = 0;           // occurrences at session start
    int32_t parent = -1;                // node index; -1 for root
    std::vector<Edge> children;         // sorted by query ascending
  };

  /// Bitmask of the component views a node belongs to (shared trees only).
  using ViewMask = uint64_t;
  static constexpr size_t kMaxViews = 64;

  Pst() = default;

  /// Builds the tree from a kSubstring ContextIndex. The index must have
  /// been built with max_context_length == 0 or >= options.max_depth.
  /// Returns InvalidArgument on mode/depth mismatch.
  Status Build(const ContextIndex& index, const PstOptions& options);

  /// Builds one maximal tree covering every configuration in `views` (the
  /// union of the per-view depth/support bounds) and tags each node with the
  /// set of views whose standalone Build would have produced it. The KL
  /// growth statistic is computed once per node instead of once per
  /// (view, node), and nodes belonging to no view are dropped. At most
  /// kMaxViews views.
  Status BuildShared(const ContextIndex& index,
                     std::span<const PstOptions> views);

  /// Walks the longest suffix of `context` present in the tree. Returns the
  /// matched node (possibly the root) and sets `*matched_length` to the
  /// number of trailing context queries matched.
  const Node* MatchLongestSuffix(std::span<const QueryId> context,
                                 size_t* matched_length) const;

  /// View-restricted walk over a shared tree: only descends into nodes
  /// whose mask contains `view`. Because view membership is closed under
  /// the parent (suffix) relation, this is equivalent to matching against
  /// the view's standalone tree. Serving reads the masks off one MatchPath
  /// instead (ModelSnapshot::SharedMatchDepths); this walk and the view_*
  /// accounting below are the reference the shared-view property tests
  /// check the shared build against.
  const Node* MatchLongestSuffixView(std::span<const QueryId> context,
                                     size_t view,
                                     size_t* matched_length) const;

  /// Longest-suffix walk recording the whole matched chain: (*path)[k] is
  /// the node matching the trailing k+1 context queries. Returns the match
  /// depth (== path->size()). The root is not included.
  size_t MatchPath(std::span<const QueryId> context,
                   std::vector<int32_t>* path) const;

  /// Exact node lookup by context; nullptr if not a state.
  const Node* FindNode(std::span<const QueryId> context) const;

  /// Child of `node` along `query`, or -1.
  int32_t FindChild(int32_t node, QueryId query) const;

  const Node& root() const { return nodes_[0]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  const PstOptions& options() const { return options_; }

  // ----- shared-tree (multi-view) accessors -----

  bool is_shared() const { return !view_masks_.empty(); }
  size_t num_views() const { return view_options_.size(); }
  const PstOptions& view_options(size_t view) const {
    return view_options_[view];
  }
  /// Per-node view masks, parallel to nodes(); empty for standalone trees.
  const std::vector<ViewMask>& view_masks() const { return view_masks_; }
  /// Mask of one node; all-ones for standalone trees.
  ViewMask mask_of(int32_t node) const {
    return view_masks_.empty() ? ~ViewMask{0}
                               : view_masks_[static_cast<size_t>(node)];
  }

  /// State / entry counts of one view (including the shared root).
  uint64_t view_num_states(size_t view) const;
  uint64_t view_num_entries(size_t view) const;
  /// Bytes the view would occupy as a standalone tree (Table VII
  /// accounting over the flat layout).
  uint64_t view_memory_bytes(size_t view) const;

  /// Materializes one view as a standalone tree (the reference the shared
  /// build is checked against: a view must equal its standalone Build).
  Pst ExtractView(size_t view) const;

  /// Sum of (state, next) entries across nodes.
  uint64_t num_entries() const;

  /// Actual resident bytes of the flat layout: node headers, context ids,
  /// next-count entries, child edge arrays, and (for shared trees) the
  /// per-node view masks.
  uint64_t memory_bytes() const;

 private:
  Status BuildImpl(const ContextIndex& index,
                   std::span<const PstOptions> views, bool shared);
  void RebuildChildren();
  void BuildRootIndex();

  std::vector<Node> nodes_;
  PstOptions options_;
  std::vector<ViewMask> view_masks_;     // parallel to nodes_; shared only
  std::vector<PstOptions> view_options_;  // shared only
  /// Dense root fan-out index: query id -> depth-1 node (-1 if absent).
  /// The root has vocabulary-scale fan-out, so the first walk step uses a
  /// direct lookup instead of a binary search. Query ids are dense
  /// dictionary-interned values, so the table stays small.
  std::vector<int32_t> root_child_by_query_;
};

/// KL divergence between the next-query distributions of a parent and child
/// context, D_KL(parent || child), in log base 10 — the PST growth statistic
/// (validated against the paper's worked example: D_KL(q0 || q1q0) = 0.3449,
/// D_KL(q1 || q0q1) = 0.0837).
double PstGrowthKl(const ContextEntry& parent, const ContextEntry& child);

/// Same statistic over raw count arrays (any order): a merge walk over
/// query-sorted copies held in reusable scratch buffers — no temporary hash
/// maps on the tree-growth hot path.
double PstGrowthKlCounts(std::span<const NextQueryCount> parent,
                         std::span<const NextQueryCount> child);

}  // namespace sqp

#endif  // SQP_CORE_PST_H_
