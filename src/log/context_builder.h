#ifndef SQP_LOG_CONTEXT_BUILDER_H_
#define SQP_LOG_CONTEXT_BUILDER_H_

#include <span>
#include <unordered_set>
#include <vector>

#include "log/types.h"
#include "util/flat_hash.h"

namespace sqp {

/// An index of (context -> next-query counts), built from aggregated
/// sessions. Two construction modes:
///
///  * kPrefix: a context occurrence is a *session prefix* [q1..qk] followed
///    by q_{k+1} (paper Section V-A.5, "aggregating training contexts").
///    This is what the variable-length N-gram trains on and what test-side
///    ground truth is built from.
///
///  * kSubstring: a context occurrence is any *contiguous* subsequence
///    followed by a query (the counting used in the paper's PST example,
///    Table II / Fig. 3, where e.g. P(q0|q0) pools every position at which
///    q0 precedes another query). This is what Adjacency (length-1) and the
///    PST/VMM family train on.
///
/// Every occurrence is weighted by the aggregated session frequency.
///
/// Storage is an arena-backed suffix trie keyed most-recent-query-first: one
/// contiguous node pool, contexts identified by node index, counts
/// accumulated in a single pass over sessions through flat (node, query)
/// hash tables — no per-substring key vectors or per-substring allocations.
/// The trie's one child map is the counting table (parent node, query) ->
/// child; nodes keep only their parent link. Because the trie reads
/// contexts newest-first, a node's trie parent is its context minus the
/// *oldest* query, which is exactly the PST parent relation; Pst
/// construction follows these parent links and never a child list.
class ContextIndex {
 public:
  enum class Mode { kPrefix, kSubstring };

  ContextIndex() = default;

  /// Builds the index. `max_context_length` bounds the indexed context
  /// length (0 = unbounded). Existing contents are discarded. The fourth
  /// parameter is unread; kept for perfbench.
  void Build(const std::vector<AggregatedSession>& sessions, Mode mode,
             size_t max_context_length = 0, size_t num_workers = 1);

  /// Extends an already-built index with additional sessions, preserving the
  /// construction mode and depth bound. Counting touches only the appended
  /// sessions (the persistent count tables absorb them); the entry list is
  /// then re-finalized. Equivalent to a from-scratch Build over the
  /// concatenation of every session batch seen so far. Requires a prior
  /// Build.
  void Append(const std::vector<AggregatedSession>& sessions);

  /// Returns the entry for `context`, or nullptr if the context is unseen or
  /// its trie node carries no entry (a kPrefix interior node). Walks the
  /// counting child map newest query first; no key materialization.
  const ContextEntry* Lookup(std::span<const QueryId> context) const;

  /// All entries in deterministic order (by context length, then
  /// lexicographic context). The order is precomputed at Build time.
  std::vector<const ContextEntry*> SortedEntries() const;

  size_t size() const { return entries_.size(); }
  Mode mode() const { return mode_; }
  size_t max_context_length() const { return max_context_length_; }

  /// True iff this index can seed a substring-counted model needing
  /// contexts up to `need_depth` (0 = unbounded): substring mode and at
  /// least as deep. The single definition of "compatible shared index"
  /// used by VMM and MVMM training.
  bool CoversSubstringDepth(size_t need_depth) const {
    return mode_ == Mode::kSubstring &&
           (max_context_length_ == 0 ||
            (need_depth > 0 && max_context_length_ >= need_depth));
  }

  /// Total weighted context occurrences (sum over entries of total_count).
  uint64_t total_occurrences() const { return total_occurrences_; }

  // ----- Arena-trie accessors (allocation-free hot path for PST builds) ---

  /// Number of trie nodes including the synthetic root (node 0, empty
  /// context). Some nodes carry no entry (kPrefix interior nodes).
  size_t num_trie_nodes() const { return trie_.size(); }

  /// Trie parent of `node` (-1 for the root): the node's context minus its
  /// oldest query.
  int32_t trie_parent(int32_t node) const {
    return trie_[static_cast<size_t>(node)].parent;
  }

  /// Context length of the node (0 for the root).
  uint32_t trie_depth(int32_t node) const {
    return trie_[static_cast<size_t>(node)].depth;
  }

  /// Entry stored at a trie node; nullptr for the root and for auxiliary
  /// nodes that never accumulated counts.
  const ContextEntry* entry_at(int32_t node) const {
    const int32_t e = trie_[static_cast<size_t>(node)].entry;
    return e < 0 ? nullptr : &entries_[static_cast<size_t>(e)];
  }

  /// Entry `i` in the (length, lexicographic) sorted order, and the trie
  /// node it lives at. `i` < size().
  const ContextEntry& sorted_entry(size_t i) const { return entries_[i]; }
  int32_t sorted_entry_node(size_t i) const { return entry_nodes_[i]; }

 private:
  struct TrieNode {
    int32_t parent = -1;
    QueryId edge = kInvalidQueryId;  // label on the edge from the parent
    uint32_t depth = 0;
    int32_t entry = -1;       // index into entries_, -1 if none
    uint64_t start_count = 0;  // weighted occurrences at session start
  };

  /// Walks (creating on demand) the child of `from` along `q`, mirrored in
  /// the persistent (parent, query) -> child table.
  int32_t Descend(int32_t from, QueryId q);

  /// The one counting pass: counts `sessions` into the main trie and the
  /// persistent tables.
  void CountSessions(const std::vector<AggregatedSession>& sessions);

  /// Rebuilds entries_/entry_nodes_/total_occurrences_ from the main trie
  /// and the persistent count table. Idempotent; called after every
  /// counting pass (Build and Append).
  void Finalize();

  std::vector<TrieNode> trie_;
  std::vector<ContextEntry> entries_;  // sorted by (length, lex context)
  std::vector<int32_t> entry_nodes_;   // entries_[i] lives at this trie node
  /// Persistent counting state, kept alive so Append can extend the index
  /// without re-counting old sessions.
  FlatU64Map children_;  // (parent node, edge query) -> child node id;
                         // the trie's only child map
  FlatU64Map counts_;    // (node, next query) -> weighted count
  Mode mode_ = Mode::kPrefix;
  size_t max_context_length_ = 0;
  uint64_t total_occurrences_ = 0;
  bool built_ = false;
};

/// Ground truth for one test context: the queries observed to follow it in
/// the test period, ranked by frequency. ratings[j] = n - j for the j-th
/// ranked query (5,4,3,2,1 for n=5), per the paper's NDCG setup.
struct GroundTruthEntry {
  std::vector<QueryId> context;
  std::vector<QueryId> ranked_next;  // size <= n
  uint64_t support = 0;              // weighted occurrences of the context
};

/// Builds test-side ground truth from test aggregated sessions: for every
/// prefix context, the top `n` next queries by frequency (paper
/// Section V-A.6). Deterministic ordering as in ContextIndex.
std::vector<GroundTruthEntry> BuildGroundTruth(
    const std::vector<AggregatedSession>& test_sessions, size_t n,
    size_t max_context_length = 0);

/// Per-query structural roles in the training corpus, used to classify
/// unpredictable test queries (paper Table VI).
struct QueryRoles {
  std::unordered_set<QueryId> seen;              // appears anywhere
  std::unordered_set<QueryId> in_multi_session;  // in a session of length >= 2
  std::unordered_set<QueryId> at_non_last;       // at a non-final position
};

QueryRoles ComputeQueryRoles(const std::vector<AggregatedSession>& sessions);

}  // namespace sqp

#endif  // SQP_LOG_CONTEXT_BUILDER_H_
