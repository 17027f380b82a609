#include "core/pst.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/memory_accounting.h"
#include "util/math_util.h"

namespace sqp {
namespace {

/// Finds the position of `query` in a node's query-sorted child edges, or
/// -1. Short lists (most nodes below the root) use a branch-friendly linear
/// scan that stops at the first larger query; longer ones binary search.
int32_t FindEdgeIndex(std::span<const Pst::Edge> edges, QueryId query) {
  if (edges.size() <= 8) {
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].query == query) return static_cast<int32_t>(i);
      if (edges[i].query > query) break;
    }
    return -1;
  }
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), query,
      [](const Pst::Edge& edge, QueryId q) { return edge.query < q; });
  if (it != edges.end() && it->query == query) {
    return static_cast<int32_t>(it - edges.begin());
  }
  return -1;
}

void SortNexts(std::vector<NextQueryCount>* nexts) {
  std::sort(nexts->begin(), nexts->end(),
            [](const NextQueryCount& a, const NextQueryCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.query < b.query;
            });
}

bool ByQuery(const NextQueryCount& a, const NextQueryCount& b) {
  return a.query < b.query;
}

double KlFromSortedParent(std::span<const NextQueryCount> sorted_parent,
                          std::span<const NextQueryCount> child) {
  // Query-sorted child copy in reusable scratch, then a single merge walk.
  // The old implementation built an unordered_map plus two vectors per
  // call — one allocation-heavy pass per candidate context during tree
  // growth. The parent side arrives pre-sorted (it is reused across all of
  // a node's children during shared builds).
  thread_local std::vector<NextQueryCount> q_sorted;
  q_sorted.assign(child.begin(), child.end());
  std::sort(q_sorted.begin(), q_sorted.end(), ByQuery);

  double p_total = 0.0;
  for (const NextQueryCount& nc : sorted_parent) {
    p_total += static_cast<double>(nc.count);
  }
  double q_total = 0.0;
  for (const NextQueryCount& nc : q_sorted) {
    q_total += static_cast<double>(nc.count);
  }
  if (p_total <= 0.0 || q_total <= 0.0) return 0.0;

  // Mirrors KlDivergenceLog10: p-side zeros contribute nothing, q-side
  // zeros are floored. Child-only support never contributes (p_i = 0).
  constexpr double kEpsilonFloor = 1e-12;
  double kl = 0.0;
  size_t j = 0;
  for (const NextQueryCount& pc : sorted_parent) {
    while (j < q_sorted.size() && q_sorted[j].query < pc.query) ++j;
    const double pi = static_cast<double>(pc.count) / p_total;
    double qi = (j < q_sorted.size() && q_sorted[j].query == pc.query)
                    ? static_cast<double>(q_sorted[j].count) / q_total
                    : 0.0;
    if (qi < kEpsilonFloor) qi = kEpsilonFloor;
    kl += pi * std::log10(pi / qi);
  }
  return kl;
}

}  // namespace

double PstGrowthKlCounts(std::span<const NextQueryCount> parent,
                         std::span<const NextQueryCount> child) {
  thread_local std::vector<NextQueryCount> p_sorted;
  p_sorted.assign(parent.begin(), parent.end());
  std::sort(p_sorted.begin(), p_sorted.end(), ByQuery);
  return KlFromSortedParent(p_sorted, child);
}

double PstGrowthKl(const ContextEntry& parent, const ContextEntry& child) {
  return PstGrowthKlCounts(parent.nexts, child.nexts);
}

Status Pst::Build(const ContextIndex& index, const PstOptions& options) {
  SQP_RETURN_IF_ERROR(BuildImpl(index, std::span<const PstOptions>(&options, 1),
                                /*shared=*/false));
  // A standalone tree exposes no views: num_views() == 0, is_shared()
  // false.
  view_options_.clear();
  options_ = options;
  return Status::OK();
}

Status Pst::BuildShared(const ContextIndex& index,
                        std::span<const PstOptions> views) {
  if (views.empty()) {
    return Status::InvalidArgument("BuildShared needs at least one view");
  }
  if (views.size() > kMaxViews) {
    return Status::InvalidArgument("BuildShared supports at most 64 views");
  }
  return BuildImpl(index, views, /*shared=*/true);
}

Status Pst::BuildImpl(const ContextIndex& index,
                      std::span<const PstOptions> views, bool shared) {
  if (index.mode() != ContextIndex::Mode::kSubstring) {
    return Status::InvalidArgument(
        "Pst::Build requires a kSubstring ContextIndex");
  }
  size_t max_view_depth = 0;
  bool any_unbounded = false;
  uint64_t min_view_support = ~uint64_t{0};
  bool any_kl_needed = false;
  for (const PstOptions& view : views) {
    if (view.max_depth != 0 && index.max_context_length() != 0 &&
        index.max_context_length() < view.max_depth) {
      return Status::InvalidArgument(
          "ContextIndex is shallower than the requested PST depth");
    }
    if (view.epsilon < 0.0) {
      return Status::InvalidArgument("epsilon must be >= 0");
    }
    if (view.max_depth == 0) any_unbounded = true;
    max_view_depth = std::max(max_view_depth, view.max_depth);
    min_view_support = std::min(min_view_support, view.min_support);
    if (view.epsilon > 0.0) any_kl_needed = true;
  }
  const size_t shared_depth = any_unbounded ? 0 : max_view_depth;

  nodes_.clear();
  view_masks_.clear();
  view_options_.assign(views.begin(), views.end());
  if (shared) {
    // The maximal tree's own options: the loosest bound on every axis.
    options_ = PstOptions{.epsilon = 0.0,
                          .max_depth = shared_depth,
                          .min_support = min_view_support};
  }

  // Root node: the prior over next queries, pooled across all positions
  // (paper Fig. 3: "the conditional probabilities given the empty sequence e
  // is based on the priori probability of each query").
  nodes_.emplace_back();
  {
    std::unordered_map<QueryId, uint64_t> prior;
    for (size_t i = 0; i < index.size(); ++i) {
      const ContextEntry& entry = index.sorted_entry(i);
      if (entry.context.size() != 1) {
        if (entry.context.size() > 1) break;  // entries sorted by length
        continue;
      }
      // Occurrences of the query at session start (position 0)...
      prior[entry.context[0]] += entry.start_count;
      // ...plus occurrences at any later position (as someone's next query).
      for (const NextQueryCount& nc : entry.nexts) {
        prior[nc.query] += nc.count;
      }
    }
    Node& root = nodes_[0];
    root.nexts.reserve(prior.size());
    for (const auto& [query, count] : prior) {
      root.nexts.push_back(NextQueryCount{query, count});
      root.total_count += count;
    }
    SortNexts(&root.nexts);
  }

  // Maximal candidate pass, walking the index's arena trie instead of
  // re-hashing context vectors: the trie parent of a context is its PST
  // parent, so both the parent entry (for the KL statistic) and the parent
  // node id come straight from the arena. Entries arrive in (length, lex)
  // order, so candidate ids put parents before their children; the kept
  // nodes are renumbered breadth-first at the end.
  std::vector<int32_t> node_of_trie(index.num_trie_nodes(), -1);
  node_of_trie[0] = 0;
  std::vector<double> growth_kl(1, 0.0);  // parallel to nodes_
  // Query-sorted parent distributions, cached per parent node: a parent's
  // nexts are re-read once per child during the KL sweep, so the sort
  // happens once per node instead of once per edge.
  std::vector<std::vector<NextQueryCount>> sorted_parent_cache;
  for (size_t i = 0; i < index.size(); ++i) {
    const ContextEntry& entry = index.sorted_entry(i);
    const size_t len = entry.context.size();
    if (shared_depth != 0 && len > shared_depth) break;  // sorted by length
    if (entry.total_count < min_view_support) continue;
    const int32_t trie_node = index.sorted_entry_node(i);
    const int32_t parent_pst = node_of_trie[static_cast<size_t>(
        index.trie_parent(trie_node))];
    SQP_CHECK(parent_pst >= 0);  // suffix closure of substring counting

    double kl = 0.0;
    if (len >= 2 && any_kl_needed) {
      const ContextEntry* parent_entry =
          index.entry_at(index.trie_parent(trie_node));
      SQP_CHECK(parent_entry != nullptr);
      sorted_parent_cache.resize(nodes_.size());
      std::vector<NextQueryCount>& sorted_parent =
          sorted_parent_cache[static_cast<size_t>(parent_pst)];
      if (sorted_parent.empty()) {
        sorted_parent.assign(parent_entry->nexts.begin(),
                             parent_entry->nexts.end());
        std::sort(sorted_parent.begin(), sorted_parent.end(), ByQuery);
      }
      kl = KlFromSortedParent(sorted_parent, entry.nexts);
    }

    Node node;
    node.context = entry.context;
    node.nexts = entry.nexts;
    node.total_count = entry.total_count;
    node.start_count = entry.start_count;
    node.parent = parent_pst;
    node_of_trie[static_cast<size_t>(trie_node)] =
        static_cast<int32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
    growth_kl.push_back(kl);
  }

  // Per-view acceptance. A node is an *exact* state of a view if it passes
  // the view's depth/support bounds and (for |s| >= 2) the KL growth test;
  // suffix closure then propagates membership to every ancestor: ancestors
  // are shorter and have at least the child's support, so the closure
  // fill-ins always satisfy the view's bounds, exactly as in a standalone
  // build.
  std::vector<ViewMask> masks(nodes_.size(), 0);
  masks[0] = views.size() >= kMaxViews ? ~ViewMask{0}
                                       : ((ViewMask{1} << views.size()) - 1);
  for (size_t id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    const size_t len = node.context.size();
    for (size_t v = 0; v < views.size(); ++v) {
      const PstOptions& view = views[v];
      if (view.max_depth != 0 && len > view.max_depth) continue;
      if (node.total_count < view.min_support) continue;
      // ">=" so that epsilon = 0 keeps every observed context (the paper's
      // Fig. 4 "infinitely bounded VMM"), including fully redundant nodes
      // whose KL is exactly zero.
      if (len >= 2 && view.epsilon > 0.0 && growth_kl[id] < view.epsilon) {
        continue;
      }
      masks[id] |= ViewMask{1} << v;
    }
  }
  for (size_t id = nodes_.size(); id-- > 1;) {
    if (masks[id] != 0) {
      masks[static_cast<size_t>(nodes_[id].parent)] |= masks[id];
    }
  }

  // Renumber breadth-first and drop the nodes no view accepted: the root,
  // its children in ascending query order, then each node's children in
  // node order, query-ascending. Membership is ancestor-closed, so the
  // sweep from the root reaches every accepted node, and parents keep
  // preceding their children.
  RebuildChildren();
  std::vector<int32_t> order{0};  // order[k] = candidate id of node k
  for (size_t k = 0; k < order.size(); ++k) {
    for (const Edge& edge : nodes_[static_cast<size_t>(order[k])].children) {
      if (masks[static_cast<size_t>(edge.child)] != 0) {
        order.push_back(edge.child);
      }
    }
  }
  std::vector<int32_t> renumbered(nodes_.size(), -1);
  std::vector<Node> kept(order.size());
  std::vector<ViewMask> kept_masks(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t id = static_cast<size_t>(order[k]);
    renumbered[id] = static_cast<int32_t>(k);
    kept[k] = std::move(nodes_[id]);
    if (kept[k].parent >= 0) {
      kept[k].parent = renumbered[static_cast<size_t>(kept[k].parent)];
    }
    kept_masks[k] = masks[id];
  }
  nodes_ = std::move(kept);
  RebuildChildren();
  if (shared) view_masks_ = std::move(kept_masks);
  return Status::OK();
}

void Pst::RebuildChildren() {
  for (Node& node : nodes_) node.children.clear();
  // Siblings appear in ascending query order in every node order this runs
  // over — the build's (length, lex) candidates and the breadth-first ids —
  // so each parent receives its edges sorted by query.
  for (size_t i = 1; i < nodes_.size(); ++i) {
    nodes_[static_cast<size_t>(nodes_[i].parent)].children.push_back(
        Edge{nodes_[i].context.front(), static_cast<int32_t>(i)});
  }
  BuildRootIndex();
}

void Pst::BuildRootIndex() {
  root_child_by_query_.clear();
  const std::vector<Edge>& children = nodes_[0].children;
  if (children.empty()) return;
  root_child_by_query_.assign(children.back().query + 1, -1);
  for (const Edge& edge : children) {
    root_child_by_query_[edge.query] = edge.child;
  }
}

int32_t Pst::FindChild(int32_t node, QueryId query) const {
  if (node == 0) {
    return query < root_child_by_query_.size()
               ? root_child_by_query_[query]
               : -1;
  }
  const std::vector<Edge>& children =
      nodes_[static_cast<size_t>(node)].children;
  const int32_t at = FindEdgeIndex(children, query);
  return at < 0 ? -1 : children[static_cast<size_t>(at)].child;
}

const Pst::Node* Pst::MatchLongestSuffix(std::span<const QueryId> context,
                                         size_t* matched_length) const {
  SQP_CHECK(!nodes_.empty());
  int32_t cur = 0;
  size_t matched = 0;
  for (size_t back = 0; back < context.size(); ++back) {
    const int32_t child = FindChild(cur, context[context.size() - 1 - back]);
    if (child < 0) break;
    cur = child;
    ++matched;
  }
  if (matched_length != nullptr) *matched_length = matched;
  return &nodes_[static_cast<size_t>(cur)];
}

const Pst::Node* Pst::MatchLongestSuffixView(std::span<const QueryId> context,
                                             size_t view,
                                             size_t* matched_length) const {
  SQP_CHECK(!nodes_.empty());
  const ViewMask bit = ViewMask{1} << view;
  int32_t cur = 0;
  size_t matched = 0;
  for (size_t back = 0; back < context.size(); ++back) {
    const int32_t child = FindChild(cur, context[context.size() - 1 - back]);
    if (child < 0 || (mask_of(child) & bit) == 0) break;
    cur = child;
    ++matched;
  }
  if (matched_length != nullptr) *matched_length = matched;
  return &nodes_[static_cast<size_t>(cur)];
}

size_t Pst::MatchPath(std::span<const QueryId> context,
                      std::vector<int32_t>* path) const {
  SQP_CHECK(!nodes_.empty());
  path->clear();
  int32_t cur = 0;
  for (size_t back = 0; back < context.size(); ++back) {
    const int32_t child = FindChild(cur, context[context.size() - 1 - back]);
    if (child < 0) break;
    cur = child;
    path->push_back(cur);
  }
  return path->size();
}

const Pst::Node* Pst::FindNode(std::span<const QueryId> context) const {
  size_t matched = 0;
  const Node* node = MatchLongestSuffix(context, &matched);
  if (matched != context.size()) return nullptr;
  return node;
}

uint64_t Pst::num_entries() const {
  uint64_t entries = 0;
  for (const Node& node : nodes_) entries += node.nexts.size();
  return entries;
}

uint64_t Pst::memory_bytes() const {
  uint64_t bytes = 0;
  for (const Node& node : nodes_) {
    bytes += PstNodeBytes(node.context.size(), node.nexts.size(),
                          node.children.size(), /*with_view_mask=*/false);
  }
  bytes += view_masks_.size() * sizeof(ViewMask);
  bytes += root_child_by_query_.size() * sizeof(int32_t);
  return bytes;
}

uint64_t Pst::view_num_states(size_t view) const {
  SQP_CHECK(is_shared());
  const ViewMask bit = ViewMask{1} << view;
  uint64_t states = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (view_masks_[i] & bit) ++states;
  }
  return states;
}

uint64_t Pst::view_num_entries(size_t view) const {
  SQP_CHECK(is_shared());
  const ViewMask bit = ViewMask{1} << view;
  uint64_t entries = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (view_masks_[i] & bit) entries += nodes_[i].nexts.size();
  }
  return entries;
}

uint64_t Pst::view_memory_bytes(size_t view) const {
  SQP_CHECK(is_shared());
  const ViewMask bit = ViewMask{1} << view;
  uint64_t bytes = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if ((view_masks_[i] & bit) == 0) continue;
    const Node& node = nodes_[i];
    size_t view_children = 0;
    for (const Edge& edge : node.children) {
      if (view_masks_[static_cast<size_t>(edge.child)] & bit) {
        ++view_children;
      }
    }
    bytes += PstNodeBytes(node.context.size(), node.nexts.size(),
                          view_children, /*with_view_mask=*/false);
  }
  // The standalone tree would also carry a dense root fan-out index up to
  // its own largest depth-1 query (as memory_bytes does).
  QueryId max_root_query = 0;
  bool any_root_child = false;
  for (const Edge& edge : nodes_[0].children) {
    if (view_masks_[static_cast<size_t>(edge.child)] & bit) {
      max_root_query = edge.query;  // children sorted ascending
      any_root_child = true;
    }
  }
  if (any_root_child) {
    bytes += (static_cast<uint64_t>(max_root_query) + 1) * sizeof(int32_t);
  }
  return bytes;
}

Pst Pst::ExtractView(size_t view) const {
  SQP_CHECK(is_shared());
  const ViewMask bit = ViewMask{1} << view;
  Pst out;
  out.options_ = view_options_[view];
  std::vector<int32_t> remap(nodes_.size(), -1);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if ((view_masks_[i] & bit) == 0) continue;
    remap[i] = static_cast<int32_t>(out.nodes_.size());
    Node node = nodes_[i];
    node.children.clear();
    if (node.parent >= 0) {
      node.parent = remap[static_cast<size_t>(node.parent)];
    }
    out.nodes_.push_back(std::move(node));
  }
  out.RebuildChildren();
  return out;
}

}  // namespace sqp
