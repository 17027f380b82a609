#include "log/context_builder.h"

#include <algorithm>

#include "util/status.h"

namespace sqp {
namespace {

/// Sorts next-query counts by descending count, ascending id.
void SortNexts(std::vector<NextQueryCount>* nexts) {
  std::sort(nexts->begin(), nexts->end(),
            [](const NextQueryCount& a, const NextQueryCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.query < b.query;
            });
}

uint64_t PackKey(int32_t node, QueryId query) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32) | query;
}

}  // namespace

int32_t ContextIndex::Descend(int32_t from, QueryId q) {
  uint64_t& slot = children_[PackKey(from, q)];
  if (slot == 0) {  // node 0 is the root and never a child: 0 = absent
    TrieNode node;
    node.parent = from;
    node.edge = q;
    node.depth = trie_[static_cast<size_t>(from)].depth + 1;
    slot = trie_.size();
    trie_.push_back(node);
  }
  return static_cast<int32_t>(slot);
}

void ContextIndex::CountSessions(
    const std::vector<AggregatedSession>& sessions) {
  for (const AggregatedSession& session : sessions) {
    const std::vector<QueryId>& q = session.queries;
    if (q.size() < 2) continue;  // no prediction evidence
    const uint64_t f = session.frequency;
    // `end` indexes the predicted query; the context is q[start..end).
    for (size_t end = 1; end < q.size(); ++end) {
      if (mode_ == Mode::kPrefix) {
        // Only the full prefix [0, end), walked newest query first.
        if (max_context_length_ != 0 && end > max_context_length_) continue;
        int32_t node = 0;
        for (size_t back = 0; back < end; ++back) {
          node = Descend(node, q[end - 1 - back]);
        }
        counts_[PackKey(node, q[end])] += f;
        // Prefixes start the session.
        trie_[static_cast<size_t>(node)].start_count += f;
      } else {
        // Each extra length extends the previous walk by one older query,
        // so every substring occurrence costs exactly one trie step.
        const size_t max_len = max_context_length_ == 0
                                   ? end
                                   : std::min(end, max_context_length_);
        int32_t node = 0;
        for (size_t len = 1; len <= max_len; ++len) {
          node = Descend(node, q[end - len]);
          counts_[PackKey(node, q[end])] += f;
          if (end == len) trie_[static_cast<size_t>(node)].start_count += f;
        }
      }
    }
  }
}

void ContextIndex::Build(const std::vector<AggregatedSession>& sessions,
                         Mode mode, size_t max_context_length,
                         size_t /*num_workers*/) {
  trie_.clear();
  entries_.clear();
  entry_nodes_.clear();
  children_.Reset();
  counts_.Reset();
  mode_ = mode;
  max_context_length_ = max_context_length;
  total_occurrences_ = 0;

  trie_.emplace_back();  // root: empty context
  CountSessions(sessions);
  Finalize();
  built_ = true;
}

void ContextIndex::Append(const std::vector<AggregatedSession>& sessions) {
  SQP_CHECK(built_);  // Append extends an existing Build
  if (sessions.empty()) return;
  CountSessions(sessions);
  Finalize();
}

void ContextIndex::Finalize() {
  entries_.clear();
  entry_nodes_.clear();
  total_occurrences_ = 0;
  for (TrieNode& node : trie_) node.entry = -1;

  // Flatten the count table into per-node next lists: one counting pass
  // sizes each node's bucket, a second scatters the (next, count) pairs
  // into it. A bucket holds its node's pairs in table order, but SortNexts
  // orders every list totally (count desc, query asc), so the entries do
  // not depend on that order.
  std::vector<uint32_t> bucket(trie_.size() + 1, 0);
  counts_.ForEach([&](uint64_t key, uint64_t /*count*/) {
    ++bucket[static_cast<size_t>(key >> 32) + 1];
  });
  for (size_t node = 0; node < trie_.size(); ++node) {
    bucket[node + 1] += bucket[node];
  }
  std::vector<NextQueryCount> flat(counts_.size());
  {
    std::vector<uint32_t> fill(bucket.begin(), bucket.end() - 1);
    counts_.ForEach([&](uint64_t key, uint64_t count) {
      flat[fill[static_cast<size_t>(key >> 32)]++] =
          NextQueryCount{static_cast<QueryId>(key), count};
    });
  }

  // Materialize one ContextEntry per counted node. Walking node -> root
  // collects edge labels oldest-first, which is the context orientation.
  entries_.reserve(counts_.size() / 2 + 1);
  for (size_t node = 0; node < trie_.size(); ++node) {
    if (bucket[node] == bucket[node + 1]) continue;
    ContextEntry entry;
    entry.context.resize(trie_[node].depth);
    size_t pos = 0;
    for (int32_t walk = static_cast<int32_t>(node); walk > 0;
         walk = trie_[static_cast<size_t>(walk)].parent) {
      entry.context[pos++] = trie_[static_cast<size_t>(walk)].edge;
    }
    entry.nexts.assign(flat.begin() + bucket[node],
                       flat.begin() + bucket[node + 1]);
    for (const NextQueryCount& nc : entry.nexts) {
      entry.total_count += nc.count;
    }
    SortNexts(&entry.nexts);
    entry.start_count = trie_[node].start_count;
    total_occurrences_ += entry.total_count;
    entry_nodes_.push_back(static_cast<int32_t>(node));
    entries_.push_back(std::move(entry));
  }

  // Canonical (length, lexicographic) entry order, fixed once at build time.
  // Contexts are unique, so the order (and with it every downstream
  // structure, e.g. a PST built from the sorted entries) is independent of
  // trie node numbering — and therefore of how the sessions were batched
  // across Build and Append.
  std::vector<int32_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const ContextEntry& ea = entries_[static_cast<size_t>(a)];
    const ContextEntry& eb = entries_[static_cast<size_t>(b)];
    if (ea.context.size() != eb.context.size()) {
      return ea.context.size() < eb.context.size();
    }
    return ea.context < eb.context;
  });
  std::vector<ContextEntry> sorted_entries;
  std::vector<int32_t> sorted_nodes;
  sorted_entries.reserve(entries_.size());
  sorted_nodes.reserve(entries_.size());
  for (int32_t idx : order) {
    sorted_entries.push_back(std::move(entries_[static_cast<size_t>(idx)]));
    sorted_nodes.push_back(entry_nodes_[static_cast<size_t>(idx)]);
  }
  entries_ = std::move(sorted_entries);
  entry_nodes_ = std::move(sorted_nodes);
  for (size_t i = 0; i < entry_nodes_.size(); ++i) {
    trie_[static_cast<size_t>(entry_nodes_[i])].entry = static_cast<int32_t>(i);
  }
}

const ContextEntry* ContextIndex::Lookup(
    std::span<const QueryId> context) const {
  if (context.empty() || trie_.empty()) return nullptr;
  int32_t node = 0;
  for (size_t back = 0; back < context.size(); ++back) {
    const uint64_t* child =
        children_.Find(PackKey(node, context[context.size() - 1 - back]));
    if (child == nullptr) return nullptr;
    node = static_cast<int32_t>(*child);
  }
  return entry_at(node);
}

std::vector<const ContextEntry*> ContextIndex::SortedEntries() const {
  std::vector<const ContextEntry*> out;
  out.reserve(entries_.size());
  for (const ContextEntry& entry : entries_) out.push_back(&entry);
  return out;
}

std::vector<GroundTruthEntry> BuildGroundTruth(
    const std::vector<AggregatedSession>& test_sessions, size_t n,
    size_t max_context_length) {
  ContextIndex index;
  index.Build(test_sessions, ContextIndex::Mode::kPrefix, max_context_length);
  std::vector<GroundTruthEntry> out;
  out.reserve(index.size());
  for (const ContextEntry* entry : index.SortedEntries()) {
    GroundTruthEntry gt;
    gt.context = entry->context;
    gt.support = entry->total_count;
    const size_t take = std::min(n, entry->nexts.size());
    gt.ranked_next.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      gt.ranked_next.push_back(entry->nexts[i].query);
    }
    out.push_back(std::move(gt));
  }
  return out;
}

QueryRoles ComputeQueryRoles(const std::vector<AggregatedSession>& sessions) {
  QueryRoles roles;
  for (const AggregatedSession& s : sessions) {
    for (size_t i = 0; i < s.queries.size(); ++i) {
      const QueryId q = s.queries[i];
      roles.seen.insert(q);
      if (s.queries.size() >= 2) roles.in_multi_session.insert(q);
      if (i + 1 < s.queries.size()) roles.at_non_last.insert(q);
    }
  }
  return roles;
}

}  // namespace sqp
