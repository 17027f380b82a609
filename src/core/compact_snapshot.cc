#include "core/compact_snapshot.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "core/blob_format.h"
#include "core/pst.h"
#include "util/byte_io.h"

namespace sqp {

namespace internal {
NodeTopK::NodeTopK(const ModelSnapshot& full, size_t scan_limit)
    : full_(full),
      nodes_(full.pst()->nodes()),
      scan_limit_(scan_limit),
      index_(nodes_.size()) {}

int64_t NodeTopK::IndexOf(size_t node, QueryId query) {
  const std::vector<NextQueryCount>& nexts = nodes_[node].nexts;
  if (nexts.size() <= scan_limit_) {
    for (size_t i = 0; i < nexts.size(); ++i) {
      if (nexts[i].query == query) return static_cast<int64_t>(i);
    }
    return -1;
  }
  std::vector<std::pair<QueryId, uint32_t>>& map = index_[node];
  if (map.empty()) {
    map.reserve(nexts.size());
    for (uint32_t i = 0; i < nexts.size(); ++i) {
      map.emplace_back(nexts[i].query, i);
    }
    std::sort(map.begin(), map.end());
  }
  const auto it = std::lower_bound(
      map.begin(), map.end(), query,
      [](const std::pair<QueryId, uint32_t>& e, QueryId q) {
        return e.first < q;
      });
  if (it == map.end() || it->first != query) return -1;
  return it->second;
}

const std::vector<ScoredQuery>& NodeTopK::TopK(size_t node, size_t k) {
  top_.clear();
  const std::vector<QueryId>& context = nodes_[node].context;
  if (k == 0) return top_;

  // The level weights exactly as ModelSnapshot::Recommend computes them.
  const size_t depth = full_.LevelWeights(context, &scratch_);
  const std::vector<int32_t>& path = scratch_.path;
  const std::vector<double>& level_weight = scratch_.level_weight;
  levels_.clear();
  for (size_t d = 0; d < depth; ++d) {
    const size_t id = static_cast<size_t>(path[d]);
    if (level_weight[d] <= 0.0 || nodes_[id].total_count == 0) continue;
    levels_.push_back(Level{
        id, level_weight[d] / static_cast<double>(nodes_[id].total_count),
        0});
  }

  // Level order is MergeAndRank's push order, so the sums are its bits.
  const auto exact_score = [&](QueryId query) {
    double score = 0.0;
    for (const Level& level : levels_) {
      const int64_t at = IndexOf(level.node, query);
      if (at < 0) continue;
      score += level.scale *
               static_cast<double>(
                   nodes_[level.node].nexts[static_cast<size_t>(at)].count);
    }
    return score;
  };
  // RankTopN's strict total order; the heap front is the worst kept entry.
  const auto by_rank = [](const ScoredQuery& a, const ScoredQuery& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.query < b.query;
  };
  if (++epoch_ == 0) {  // wrapped: stale stamps could read as seen
    std::fill(seen_.begin(), seen_.end(), 0u);
    epoch_ = 1;
  }
  while (true) {
    bool advanced = false;
    for (Level& level : levels_) {
      const std::vector<NextQueryCount>& nexts = nodes_[level.node].nexts;
      if (level.cursor == nexts.size()) continue;
      advanced = true;
      const QueryId query = nexts[level.cursor++].query;
      if (query >= seen_.size()) seen_.resize(size_t{query} + 1, 0u);
      if (seen_[query] == epoch_) continue;
      seen_[query] = epoch_;
      const ScoredQuery candidate{query, exact_score(query)};
      if (top_.size() < k) {
        top_.push_back(candidate);
        std::push_heap(top_.begin(), top_.end(), by_rank);
      } else if (by_rank(candidate, top_.front())) {
        std::pop_heap(top_.begin(), top_.end(), by_rank);
        top_.back() = candidate;
        std::push_heap(top_.begin(), top_.end(), by_rank);
      }
    }
    if (!advanced) break;
    if (top_.size() < k) continue;
    // No query unseen so far can score above the threshold: each of its
    // counts is at most the count under its level's cursor.
    double threshold = 0.0;
    for (const Level& level : levels_) {
      const std::vector<NextQueryCount>& nexts = nodes_[level.node].nexts;
      if (level.cursor == nexts.size()) continue;
      threshold +=
          level.scale * static_cast<double>(nexts[level.cursor].count);
    }
    if (top_.front().score > threshold) break;
  }
  std::sort(top_.begin(), top_.end(), by_rank);
  return top_;
}
}  // namespace internal

namespace {

/// Saturating narrowing for the per-node count headers. Counts beyond
/// 2^32 would need corpora far past the paper's scale; the clamp keeps the
/// layout sound rather than wrapping, at documented precision loss.
uint32_t SaturateU32(uint64_t value) {
  return value > std::numeric_limits<uint32_t>::max()
             ? std::numeric_limits<uint32_t>::max()
             : static_cast<uint32_t>(value);
}

/// Block shift of a node: smallest s with (max_count >> s) <= 65535.
uint8_t BlockShift(uint64_t max_count) {
  uint8_t shift = 0;
  while ((max_count >> shift) > 0xffff) ++shift;
  return shift;
}

/// The kept-entry indices of every node under the truncation policy:
///
///  (a) per-node top-K — `nexts` is sorted by descending count (ties by
///      ascending query), so the base slice is the node's own ranking
///      prefix;
///  (b) aggregate closure — the full model's *served* top-K list at the
///      node's exact context is pinned at every path level that carries
///      the query, so serving any context whose suffix matches the node
///      exactly reproduces the full top-K list verbatim (every pinned
///      candidate keeps all its per-level contributions, i.e. its exact
///      full-precision score);
///  (c) ancestor closure — a query kept in a node is also kept in every
///      ancestor (its counts nest, so it always appears there), so any
///      candidate kept at the deepest path level that lists it carries its
///      exact full-precision score. (A query can still be truncated from a
///      node *deeper* than the ones keeping it — contexts whose walk ends
///      there serve it with the deep contribution understated; (b) exists
///      to make that rare, and BENCH_memory.json tracks the residual
///      disagreement rate.)
///
/// The root keeps nothing: serving never reads the root's nexts (ranking
/// levels are non-root path nodes), so packing them would be dead weight.
///
/// Only a *truncated* node (more than top_k nexts) can hold an entry the
/// base slice left out; every other node keeps all its entries whatever
/// (b) and (c) do. So (b) runs only for nodes with a truncated node on
/// their parent chain (the levels it pins into) and pins only into
/// truncated nodes, and (c) propagates only into truncated parents.
///
/// Cost: one internal::NodeTopK per node whose parent chain holds a
/// truncated node — a threshold-algorithm scan of the path levels' count
/// heads, not the full walk — on top of the model build; nothing at all
/// when no node exceeds top_k.
std::vector<std::vector<uint32_t>> KeptEntries(const ModelSnapshot& full,
                                               size_t top_k) {
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  const size_t n = nodes.size();
  std::vector<uint8_t> truncated(n, 0);
  // A truncated node on the parent chain, the node itself included.
  std::vector<uint8_t> chain_truncated(n, 0);
  std::vector<std::vector<uint8_t>> flag(n);
  for (size_t id = 1; id < n; ++id) {
    const size_t size = nodes[id].nexts.size();
    truncated[id] = size > top_k;
    chain_truncated[id] =
        truncated[id] | chain_truncated[static_cast<size_t>(nodes[id].parent)];
    if (truncated[id]) {
      flag[id].assign(size, 0);
      std::fill(flag[id].begin(), flag[id].begin() + top_k, 1);
    }
  }

  // The truncated nodes are exactly the ones NodeTopK reads through its
  // query -> index maps, which passes (b)/(c) share for pinning.
  internal::NodeTopK exact(full, top_k);
  const auto pin = [&](size_t node, QueryId query) {
    const int64_t at = exact.IndexOf(node, query);
    if (at >= 0) flag[node][static_cast<size_t>(at)] = 1;
  };

  // (b) aggregate closure; (c) ancestor closure, as a reverse sweep that
  // sees every descendant before its ancestor (node ids are
  // parent-before-child).
  for (size_t id = 1; id < n; ++id) {
    if (!chain_truncated[id]) continue;
    for (const ScoredQuery& sq : exact.TopK(id, top_k)) {
      for (int32_t a = static_cast<int32_t>(id); a > 0;
           a = nodes[static_cast<size_t>(a)].parent) {
        if (truncated[static_cast<size_t>(a)]) {
          pin(static_cast<size_t>(a), sq.query);
        }
      }
    }
  }
  for (size_t id = n; id-- > 1;) {
    const int32_t parent = nodes[id].parent;
    if (parent <= 0 || !truncated[static_cast<size_t>(parent)]) continue;
    for (uint32_t i = 0; i < nodes[id].nexts.size(); ++i) {
      if (truncated[id] && !flag[id][i]) continue;
      pin(static_cast<size_t>(parent), nodes[id].nexts[i].query);
    }
  }

  std::vector<std::vector<uint32_t>> kept(n);
  for (size_t id = 1; id < n; ++id) {
    for (uint32_t i = 0; i < nodes[id].nexts.size(); ++i) {
      if (!truncated[id] || flag[id][i]) kept[id].push_back(i);
    }
  }
  return kept;
}

/// One section of the blob being written: its id and its bytes (host
/// arrays are the little-endian disk order, see blob_format.h).
struct SectionBytes {
  serving::BlobSectionId id;
  const void* data;
  size_t size;
};

template <typename T>
SectionBytes Section(serving::BlobSectionId id, const std::vector<T>& v) {
  return {id, v.data(), v.size() * sizeof(T)};
}

size_t AlignUp(size_t offset) {
  constexpr size_t kAlign = serving::kBlobSectionAlignment;
  return (offset + kAlign - 1) & ~(kAlign - 1);
}

/// Lays `sections` out in the given order after the header and section
/// table, each 64-byte aligned with zero padding between, and seals every
/// section, the table and the header with their CRC32s.
std::vector<uint8_t> AssembleBlob(std::span<const SectionBytes> sections) {
  const size_t table_bytes = sections.size() * serving::kBlobSectionRowSize;
  size_t file_size = AlignUp(serving::kBlobHeaderSize + table_bytes);
  std::vector<size_t> offsets;
  offsets.reserve(sections.size());
  for (const SectionBytes& section : sections) {
    offsets.push_back(file_size);
    file_size = AlignUp(file_size + section.size);
  }

  std::vector<uint8_t> blob(file_size, 0);
  std::memcpy(blob.data(), serving::kBlobMagic, sizeof(serving::kBlobMagic));
  StoreLE32(blob.data() + 8, serving::kBlobFormatVersion);
  StoreLE32(blob.data() + 12, static_cast<uint32_t>(sections.size()));
  StoreLE64(blob.data() + 16, file_size);
  for (size_t i = 0; i < sections.size(); ++i) {
    const SectionBytes& section = sections[i];
    uint8_t* row = blob.data() + serving::kBlobHeaderSize +
                   i * serving::kBlobSectionRowSize;
    StoreLE32(row, section.id);
    StoreLE32(row + 4, Crc32(section.data, section.size));
    StoreLE64(row + 8, offsets[i]);
    StoreLE64(row + 16, section.size);
    if (section.size > 0) {
      std::memcpy(blob.data() + offsets[i], section.data, section.size);
    }
  }
  StoreLE32(blob.data() + 24,
            Crc32(blob.data() + serving::kBlobHeaderSize, table_bytes));
  StoreLE32(blob.data() + 60, Crc32(blob.data(), 60));
  return blob;
}

/// The engine's BindBlob memory: escape powers in the snapshot's vector,
/// depth scratch in a vector that lives for the bind call.
struct BindMemory {
  std::vector<double>* escape_pow;
  std::vector<uint32_t> depth_scratch;
};

bool VectorBindMemory(void* context, size_t escape_pow_doubles,
                      size_t num_nodes, double** escape_pow,
                      uint32_t** depth_scratch) {
  BindMemory* memory = static_cast<BindMemory*>(context);
  memory->escape_pow->resize(escape_pow_doubles);
  memory->depth_scratch.resize(num_nodes);
  *escape_pow = memory->escape_pow->data();
  *depth_scratch = memory->depth_scratch.data();
  return true;
}

}  // namespace

std::shared_ptr<const CompactSnapshot> CompactSnapshot::FromSnapshot(
    const ModelSnapshot& full, const CompactOptions& options) {
  const size_t num_components = full.options().components.size();
  // The format keeps one escape per component; every one is kDefaultEscape.
  const std::vector<double> component_escape(num_components, kDefaultEscape);

  const Pst& pst = *full.pst();
  const std::vector<Pst::Node>& nodes = pst.nodes();
  const size_t n = nodes.size();
  const bool narrow_masks = num_components <= 16;

  // Adaptive id width: 16-bit pools whenever every query id and node id
  // fits (node 0, the root, is never a child, so it doubles as the root
  // index's absent sentinel).
  QueryId max_query = 0;
  for (const Pst::Node& node : nodes) {
    for (const NextQueryCount& nc : node.nexts) {
      max_query = std::max(max_query, nc.query);
    }
    if (!node.context.empty()) {
      max_query = std::max(max_query, node.context.front());
    }
  }
  const bool narrow_ids = n <= std::numeric_limits<uint16_t>::max() &&
                          max_query < std::numeric_limits<uint16_t>::max();

  // Pack into temporary arrays, one per section. Ids are packed 32-bit
  // and narrowed to 16 bits when the sections are written.
  std::vector<uint32_t> next_begin, child_begin, total_count, start_count;
  std::vector<uint8_t> count_shift;
  std::vector<uint16_t> mask16, next_code;
  std::vector<Pst::ViewMask> mask64;
  std::vector<uint32_t> next_query, next_global, edge_query, edge_child,
      root_index;
  next_begin.reserve(n + 1);
  child_begin.reserve(n + 1);
  total_count.reserve(n);
  start_count.reserve(n);
  count_shift.reserve(n);
  if (narrow_masks) {
    mask16.reserve(n);
  } else {
    mask64.reserve(n);
  }

  const std::vector<std::vector<uint32_t>> kept =
      KeptEntries(full, options.top_k == 0
                            ? std::numeric_limits<size_t>::max()
                            : options.top_k);

  for (size_t id = 0; id < n; ++id) {
    const Pst::Node& node = nodes[id];
    next_begin.push_back(static_cast<uint32_t>(next_code.size()));
    child_begin.push_back(static_cast<uint32_t>(edge_query.size()));
    total_count.push_back(SaturateU32(node.total_count));
    start_count.push_back(SaturateU32(node.start_count));
    const Pst::ViewMask mask = pst.mask_of(static_cast<int32_t>(id));
    if (narrow_masks) {
      mask16.push_back(static_cast<uint16_t>(mask));
    } else {
      mask64.push_back(mask);
    }

    // Ancestor-closed top-K truncation (see KeptEntries) over the
    // descending-sorted count list. Block-scaled quantization: whenever the
    // node's largest count fits 16 bits the shift is 0 and every code IS
    // the exact count — dequantized serving arithmetic is then
    // bit-identical to the full tree. Shifted nodes keep the ranking
    // (>> is monotone) and clamp sub-resolution counts to one code step so
    // observed continuations never quantize to probability zero.
    const uint64_t max_count = node.nexts.empty() ? 0 : node.nexts[0].count;
    const uint8_t shift = BlockShift(max_count);
    count_shift.push_back(shift);
    for (uint32_t i : kept[id]) {
      next_query.push_back(node.nexts[i].query);
      const uint64_t code = node.nexts[i].count >> shift;
      next_code.push_back(static_cast<uint16_t>(code == 0 ? 1 : code));
    }

    // The root's children go to the root index only.
    if (id == 0) continue;
    for (const Pst::Edge& edge : node.children) {
      edge_query.push_back(edge.query);
      edge_child.push_back(static_cast<uint32_t>(edge.child));
    }
  }
  next_begin.push_back(static_cast<uint32_t>(next_code.size()));
  child_begin.push_back(static_cast<uint32_t>(edge_query.size()));

  // Dense root fan-out, as in the full tree (absent = node 0); the root's
  // children are query-ascending.
  const std::vector<Pst::Edge>& root_edges = nodes[0].children;
  if (!root_edges.empty()) {
    root_index.assign(static_cast<size_t>(root_edges.back().query) + 1, 0);
    for (const Pst::Edge& edge : root_edges) {
      root_index[edge.query] = static_cast<uint32_t>(edge.child);
    }
  }

  // Blob-local next-query ids: the distinct kept queries in ascending
  // global order, so ranking by local id is ranking by global id.
  next_global = next_query;
  std::sort(next_global.begin(), next_global.end());
  next_global.erase(std::unique(next_global.begin(), next_global.end()),
                    next_global.end());
  for (uint32_t& query : next_query) {
    query = static_cast<uint32_t>(
        std::lower_bound(next_global.begin(), next_global.end(), query) -
        next_global.begin());
  }

  std::vector<uint8_t> meta(serving::kBlobMetaSize, 0);
  StoreLE64(meta.data(), full.version());
  StoreLE32(meta.data() + 8, static_cast<uint32_t>(full.options().weighting));
  StoreLE32(meta.data() + 12,
            (narrow_ids ? serving::kBlobFlagNarrowIds : 0u) |
                (narrow_masks ? serving::kBlobFlagNarrowMasks : 0u));
  StoreLE64(meta.data() + 16, options.top_k);
  StoreLE64(meta.data() + 24, n);
  StoreLE64(meta.data() + 32, next_code.size());
  StoreLE64(meta.data() + 40, edge_query.size());
  StoreLE64(meta.data() + 48, root_index.size());
  StoreLE32(meta.data() + 56, static_cast<uint32_t>(num_components));
  StoreLE32(meta.data() + 60, static_cast<uint32_t>(next_global.size()));

  // The v2 section order; NextCode closes the blob after the id pools.
  using enum serving::BlobSectionId;
  std::vector<uint16_t> narrowed[5];
  const auto pool = [narrow_ids](serving::BlobSectionId id,
                                 const std::vector<uint32_t>& ids,
                                 std::vector<uint16_t>* narrow) {
    if (!narrow_ids) return Section(id, ids);
    narrow->assign(ids.begin(), ids.end());
    return Section(id, *narrow);
  };
  const SectionBytes sections[] = {
      Section(kSecMeta, meta),
      Section(kSecSigmas, full.sigmas()),
      Section(kSecComponentEscape, component_escape),
      Section(kSecNextBegin, next_begin),
      Section(kSecChildBegin, child_begin),
      Section(kSecTotalCount, total_count),
      Section(kSecStartCount, start_count),
      Section(kSecCountShift, count_shift),
      Section(kSecMask16, mask16),
      Section(kSecMask64, mask64),
      pool(kSecNextQuery, next_query, &narrowed[0]),
      pool(kSecNextGlobal, next_global, &narrowed[1]),
      pool(kSecEdgeQuery, edge_query, &narrowed[2]),
      pool(kSecEdgeChild, edge_child, &narrowed[3]),
      pool(kSecRootIndex, root_index, &narrowed[4]),
      Section(kSecNextCode, next_code),
  };
  auto blob = std::make_shared<std::vector<uint8_t>>(AssembleBlob(sections));

  // The self-bind runs the same checks, CRCs included, as every load.
  Result<std::shared_ptr<const CompactSnapshot>> bound =
      FromBlob(std::shared_ptr<const uint8_t>(blob, blob->data()),
               blob->size(), /*mapped=*/false);
  SQP_CHECK(bound.ok());
  return std::move(bound.value());
}

Result<std::shared_ptr<const CompactSnapshot>> CompactSnapshot::FromBlob(
    std::shared_ptr<const uint8_t> bytes, size_t size, bool mapped) {
  std::shared_ptr<CompactSnapshot> out(new CompactSnapshot());
  BindMemory memory{&out->escape_pow_, {}};
  serving::BlobLayout layout;
  const serving::BlobError err =
      serving::BindBlob(bytes.get(), size, VectorBindMemory, &memory,
                        &layout, &out->model_);
  if (err == serving::BlobError::kVersionMismatch) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(layout.format_version) + " (this build reads " +
        std::to_string(serving::kBlobFormatVersion) + ")");
  }
  if (err != serving::BlobError::kNone) {
    return Status::InvalidArgument(std::string("corrupt snapshot blob (") +
                                   serving::BlobErrorMessage(err) + ")");
  }
  out->bytes_ = std::move(bytes);
  out->size_ = size;
  out->mapped_ = mapped;
  out->version_ = layout.snapshot_version;
  out->top_k_ = layout.top_k;
  // Table VII bytes: every section but META, i.e. the served arrays plus
  // sigmas and escapes.
  for (uint32_t id = serving::kSecSigmas; id <= serving::kBlobNumKnownSections;
       ++id) {
    out->memory_bytes_ += layout.sections[id].size;
  }
  return std::shared_ptr<const CompactSnapshot>(std::move(out));
}

size_t CompactSnapshot::MatchedDepth(
    std::span<const QueryId> context) const {
  const size_t path_cap = std::min(context.size(), model_.sizing.path_depth);
  // The serving path buffer of this thread, as Recommend would use it:
  // steady-state descents allocate nothing.
  std::vector<int32_t>& path = internal::ThreadScratch().path;
  if (path.size() < path_cap) path.resize(path_cap);
  return serving::MatchPath(model_, context.data(), context.size(),
                            path.data(), path_cap);
}

ScratchSizing CompactSnapshot::ScratchHint() const {
  return model_.sizing;
}

Recommendation CompactSnapshot::Recommend(std::span<const QueryId> context,
                                          size_t top_n,
                                          SnapshotScratch* scratch) const {
  Recommendation rec;
  if (context.empty()) return rec;
  const serving::ModelRef& m = model_;

  // Per-request capacity top-up off the bind-time sizing — all no-ops in
  // steady state once Prepare() warmed the scratch. The bind rejects back
  // edges, so sizing.path_depth is exact for every bound blob.
  const size_t path_cap = std::min(context.size(), m.sizing.path_depth);
  if (scratch->path.size() < path_cap) scratch->path.resize(path_cap);
  if (scratch->level_weight.size() < path_cap) {
    scratch->level_weight.resize(path_cap);
  }
  const size_t k = m.num_components;
  if (scratch->matched.size() < k) scratch->matched.resize(k);
  if (scratch->weights.size() < k) scratch->weights.resize(k);
  // A list never holds more distinct queries than the blob's L local ids,
  // so the clamp leaves every answer unchanged while a hostile top_n
  // (a wire request may carry up to 2^32 - 1) cannot size the scratch.
  top_n = std::min<size_t>(top_n, m.num_next_queries);
  if (scratch->topn_query.size() < top_n) scratch->topn_query.resize(top_n);
  if (scratch->topn_score.size() < top_n) scratch->topn_score.resize(top_n);

  serving::WalkScratch ws;
  ws.path = scratch->path.data();
  ws.path_capacity = path_cap;
  ws.matched = scratch->matched.data();
  ws.weights = scratch->weights.data();
  ws.level_weight = scratch->level_weight.data();
  serving::DenseAccumulator acc =
      scratch->acc.BeginGeneration(m.sizing.dense_queries);
  ws.acc = &acc;

  const serving::WalkResult result = serving::RecommendTopN(
      m, context.data(), context.size(), top_n, &ws,
      scratch->topn_query.data(), scratch->topn_score.data());
  if (!result.covered) return rec;
  rec.covered = true;
  rec.matched_length = result.matched_length;
  rec.queries.resize(result.count);
  for (size_t i = 0; i < result.count; ++i) {
    rec.queries[i] = ScoredQuery{static_cast<QueryId>(scratch->topn_query[i]),
                                 scratch->topn_score[i]};
  }
  return rec;
}

bool CompactSnapshot::Covers(std::span<const QueryId> context) const {
  return serving::Covers(model_, context.data(), context.size());
}

ModelStats CompactSnapshot::Stats() const {
  ModelStats stats;
  stats.name = mapped_ ? "MVMM (compact, mapped)" : "MVMM (compact)";
  stats.num_states = num_nodes();
  stats.num_entries = num_entries();
  stats.memory_bytes = memory_bytes_;
  return stats;
}

}  // namespace sqp
