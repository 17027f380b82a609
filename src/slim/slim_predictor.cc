// The slim embedded predictor (include/sqp/slim.h): a C ABI shell around
// the runtime-free core layers. Everything model-shaped lives in
// core/serving_walk and core/blob_format — this file only does argument
// policing, arena bookkeeping, and the BlobError -> sqp_status_t mapping.
//
// Runtime-freedom discipline (CI's slim-abi job enforces it with nm):
// malloc/free only, no operator new, no exceptions/RTTI, no iostreams, no
// function-local statics with dynamic initializers. Compiled with
// -fno-exceptions -fno-rtti -fvisibility=hidden; the SQP_SLIM_API entry
// points carry default visibility explicitly.

#include "sqp/slim.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "core/blob_format.h"
#include "core/serving_walk.h"

namespace serving = sqp::serving;

namespace {

// Matches the engine's defensive path-capacity floor
// (core/compact_snapshot.cc): request path capacity is
// min(context_len, max(sizing.path_depth, kPathCapacityFloor)), so both
// consumers truncate adversarial inputs identically.
constexpr size_t kPathCapacityFloor = 64;

// One aligned sub-allocation of the create-time arena. All carved types
// have alignment <= 8, so rounding every segment to 8 keeps them aligned.
size_t Aligned(size_t bytes) { return (bytes + 7) & ~size_t{7}; }

template <typename T>
T* Carve(uint8_t** cursor, size_t count) {
  T* p = reinterpret_cast<T*>(*cursor);
  *cursor += Aligned(count * sizeof(T));
  return p;
}

/// BindBlob's derived-table memory, malloc'ed: the escape powers are
/// kept by the predictor, the depth scratch is freed right after the bind.
struct BindMemory {
  double* escape_pow = nullptr;
  uint32_t* depth_scratch = nullptr;
};

bool MallocBindMemory(void* context, size_t escape_pow_doubles,
                      size_t num_nodes, double** escape_pow,
                      uint32_t** depth_scratch) {
  BindMemory* memory = static_cast<BindMemory*>(context);
  memory->escape_pow =
      static_cast<double*>(std::malloc(escape_pow_doubles * sizeof(double)));
  memory->depth_scratch =
      static_cast<uint32_t*>(std::malloc(num_nodes * sizeof(uint32_t)));
  *escape_pow = memory->escape_pow;
  *depth_scratch = memory->depth_scratch;
  return memory->escape_pow != nullptr && memory->depth_scratch != nullptr;
}

}  // namespace

struct sqp_slim_predictor {
  serving::ModelRef model;
  uint64_t snapshot_version = 0;
  uint64_t resident_bytes = 0;

  // Request scratch, carved from `arena` at create — one request at a
  // time, by contract in the header.
  int32_t* path = nullptr;
  size_t path_capacity = 0;
  size_t* matched = nullptr;
  double* weights = nullptr;
  double* level_weight = nullptr;
  serving::RawHit* raw = nullptr;
  size_t raw_capacity = 0;
  serving::DenseAccumulator acc;

  double* escape_pow = nullptr;  // owned (FinalizeModelRef storage)
  uint8_t* arena = nullptr;      // owned (scratch backing)
};

extern "C" SQP_SLIM_API sqp_status_t sqp_slim_create_from_buffer(
    const void* blob, size_t blob_size, sqp_slim_predictor** out_predictor) {
  if (out_predictor == nullptr || blob == nullptr || blob_size == 0) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }

  // Parse, validate and bind in place: the model arrays are read straight
  // out of the caller's buffer, never copied.
  serving::BlobLayout layout;
  serving::ModelRef m;
  BindMemory memory;
  const serving::BlobError err = serving::BindBlob(
      static_cast<const uint8_t*>(blob), blob_size,
      /*verify_checksums=*/true, MallocBindMemory, &memory, &layout, &m);
  std::free(memory.depth_scratch);
  if (err != serving::BlobError::kNone) {
    std::free(memory.escape_pow);
    return err == serving::BlobError::kOutOfMemory
               ? SQP_STATUS_RESOURCE_EXHAUSTED
               : SQP_STATUS_INVALID_ARGUMENT;
  }
  const size_t pow_doubles =
      m.num_components * (serving::kEscapePowCap + 1);

  const size_t path_capacity =
      m.sizing.path_depth > kPathCapacityFloor ? m.sizing.path_depth
                                               : kPathCapacityFloor;
  const size_t k = m.num_components;
  const size_t dense_slots = m.dense_merge ? m.sizing.dense_queries : 0;
  const size_t raw_capacity = m.dense_merge ? 0 : m.num_entries;
  const size_t arena_bytes =
      Aligned(path_capacity * sizeof(int32_t)) +
      Aligned(path_capacity * sizeof(double)) +  // level_weight
      Aligned(k * sizeof(size_t)) +              // matched
      Aligned(k * sizeof(double)) +              // weights
      Aligned(dense_slots * sizeof(double)) +    // acc.score
      Aligned(dense_slots * sizeof(uint32_t)) +  // acc.stamp
      Aligned(dense_slots * sizeof(uint32_t)) +  // acc.touched
      Aligned(raw_capacity * sizeof(serving::RawHit));

  sqp_slim_predictor* p = static_cast<sqp_slim_predictor*>(
      std::malloc(sizeof(sqp_slim_predictor)));
  uint8_t* arena = static_cast<uint8_t*>(std::malloc(arena_bytes));
  if (p == nullptr || arena == nullptr) {
    std::free(memory.escape_pow);
    std::free(p);
    std::free(arena);
    return SQP_STATUS_RESOURCE_EXHAUSTED;
  }
  *p = sqp_slim_predictor{};
  p->model = m;
  p->snapshot_version = layout.snapshot_version;
  p->escape_pow = memory.escape_pow;
  p->arena = arena;
  p->resident_bytes = sizeof(sqp_slim_predictor) +
                      pow_doubles * sizeof(double) + arena_bytes;

  uint8_t* cursor = arena;
  p->path = Carve<int32_t>(&cursor, path_capacity);
  p->path_capacity = path_capacity;
  p->level_weight = Carve<double>(&cursor, path_capacity);
  p->matched = Carve<size_t>(&cursor, k);
  p->weights = Carve<double>(&cursor, k);
  p->acc.score = Carve<double>(&cursor, dense_slots);
  p->acc.stamp = Carve<uint32_t>(&cursor, dense_slots);
  p->acc.touched = Carve<uint32_t>(&cursor, dense_slots);
  p->acc.capacity = dense_slots;
  // Stamps must start zeroed: 0 is never a live epoch.
  std::memset(p->acc.stamp, 0, dense_slots * sizeof(uint32_t));
  p->raw = Carve<serving::RawHit>(&cursor, raw_capacity);
  p->raw_capacity = raw_capacity;

  *out_predictor = p;
  return SQP_STATUS_OK;
}

extern "C" SQP_SLIM_API sqp_status_t sqp_slim_recommend(
    sqp_slim_predictor* predictor, const uint32_t* context,
    size_t context_len, size_t top_n, uint32_t* out_queries,
    double* out_scores, size_t* out_count, size_t* out_matched_len) {
  if (predictor == nullptr || out_count == nullptr) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }
  *out_count = 0;
  if (out_matched_len != nullptr) *out_matched_len = 0;
  if (context == nullptr && context_len > 0) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }
  if (top_n > 0 && (out_queries == nullptr || out_scores == nullptr)) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }
  if (context_len == 0) return SQP_STATUS_NOT_FOUND;

  const serving::ModelRef& m = predictor->model;
  serving::WalkScratch ws;
  ws.path = predictor->path;
  ws.path_capacity = context_len < predictor->path_capacity
                         ? context_len
                         : predictor->path_capacity;
  ws.matched = predictor->matched;
  ws.weights = predictor->weights;
  ws.level_weight = predictor->level_weight;
  if (m.dense_merge) {
    predictor->acc.BeginGeneration();
    ws.acc = &predictor->acc;
  } else {
    ws.raw = predictor->raw;
    ws.raw_capacity = predictor->raw_capacity;
  }

  // Ranking writes straight into the caller's arrays — no copy, no
  // allocation.
  const serving::WalkResult result =
      serving::RecommendTopN(m, context, context_len, top_n, m.dense_merge,
                             &ws, out_queries, out_scores);

  if (!result.covered) return SQP_STATUS_NOT_FOUND;
  *out_count = result.count;
  if (out_matched_len != nullptr) *out_matched_len = result.matched_length;
  return SQP_STATUS_OK;
}

extern "C" SQP_SLIM_API sqp_status_t sqp_slim_stats(
    const sqp_slim_predictor* predictor, sqp_slim_stats_t* out_stats) {
  if (predictor == nullptr || out_stats == nullptr) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }
  if (out_stats->struct_size < sizeof(size_t)) {
    return SQP_STATUS_INVALID_ARGUMENT;
  }
  sqp_slim_stats_t stats;
  stats.struct_size = sizeof(sqp_slim_stats_t);
  stats.snapshot_version = predictor->snapshot_version;
  stats.num_nodes = predictor->model.num_nodes;
  stats.num_entries = predictor->model.num_entries;
  stats.num_edges = predictor->model.num_edges;
  stats.num_components = static_cast<uint32_t>(predictor->model.num_components);
  stats.dense_merge = predictor->model.dense_merge ? 1u : 0u;
  stats.resident_bytes = predictor->resident_bytes;
  const size_t copy_bytes = out_stats->struct_size < sizeof(stats)
                                ? out_stats->struct_size
                                : sizeof(stats);
  std::memcpy(out_stats, &stats, copy_bytes);
  return SQP_STATUS_OK;
}

extern "C" SQP_SLIM_API void sqp_slim_destroy(sqp_slim_predictor* predictor) {
  if (predictor == nullptr) return;
  std::free(predictor->escape_pow);
  std::free(predictor->arena);
  std::free(predictor);
}
