#ifndef SQP_INCLUDE_SQP_SLIM_H_
#define SQP_INCLUDE_SQP_SLIM_H_

/* The slim embedded predictor: the compact serving walk as a
 * dependency-free static library (libsqp_slim.a) behind a stable C ABI.
 *
 * This is the form factor an embedded caller links — a browser omnibox,
 * a mobile keyboard, or a JNI/Python/Rust binding. The library contains
 * only the serve path: blob parsing + validation, the MVMM mixture walk,
 * and top-N ranking. No threads, no mmap, no exceptions/RTTI, no
 * iostreams, and no C++ runtime dependency — it links from a plain C99
 * translation unit against libm alone, which CI asserts with nm.
 *
 * Results are bit-identical to the full engine: both sit on the same
 * core/serving_walk layer, and tests/slim/ pins slim-vs-engine top-10
 * equality (score bits included) on the golden snapshot blob.
 *
 * ## Contract
 *
 * - `blob` is a compact snapshot produced by the engine's
 *   SnapshotIo::Save (the same bytes the serving tiers mmap). The CALLER OWNS the buffer:
 *   it must stay alive and unmodified for the predictor's lifetime; the
 *   predictor reads the model arrays in place and never copies them.
 * - The buffer must be at least 8-byte aligned (any malloc'd or mmap'ed
 *   buffer is).
 * - All allocation happens inside sqp_slim_create_from_buffer (a few
 *   malloc calls for derived tables and request scratch, sized from the
 *   model). sqp_slim_recommend never allocates.
 * - A predictor serves ONE request at a time (the request scratch lives
 *   in the handle). For concurrency, create one predictor per thread —
 *   they can share the same blob buffer.
 * - The library builds for little-endian hosts only (the blob's arrays
 *   are read in place); a big-endian build fails to compile.
 * - Status codes are the repo-wide pinned taxonomy (sqp/status.h):
 *   corrupt, truncated or misaligned blobs yield
 *   SQP_STATUS_INVALID_ARGUMENT, an uncovered context
 *   SQP_STATUS_NOT_FOUND, allocation failure
 *   SQP_STATUS_RESOURCE_EXHAUSTED.
 *
 * ## ABI stability rules
 *
 * - Functions are only added, never removed or re-signatured.
 * - sqp_slim_stats_t may GROW at the end; the struct_size handshake
 *   (caller sets it before the call) keeps old binaries safe.
 * - Status code values are pinned forever (see sqp/status.h).
 */

#include <stddef.h>
#include <stdint.h>

#include "sqp/status.h"

#if defined(__GNUC__) || defined(__clang__)
#define SQP_SLIM_API __attribute__((visibility("default")))
#else
#define SQP_SLIM_API
#endif

#ifdef __cplusplus
extern "C" {
#endif

/* Opaque predictor handle. */
typedef struct sqp_slim_predictor sqp_slim_predictor;

/* Model and footprint counters, filled by sqp_slim_stats. Callers set
 * struct_size = sizeof(sqp_slim_stats_t) before the call; the library
 * fills min(caller size, its size) bytes, so the struct can grow. */
typedef struct sqp_slim_stats_t {
  size_t struct_size;        /* in: sizeof(sqp_slim_stats_t) */
  uint64_t snapshot_version; /* writer-assigned version of the blob */
  uint64_t num_nodes;        /* PST nodes in the compact model */
  uint64_t num_entries;      /* next-query entries (candidates) */
  uint64_t num_edges;        /* child edges */
  uint32_t num_components;   /* mixture components */
  uint32_t dense_merge;      /* 1 = dense accumulation, 0 = sort-merge */
  uint64_t resident_bytes;   /* bytes the predictor allocated at create
                              * (excludes the caller-owned blob) */
} sqp_slim_stats_t;

/* Creates a predictor over a caller-owned snapshot blob. Parses and
 * fully validates the buffer (header, checksums, structural invariants)
 * before the first read of model data; a malformed buffer of any kind
 * yields SQP_STATUS_INVALID_ARGUMENT and *out_predictor untouched.
 * On SQP_STATUS_OK the caller must eventually sqp_slim_destroy the
 * handle, and must keep `blob` alive and unmodified until then. */
SQP_SLIM_API sqp_status_t sqp_slim_create_from_buffer(
    const void* blob, size_t blob_size, sqp_slim_predictor** out_predictor);

/* Serves one recommendation for `context` (least-recent first, the same
 * query-id space the blob was built over). Writes up to `top_n` results
 * ranked score-descending (query-id ascending on ties) into the
 * caller-owned arrays `out_queries` / `out_scores` (capacity `top_n`
 * each; both required when top_n > 0) and the
 * number written into *out_count. *out_matched_len (optional, may be
 * NULL) receives the matched suffix depth.
 *
 * Returns SQP_STATUS_OK when the model covers the context (even with
 * zero results for top_n == 0), SQP_STATUS_NOT_FOUND when it does not
 * (empty context included; *out_count is 0), and
 * SQP_STATUS_INVALID_ARGUMENT on NULL-pointer misuse. Never allocates. */
SQP_SLIM_API sqp_status_t sqp_slim_recommend(
    sqp_slim_predictor* predictor, const uint32_t* context,
    size_t context_len, size_t top_n, uint32_t* out_queries,
    double* out_scores, size_t* out_count, size_t* out_matched_len);

/* Fills *out_stats (see the struct_size handshake above). */
SQP_SLIM_API sqp_status_t sqp_slim_stats(const sqp_slim_predictor* predictor,
                                         sqp_slim_stats_t* out_stats);

/* Releases everything the predictor allocated. NULL is a no-op. The
 * caller's blob buffer is untouched (the library never owned it). */
SQP_SLIM_API void sqp_slim_destroy(sqp_slim_predictor* predictor);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* SQP_INCLUDE_SQP_SLIM_H_ */
