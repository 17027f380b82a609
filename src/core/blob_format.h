#ifndef SQP_CORE_BLOB_FORMAT_H_
#define SQP_CORE_BLOB_FORMAT_H_

/// The compact snapshot blob format, as a runtime-free layer (same
/// discipline as core/serving_walk.h: no allocation, no exceptions, no
/// iostreams, no statics with dynamic initializers). This header is the
/// single definition of the on-disk layout — header, section table, META
/// fields, structural invariants — and of BindBlob, the one function that
/// turns blob bytes into a servable serving::ModelRef. Its consumers:
///
///   - core/compact_snapshot (the engine's CompactSnapshot, whether packed
///     in memory, read from a file or mapped) serves its blob bytes
///     through BindBlob and wraps every BlobError in a typed Status;
///   - the slim embedded predictor (src/slim/) binds a caller-provided
///     buffer through the same call and maps BlobError onto its pinned
///     sqp_status_t codes;
///   - tests/ and the golden-blob suite, which pin the layout bytes.
///
/// The sections are served in place, so the layout is little-endian in
/// memory as on disk: building for a big-endian host is a compile error
/// (the static_assert below), not a runtime branch.
///
/// Layout (all little-endian on disk):
///
///   [0,64)    header: magic, format version u32, section count u32,
///             file size u64, section-table crc u32, ..., header crc u32
///   [64,...)  section table: (id u32, crc u32, offset u64, size u64) rows
///   ...       64-byte-aligned sections, located by id
///
/// Error taxonomy: every way a blob can be malformed yields one BlobError
/// enumerator. The engine maps all of them onto kInvalidArgument (a
/// corrupt blob is a caller-input problem, not data loss — the file on
/// disk is what it is); slim maps them onto SQP_STATUS_INVALID_ARGUMENT.
/// Both consumers therefore agree on the observable error class for any
/// given corruption, which tests/slim/ asserts byte-for-byte.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/serving_walk.h"

static_assert(std::endian::native == std::endian::little,
              "snapshot blobs are served in place as little-endian arrays");

namespace sqp::serving {

// ------------------------------------------------------------- constants

inline constexpr size_t kBlobHeaderSize = 64;
/// Section row: id u32, crc u32, offset u64, size u64.
inline constexpr size_t kBlobSectionRowSize = 24;
inline constexpr size_t kBlobSectionAlignment = 64;
inline constexpr size_t kBlobMetaSize = 64;
inline constexpr uint32_t kBlobMaxSections = 64;

/// On-disk format version this build writes and accepts.
inline constexpr uint32_t kBlobFormatVersion = 1;

/// The 8-byte magic at offset 0 of every snapshot blob.
inline constexpr char kBlobMagic[8] = {'S', 'Q', 'P', 'S', 'N', 'A', 'P', '1'};

/// Section ids. The writer emits every id below in this order; readers
/// locate sections by id, so future versions may append new ids without
/// renumbering (a format-version bump is needed only for incompatible
/// changes to existing sections).
enum BlobSectionId : uint32_t {
  kSecMeta = 1,
  kSecSigmas = 2,
  kSecComponentEscape = 3,
  kSecNextBegin = 4,
  kSecChildBegin = 5,
  kSecTotalCount = 6,
  kSecStartCount = 7,
  kSecCountShift = 8,
  kSecMask16 = 9,
  kSecMask64 = 10,
  kSecNextQuery = 11,
  kSecNextCode = 12,
  kSecEdgeQuery = 13,
  kSecEdgeChild = 14,
  kSecRootIndex = 15,
};
inline constexpr uint32_t kBlobNumKnownSections = 15;

/// META section flags.
inline constexpr uint32_t kBlobFlagNarrowIds = 1u << 0;
inline constexpr uint32_t kBlobFlagNarrowMasks = 1u << 1;

// ---------------------------------------------------------------- errors

/// Every distinct way a blob can fail to parse or validate. kNone == 0 is
/// success; everything else is a malformed-input class both consumers map
/// onto their InvalidArgument spelling.
enum class BlobError : int {
  kNone = 0,
  kTruncatedHeader,
  kBadMagic,
  kHeaderCrc,
  kVersionMismatch,  // format_version in BlobLayout says what was read
  kFileSizeMismatch,
  kSectionCount,
  kSectionTablePastEnd,
  kSectionTableCrc,
  kDuplicateSection,
  kMisalignedSection,
  kSectionPastEnd,
  kMissingSection,
  kSectionCrc,
  kMetaSize,
  kUnknownWeighting,
  kNodeCount,
  kEntryCount,
  kComponentCount,
  kNarrowMaskComponents,
  kNarrowIdNodes,
  kSectionSizeMismatch,
  kCountShiftRange,
  kCsrStart,
  kCsrTerminal,
  kCsrNotMonotone,
  kEdgeOrder,
  kEdgeChildRange,
  kRootIndexRange,
  kMisalignedBuffer,
  kOutOfMemory,
};

/// Static description of `error` (never null; stable storage).
const char* BlobErrorMessage(BlobError error);

// --------------------------------------------------------------- parsing

struct BlobSectionRef {
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// The validated layout of one blob: decoded META fields plus the byte
/// extent of every known section (indexed by BlobSectionId; all present
/// and size-checked against the META element counts once ParseBlobLayout
/// returns kNone). Offsets are relative to the blob base and 64-byte
/// aligned, so reinterpreting a section as its fixed-width element type
/// is naturally aligned.
struct BlobLayout {
  uint32_t format_version = 0;
  uint64_t snapshot_version = 0;
  MixtureWeighting weighting = MixtureWeighting::kGaussianEditDistance;
  bool narrow_ids = false;
  bool narrow_masks = false;
  uint64_t top_k = 0;
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  uint64_t num_edges = 0;
  uint64_t root_index_size = 0;
  uint32_t num_components = 0;
  BlobSectionRef sections[kBlobNumKnownSections + 1];
};

/// Parses and validates header, section table, META and section sizes of
/// a blob entirely in place. Every length and offset is checked against
/// `size` before any section byte is touched: corrupt or truncated input
/// yields a BlobError, never a read past the buffer. Does NOT check the
/// structural invariants of the CSR arrays — BindBlob runs
/// ValidateBlobStructure before anything serves them.
BlobError ParseBlobLayout(const uint8_t* blob, size_t size,
                          bool verify_checksums, BlobLayout* out);

// --------------------------------------------- structural validation

/// Structural invariants the serving walk relies on, checked over the
/// section arrays so a validated blob can never push the walk out of
/// bounds: CSR offsets nondecreasing with the META totals as final
/// values, child/root ids inside the node table, per-node edge queries
/// strictly ascending (the walk binary-searches them).
template <typename QT, typename NT>
BlobError ValidateBlobStructure(const uint32_t* next_begin,
                                const uint32_t* child_begin,
                                const QT* edge_query, const NT* edge_child,
                                const NT* root_index,
                                uint64_t root_index_size, uint64_t num_nodes,
                                uint64_t num_entries, uint64_t num_edges) {
  if (next_begin[0] != 0 || child_begin[0] != 0) return BlobError::kCsrStart;
  if (next_begin[num_nodes] != num_entries ||
      child_begin[num_nodes] != num_edges) {
    return BlobError::kCsrTerminal;
  }
  // Offsets first, edges second: full monotonicity (plus the terminal
  // values above) bounds every CSR slice, so the edge walk below cannot
  // index past the pools even on input where only a later offset is bad.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    if (next_begin[i] > next_begin[i + 1] ||
        child_begin[i] > child_begin[i + 1]) {
      return BlobError::kCsrNotMonotone;
    }
  }
  for (uint64_t i = 0; i < num_nodes; ++i) {
    for (uint32_t e = child_begin[i]; e < child_begin[i + 1]; ++e) {
      if (e + 1 < child_begin[i + 1] && edge_query[e] >= edge_query[e + 1]) {
        return BlobError::kEdgeOrder;
      }
      const uint64_t child = edge_child[e];
      if (child == 0 || child >= num_nodes) {
        return BlobError::kEdgeChildRange;
      }
    }
  }
  for (uint64_t i = 0; i < root_index_size; ++i) {
    if (static_cast<uint64_t>(root_index[i]) >= num_nodes) {
      return BlobError::kRootIndexRange;
    }
  }
  return BlobError::kNone;
}

/// Dequantization shifts must stay below the count width.
inline BlobError ValidateBlobCountShifts(const uint8_t* count_shift,
                                         uint64_t num_nodes) {
  for (uint64_t i = 0; i < num_nodes; ++i) {
    if (count_shift[i] >= 64) return BlobError::kCountShiftRange;
  }
  return BlobError::kNone;
}

// ------------------------------------------------------------------ bind

/// Caller memory for BindBlob's derived tables, requested once the layout
/// is parsed and validated: `escape_pow_doubles` doubles the bound
/// ModelRef keeps pointing at (the caller owns them and keeps them alive
/// as long as the ModelRef), and `num_nodes` words of work memory the
/// caller may release as soon as BindBlob returns. Neither needs
/// initializing. Returns false when the memory is unavailable.
using BlobBindMemory = bool (*)(void* context, size_t escape_pow_doubles,
                                size_t num_nodes, double** escape_pow,
                                uint32_t** depth_scratch);

/// The one bind of a blob, shared by the engine and slim. In order:
/// ParseBlobLayout (section CRCs only when `verify_checksums`); rejects a
/// `blob` base that is not 8-byte aligned; points `*model` at the sections
/// in place; runs ValidateBlobCountShifts and ValidateBlobStructure; asks
/// `memory` for the derived tables and runs FinalizeModelRef. So nothing
/// derives from, or serves, arrays that failed validation. On kNone
/// `*layout` holds the decoded META and `*model` serves straight out of
/// `blob`, which must stay alive and unchanged as long as `*model`; on any
/// error `*model` is untouched.
BlobError BindBlob(const uint8_t* blob, size_t size, bool verify_checksums,
                   BlobBindMemory memory, void* memory_context,
                   BlobLayout* layout, ModelRef* model);

}  // namespace sqp::serving

#endif  // SQP_CORE_BLOB_FORMAT_H_
