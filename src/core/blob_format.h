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

/// On-disk format version this build writes and accepts: the one format
/// version constant of the snapshot blob. Version 2 stores blob-local
/// next-query ids with a local-to-global table (kSecNextGlobal) and keeps
/// the root's children only in the root index. Version 3 stores only what
/// varies between models: no escape section (the escape is the walk's
/// constant serving::kEscape) and one mask section. Version 4 numbers the
/// nodes breadth-first, so a child's id is computed from its edge's index
/// and no blob stores one.
inline constexpr uint32_t kBlobFormatVersion = 4;

/// The 8-byte magic at offset 0 of every snapshot blob.
inline constexpr char kBlobMagic[8] = {'S', 'Q', 'P', 'S', 'N', 'A', 'P', '1'};

/// Section ids. The writer emits every id below in this order; readers
/// locate sections by id, so future versions may append new ids without
/// renumbering (a format-version bump is needed only for incompatible
/// changes to existing sections).
enum BlobSectionId : uint32_t {
  kSecMeta = 1,
  kSecSigmas = 2,
  kSecNextBegin = 3,
  kSecChildBegin = 4,
  kSecTotalCount = 5,
  kSecStartCount = 6,
  kSecCountShift = 7,
  kSecMask = 8,  // u16 with kBlobFlagNarrowMasks, else u64
  kSecNextQuery = 9,
  kSecNextGlobal = 10,  // local next-query id -> global id
  kSecEdgeQuery = 11,
  kSecRootIndex = 12,
  kSecNextCode = 13,
};
inline constexpr uint32_t kBlobNumKnownSections = 13;

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
  kRootIndexRange,
  kMisalignedBuffer,
  kMixtureParameterRange,
  kNextQueryRange,
  kNextGlobalOrder,
  kRootEdgeRun,
  kEdgeBackward,
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
  uint32_t num_next_queries = 0;  // L
  BlobSectionRef sections[kBlobNumKnownSections + 1];
};

/// Parses and validates header, section table, META and section sizes of
/// a blob entirely in place. Every length and offset is checked against
/// `size` before any section byte is touched: corrupt or truncated input
/// yields a BlobError, never a read past the buffer. Verifies the header,
/// section-table and every section CRC32. Does NOT check the structural
/// invariants of the CSR arrays — BindBlob runs ValidateBlobStructure
/// before anything serves them.
BlobError ParseBlobLayout(const uint8_t* blob, size_t size,
                          BlobLayout* out);

// --------------------------------------------- structural validation

/// Structural invariants the serving walk relies on, checked over the
/// section arrays so a validated blob can never push the walk out of
/// bounds: CSR offsets nondecreasing with the META totals as final
/// values; an empty root edge run (the root's children live only in the
/// root index); per-node edge queries strictly ascending (the walk
/// binary-searches them); root-index ids below base; every local
/// next-query id below L; and the local-to-global table strictly ascending
/// (so local order is global order and the ranking tie-break holds).
///
/// Edge e leads to node base + e, where base = num_nodes - num_edges
/// (ParseBlobLayout has checked num_edges < num_nodes, so base >= 1). Node
/// i >= 1 must have base + child_begin[i] > i (kEdgeBackward): its children
/// then come after it, and by the terminal offset they end at num_nodes.
/// FinalizeModelRef's level count relies on both (see its proof).
template <typename T>
BlobError ValidateBlobStructure(const ModelRef& m, const PoolsRef<T>& pools) {
  const uint32_t* next_begin = m.next_begin;
  const uint32_t* child_begin = m.child_begin;
  if (next_begin[0] != 0 || child_begin[0] != 0) return BlobError::kCsrStart;
  if (next_begin[m.num_nodes] != m.num_entries ||
      child_begin[m.num_nodes] != m.num_edges) {
    return BlobError::kCsrTerminal;
  }
  // Offsets first, edges second: full monotonicity (plus the terminal
  // values above) bounds every CSR slice, so the edge walk below cannot
  // index past the pools even on input where only a later offset is bad.
  for (size_t i = 0; i < m.num_nodes; ++i) {
    if (next_begin[i] > next_begin[i + 1] ||
        child_begin[i] > child_begin[i + 1]) {
      return BlobError::kCsrNotMonotone;
    }
  }
  if (child_begin[1] != 0) return BlobError::kRootEdgeRun;
  const size_t base = m.num_nodes - m.num_edges;
  for (size_t i = 1; i < m.num_nodes; ++i) {
    if (base + child_begin[i] <= i) return BlobError::kEdgeBackward;
    for (uint32_t e = child_begin[i]; e + 1 < child_begin[i + 1]; ++e) {
      if (pools.edge_query[e] >= pools.edge_query[e + 1]) {
        return BlobError::kEdgeOrder;
      }
    }
  }
  for (size_t i = 0; i < pools.root_index_size; ++i) {
    if (static_cast<size_t>(pools.root_child_by_query[i]) >= base) {
      return BlobError::kRootIndexRange;
    }
  }
  for (size_t i = 0; i < m.num_entries; ++i) {
    if (pools.next_query[i] >= m.num_next_queries) {
      return BlobError::kNextQueryRange;
    }
  }
  for (size_t i = 1; i < m.num_next_queries; ++i) {
    if (pools.next_global[i - 1] >= pools.next_global[i]) {
      return BlobError::kNextGlobalOrder;
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

/// The mixture parameters the walk scores with: every sigma finite and
/// > 0 (serving::ValidSigma). A CRC only proves the bytes are the ones
/// written, not that they are usable: a zero or NaN sigma would serve NaN
/// scores, and an infinite one would silently take the depth fallback.
inline BlobError ValidateBlobMixtureParameters(const double* sigmas,
                                               size_t num_components) {
  for (size_t c = 0; c < num_components; ++c) {
    if (!ValidSigma(sigmas[c])) return BlobError::kMixtureParameterRange;
  }
  return BlobError::kNone;
}

// ------------------------------------------------------------------ bind

/// The one bind of a blob, shared by the engine and slim. In order:
/// ParseBlobLayout (every CRC included); rejects a `blob` base that is not
/// 8-byte aligned; points `*model` at the sections in place; runs
/// ValidateBlobMixtureParameters, ValidateBlobCountShifts and
/// ValidateBlobStructure; then FinalizeModelRef. So nothing derives from,
/// or serves, arrays that failed validation, and the bind allocates
/// nothing. On kNone `*layout` holds the decoded META and `*model` serves
/// straight out of `blob`, which must stay alive and unchanged as long as
/// `*model`; on any error `*model` is untouched.
BlobError BindBlob(const uint8_t* blob, size_t size, BlobLayout* layout,
                   ModelRef* model);

}  // namespace sqp::serving

#endif  // SQP_CORE_BLOB_FORMAT_H_
