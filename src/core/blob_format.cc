// Runtime-free blob parsing and binding (see blob_format.h for the
// layering contract). The engine and the slim predictor both bind through
// BindBlob, so they accept and reject exactly the same inputs.

#include "core/blob_format.h"

#include <cstring>

#include "util/byte_io.h"

namespace sqp::serving {

const char* BlobErrorMessage(BlobError error) {
  switch (error) {
    case BlobError::kNone:
      return "ok";
    case BlobError::kTruncatedHeader:
      return "shorter than the file header";
    case BlobError::kBadMagic:
      return "bad magic";
    case BlobError::kHeaderCrc:
      return "header checksum mismatch";
    case BlobError::kVersionMismatch:
      return "unsupported snapshot format version";
    case BlobError::kFileSizeMismatch:
      return "file size mismatch (truncated or padded)";
    case BlobError::kSectionCount:
      return "implausible section count";
    case BlobError::kSectionTablePastEnd:
      return "section table past end of file";
    case BlobError::kSectionTableCrc:
      return "section table checksum mismatch";
    case BlobError::kDuplicateSection:
      return "duplicate section";
    case BlobError::kMisalignedSection:
      return "misaligned section";
    case BlobError::kSectionPastEnd:
      return "section past end of file";
    case BlobError::kMissingSection:
      return "missing section";
    case BlobError::kSectionCrc:
      return "section checksum mismatch";
    case BlobError::kMetaSize:
      return "META size";
    case BlobError::kUnknownWeighting:
      return "unknown weighting scheme";
    case BlobError::kNodeCount:
      return "implausible node count";
    case BlobError::kEntryCount:
      return "entry/edge count exceeds CSR offset width";
    case BlobError::kComponentCount:
      return "implausible component count";
    case BlobError::kNarrowMaskComponents:
      return "narrow masks with more than 16 components";
    case BlobError::kNarrowIdNodes:
      return "narrow ids with more than 65535 nodes";
    case BlobError::kSectionSizeMismatch:
      return "section size mismatch";
    case BlobError::kCountShiftRange:
      return "count shift out of range";
    case BlobError::kCsrStart:
      return "CSR offsets must start at 0";
    case BlobError::kCsrTerminal:
      return "CSR terminal offset mismatch";
    case BlobError::kCsrNotMonotone:
      return "CSR offsets not monotone";
    case BlobError::kEdgeOrder:
      return "edge queries not strictly ascending";
    case BlobError::kEdgeChildRange:
      return "edge child id out of range";
    case BlobError::kRootIndexRange:
      return "root index id out of range";
    case BlobError::kMisalignedBuffer:
      return "blob buffer not 8-byte aligned";
    case BlobError::kOutOfMemory:
      return "no memory for the derived tables";
  }
  return "unknown blob error";
}

BlobError ParseBlobLayout(const uint8_t* blob, size_t size,
                          bool verify_checksums, BlobLayout* out) {
  if (size < kBlobHeaderSize) return BlobError::kTruncatedHeader;
  if (std::memcmp(blob, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return BlobError::kBadMagic;
  }
  const uint32_t header_crc = LoadLE32(blob + 60);
  if (header_crc != Crc32(blob, 60)) return BlobError::kHeaderCrc;
  out->format_version = LoadLE32(blob + 8);
  if (out->format_version != kBlobFormatVersion) {
    return BlobError::kVersionMismatch;
  }
  const uint32_t section_count = LoadLE32(blob + 12);
  const uint64_t file_size = LoadLE64(blob + 16);
  const uint32_t table_crc = LoadLE32(blob + 24);
  if (file_size != size) return BlobError::kFileSizeMismatch;
  if (section_count == 0 || section_count > kBlobMaxSections) {
    return BlobError::kSectionCount;
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kBlobSectionRowSize;
  if (kBlobHeaderSize + table_bytes > size) {
    return BlobError::kSectionTablePastEnd;
  }
  if (table_crc !=
      Crc32(blob + kBlobHeaderSize, static_cast<size_t>(table_bytes))) {
    return BlobError::kSectionTableCrc;
  }

  bool present[kBlobMaxSections + 1] = {};
  uint32_t crc_of[kBlobNumKnownSections + 1] = {};
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* row = blob + kBlobHeaderSize + i * kBlobSectionRowSize;
    const uint32_t id = LoadLE32(row);
    const uint32_t crc = LoadLE32(row + 4);
    const uint64_t offset = LoadLE64(row + 8);
    const uint64_t row_size = LoadLE64(row + 16);
    if (id == 0 || id > kBlobMaxSections) continue;  // unknown ids skipped
    if (present[id]) return BlobError::kDuplicateSection;
    present[id] = true;
    if (offset % kBlobSectionAlignment != 0) {
      return BlobError::kMisalignedSection;
    }
    if (offset > size || row_size > size - offset) {
      return BlobError::kSectionPastEnd;
    }
    if (id <= kBlobNumKnownSections) {
      out->sections[id] = BlobSectionRef{offset, row_size};
      crc_of[id] = crc;
    }
  }

  for (uint32_t id = 1; id <= kBlobNumKnownSections; ++id) {
    if (!present[id]) return BlobError::kMissingSection;
    if (verify_checksums) {
      const BlobSectionRef& sec = out->sections[id];
      if (crc_of[id] != Crc32(blob + sec.offset,
                              static_cast<size_t>(sec.size))) {
        return BlobError::kSectionCrc;
      }
    }
  }

  // META: fixed-size field block.
  const BlobSectionRef& meta_sec = out->sections[kSecMeta];
  if (meta_sec.size != kBlobMetaSize) return BlobError::kMetaSize;
  const uint8_t* meta = blob + meta_sec.offset;
  out->snapshot_version = LoadLE64(meta);
  const uint32_t weighting = LoadLE32(meta + 8);
  const uint32_t flags = LoadLE32(meta + 12);
  out->top_k = LoadLE64(meta + 16);
  out->num_nodes = LoadLE64(meta + 24);
  out->num_entries = LoadLE64(meta + 32);
  out->num_edges = LoadLE64(meta + 40);
  out->root_index_size = LoadLE64(meta + 48);
  out->num_components = LoadLE32(meta + 56);
  if (weighting > static_cast<uint32_t>(MixtureWeighting::kLongestMatch)) {
    return BlobError::kUnknownWeighting;
  }
  out->weighting = static_cast<MixtureWeighting>(weighting);
  out->narrow_ids = (flags & kBlobFlagNarrowIds) != 0;
  out->narrow_masks = (flags & kBlobFlagNarrowMasks) != 0;

  if (out->num_nodes == 0 || out->num_nodes > uint64_t{0x7fffffff}) {
    return BlobError::kNodeCount;
  }
  if (out->num_entries > uint64_t{0xffffffff} ||
      out->num_edges > uint64_t{0xffffffff}) {
    return BlobError::kEntryCount;
  }
  if (out->num_components == 0 || out->num_components > 64) {
    return BlobError::kComponentCount;
  }
  if (out->num_components > 16 && out->narrow_masks) {
    return BlobError::kNarrowMaskComponents;
  }
  if (out->narrow_ids && out->num_nodes > 0xffff) {
    return BlobError::kNarrowIdNodes;
  }

  // Every section size must match the META element counts exactly.
  const uint64_t id_width = out->narrow_ids ? 2 : 4;
  const auto expect_size = [&](BlobSectionId id, uint64_t bytes) {
    return out->sections[id].size == bytes;
  };
  if (!expect_size(kSecSigmas, uint64_t{8} * out->num_components) ||
      !expect_size(kSecComponentEscape, uint64_t{8} * out->num_components) ||
      !expect_size(kSecNextBegin, 4 * (out->num_nodes + 1)) ||
      !expect_size(kSecChildBegin, 4 * (out->num_nodes + 1)) ||
      !expect_size(kSecTotalCount, 4 * out->num_nodes) ||
      !expect_size(kSecStartCount, 4 * out->num_nodes) ||
      !expect_size(kSecCountShift, out->num_nodes) ||
      !expect_size(kSecMask16, out->narrow_masks ? 2 * out->num_nodes : 0) ||
      !expect_size(kSecMask64, out->narrow_masks ? 0 : 8 * out->num_nodes) ||
      !expect_size(kSecNextQuery, id_width * out->num_entries) ||
      !expect_size(kSecNextCode, 2 * out->num_entries) ||
      !expect_size(kSecEdgeQuery, id_width * out->num_edges) ||
      !expect_size(kSecEdgeChild, id_width * out->num_edges) ||
      !expect_size(kSecRootIndex, id_width * out->root_index_size)) {
    return BlobError::kSectionSizeMismatch;
  }
  return BlobError::kNone;
}

namespace {

/// A section's bytes as its element type. ParseBlobLayout has pinned every
/// section inside the blob at a 64-byte-aligned offset, and BindBlob has
/// checked the base, so the cast is naturally aligned.
template <typename T>
const T* SectionAs(const uint8_t* blob, const BlobLayout& layout,
                   BlobSectionId id) {
  return reinterpret_cast<const T*>(
      blob + static_cast<size_t>(layout.sections[id].offset));
}

template <typename QT, typename NT>
PoolsRef<QT, NT> PoolsAt(const uint8_t* blob, const BlobLayout& layout) {
  return PoolsRef<QT, NT>{SectionAs<QT>(blob, layout, kSecNextQuery),
                          SectionAs<QT>(blob, layout, kSecEdgeQuery),
                          SectionAs<NT>(blob, layout, kSecEdgeChild),
                          SectionAs<NT>(blob, layout, kSecRootIndex),
                          static_cast<size_t>(layout.root_index_size)};
}

template <typename QT, typename NT>
BlobError ValidatePools(const ModelRef& m, const PoolsRef<QT, NT>& pools,
                        const BlobLayout& layout) {
  return ValidateBlobStructure<QT, NT>(
      m.next_begin, m.child_begin, pools.edge_query, pools.edge_child,
      pools.root_child_by_query, layout.root_index_size, layout.num_nodes,
      layout.num_entries, layout.num_edges);
}

}  // namespace

BlobError BindBlob(const uint8_t* blob, size_t size, bool verify_checksums,
                   BlobBindMemory memory, void* memory_context,
                   BlobLayout* layout, ModelRef* model) {
  BlobError err = ParseBlobLayout(blob, size, verify_checksums, layout);
  if (err != BlobError::kNone) return err;
  if (reinterpret_cast<uintptr_t>(blob) % 8 != 0) {
    return BlobError::kMisalignedBuffer;
  }

  ModelRef m;
  m.next_begin = SectionAs<uint32_t>(blob, *layout, kSecNextBegin);
  m.child_begin = SectionAs<uint32_t>(blob, *layout, kSecChildBegin);
  m.total_count = SectionAs<uint32_t>(blob, *layout, kSecTotalCount);
  m.start_count = SectionAs<uint32_t>(blob, *layout, kSecStartCount);
  m.count_shift = SectionAs<uint8_t>(blob, *layout, kSecCountShift);
  if (layout->narrow_masks) {
    m.mask16 = SectionAs<uint16_t>(blob, *layout, kSecMask16);
  } else {
    m.mask64 = SectionAs<uint64_t>(blob, *layout, kSecMask64);
  }
  m.next_code = SectionAs<uint16_t>(blob, *layout, kSecNextCode);
  m.num_nodes = static_cast<size_t>(layout->num_nodes);
  m.num_entries = static_cast<size_t>(layout->num_entries);
  m.num_edges = static_cast<size_t>(layout->num_edges);
  m.narrow_ids = layout->narrow_ids;
  if (layout->narrow_ids) {
    m.narrow = PoolsAt<uint16_t, uint16_t>(blob, *layout);
  } else {
    m.wide = PoolsAt<uint32_t, uint32_t>(blob, *layout);
  }
  m.weighting = layout->weighting;
  m.sigmas = SectionAs<double>(blob, *layout, kSecSigmas);
  m.component_escape = SectionAs<double>(blob, *layout, kSecComponentEscape);
  m.num_components = layout->num_components;

  err = ValidateBlobCountShifts(m.count_shift, layout->num_nodes);
  if (err == BlobError::kNone) {
    err = layout->narrow_ids ? ValidatePools(m, m.narrow, *layout)
                             : ValidatePools(m, m.wide, *layout);
  }
  if (err != BlobError::kNone) return err;

  double* escape_pow = nullptr;
  uint32_t* depth_scratch = nullptr;
  if (!memory(memory_context, m.num_components * (kEscapePowCap + 1),
              m.num_nodes, &escape_pow, &depth_scratch)) {
    return BlobError::kOutOfMemory;
  }
  FinalizeModelRef(&m, escape_pow, depth_scratch);
  *model = m;
  return BlobError::kNone;
}

}  // namespace sqp::serving
