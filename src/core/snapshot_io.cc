#include "core/snapshot_io.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <tuple>
#include <utility>

#include "core/blob_format.h"
#include "util/byte_io.h"

#if defined(__unix__) || defined(__APPLE__)
#define SQP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sqp {
namespace {

// ------------------------------------------------------------ blob layout
// The layout itself (constants, section ids, parse + structural
// validation) is defined once in core/blob_format.h, shared with the slim
// embedded predictor. This file adds what only the engine needs: file IO,
// owned/mapped storage, Status wrapping, and the writer.

using serving::BlobError;
using serving::BlobLayout;
using SectionId = serving::BlobSectionId;
using enum serving::BlobSectionId;

constexpr size_t kHeaderSize = serving::kBlobHeaderSize;
constexpr size_t kSectionRowSize = serving::kBlobSectionRowSize;
constexpr size_t kSectionAlignment = serving::kBlobSectionAlignment;
constexpr size_t kMetaSize = serving::kBlobMetaSize;

constexpr uint32_t kFlagNarrowIds = serving::kBlobFlagNarrowIds;
constexpr uint32_t kFlagNarrowMasks = serving::kBlobFlagNarrowMasks;

static_assert(kSnapshotFormatVersion == serving::kBlobFormatVersion,
              "snapshot_io and blob_format disagree on the format version");
static_assert(sizeof(kSnapshotMagic) == sizeof(serving::kBlobMagic));

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// One array materialized in on-disk (little-endian) byte order. On LE
/// hosts this is a straight memcpy of the vector storage.
template <typename T>
std::vector<uint8_t> ToDiskBytes(std::span<const T> values) {
  std::vector<uint8_t> out(values.size_bytes());
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), values.size_bytes());
    if constexpr (!HostIsLittleEndian()) {
      ByteSwapInPlace(std::span<T>(reinterpret_cast<T*>(out.data()),
                                   values.size()));
    }
  }
  return out;
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path);
}

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::InvalidArgument("corrupt snapshot blob (" + what +
                                 "): " + path);
}

// -------------------------------------------------------------- parsing

/// The decoded blob: META fields plus raw byte spans into the blob for
/// every bulk array. Spans alias the blob buffer — the buffer must outlive
/// any use of them.
struct ParsedBlob {
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
  std::vector<double> sigmas;
  std::vector<double> component_escape;

  std::span<const uint8_t> next_begin, child_begin, total_count, start_count,
      count_shift, mask16, mask64, next_query, next_code, edge_query,
      edge_child, root_index;
};

/// Reinterprets a section's bytes as a fixed-width array. Sections start
/// 64-byte aligned (validated), so the cast is naturally aligned for every
/// element type the format uses.
template <typename T>
std::span<const T> TypedSpan(std::span<const uint8_t> bytes) {
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

/// Engine-side wrapper of serving::ParseBlobLayout — the shared,
/// runtime-free header/section-table/META validation the slim predictor
/// runs too. Maps every BlobError onto the typed Status taxonomy and
/// materializes the byte spans plus the endian-decoded mixture arrays.
Status ParseBlob(std::span<const uint8_t> blob, const std::string& path,
                 const SnapshotLoadOptions& options, ParsedBlob* out) {
  BlobLayout layout;
  const BlobError err = serving::ParseBlobLayout(
      blob.data(), blob.size(), options.verify_checksums, &layout);
  if (err == BlobError::kVersionMismatch) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(layout.format_version) + " (this build reads " +
        std::to_string(kSnapshotFormatVersion) + "): " + path);
  }
  if (err != BlobError::kNone) {
    return Corrupt(serving::BlobErrorMessage(err), path);
  }

  out->snapshot_version = layout.snapshot_version;
  out->weighting = layout.weighting;
  out->narrow_ids = layout.narrow_ids;
  out->narrow_masks = layout.narrow_masks;
  out->top_k = layout.top_k;
  out->num_nodes = layout.num_nodes;
  out->num_entries = layout.num_entries;
  out->num_edges = layout.num_edges;
  out->root_index_size = layout.root_index_size;
  out->num_components = layout.num_components;

  const auto section_bytes = [&](SectionId id) -> std::span<const uint8_t> {
    return blob.subspan(static_cast<size_t>(layout.sections[id].offset),
                        static_cast<size_t>(layout.sections[id].size));
  };

  // Mixture arrays are always decoded into owned storage (a handful of
  // doubles), so the endian conversion below covers them on any host.
  const std::span<const uint8_t> sigma_bytes = section_bytes(kSecSigmas);
  const std::span<const uint8_t> escape_bytes =
      section_bytes(kSecComponentEscape);
  out->sigmas.resize(out->num_components);
  out->component_escape.resize(out->num_components);
  for (uint32_t c = 0; c < out->num_components; ++c) {
    out->sigmas[c] =
        std::bit_cast<double>(LoadLE64(sigma_bytes.data() + 8 * c));
    out->component_escape[c] =
        std::bit_cast<double>(LoadLE64(escape_bytes.data() + 8 * c));
  }

  out->next_begin = section_bytes(kSecNextBegin);
  out->child_begin = section_bytes(kSecChildBegin);
  out->total_count = section_bytes(kSecTotalCount);
  out->start_count = section_bytes(kSecStartCount);
  out->count_shift = section_bytes(kSecCountShift);
  out->mask16 = section_bytes(kSecMask16);
  out->mask64 = section_bytes(kSecMask64);
  out->next_query = section_bytes(kSecNextQuery);
  out->next_code = section_bytes(kSecNextCode);
  out->edge_query = section_bytes(kSecEdgeQuery);
  out->edge_child = section_bytes(kSecEdgeChild);
  out->root_index = section_bytes(kSecRootIndex);
  return Status::OK();
}

/// Structural validation via the shared serving::ValidateBlobStructure
/// template (host-order arrays, so it is endianness-correct on any host).
Status ValidateParsed(const ParsedBlob& parsed, const std::string& path) {
  BlobError err = serving::ValidateBlobCountShifts(
      TypedSpan<uint8_t>(parsed.count_shift).data(), parsed.num_nodes);
  if (err == BlobError::kNone) {
    const auto next_begin = TypedSpan<uint32_t>(parsed.next_begin);
    const auto child_begin = TypedSpan<uint32_t>(parsed.child_begin);
    err = parsed.narrow_ids
              ? serving::ValidateBlobStructure<uint16_t, uint16_t>(
                    next_begin.data(), child_begin.data(),
                    TypedSpan<uint16_t>(parsed.edge_query).data(),
                    TypedSpan<uint16_t>(parsed.edge_child).data(),
                    TypedSpan<uint16_t>(parsed.root_index).data(),
                    parsed.root_index_size, parsed.num_nodes,
                    parsed.num_entries, parsed.num_edges)
              : serving::ValidateBlobStructure<uint32_t, uint32_t>(
                    next_begin.data(), child_begin.data(),
                    TypedSpan<uint32_t>(parsed.edge_query).data(),
                    TypedSpan<uint32_t>(parsed.edge_child).data(),
                    TypedSpan<uint32_t>(parsed.root_index).data(),
                    parsed.root_index_size, parsed.num_nodes,
                    parsed.num_entries, parsed.num_edges);
  }
  if (err != BlobError::kNone) {
    return Corrupt(serving::BlobErrorMessage(err), path);
  }
  return Status::OK();
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return IoError("cannot open", path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return IoError("cannot stat", path);
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return IoError("short read", path);
  }
  return Status::OK();
}

/// Copies one section's bytes into an owned host-order vector.
template <typename T>
void CopyArray(std::span<const uint8_t> bytes, std::vector<T>* out) {
  out->resize(bytes.size() / sizeof(T));
  if (!out->empty()) {
    std::memcpy(out->data(), bytes.data(), bytes.size());
    if constexpr (!HostIsLittleEndian()) {
      ByteSwapInPlace(std::span<T>(*out));
    }
  }
}

/// Atomic publish shared by blob and manifest writers: a complete, durably
/// flushed write to a sibling tmp file, then one rename. Readers (and
/// crashed writers) never see a partial file, and — because the data is
/// fsync'ed before the rename — a crash right after publishing cannot
/// replace a previously good file with unflushed pages.
Status WriteFileAtomically(std::span<const uint8_t> bytes,
                           const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return IoError("cannot open", tmp_path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return IoError("write failed", tmp_path);
    }
  }
#ifdef SQP_HAVE_MMAP  // same platforms that have POSIX fds
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return IoError("fsync failed", tmp_path);
    }
    ::close(fd);
  }
#endif
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return IoError("rename failed", path);
  }
#ifdef SQP_HAVE_MMAP
  // Make the rename itself durable: fsync the containing directory.
  const std::filesystem::path parent =
      std::filesystem::path(path).has_parent_path()
          ? std::filesystem::path(path).parent_path()
          : std::filesystem::path(".");
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort — the data itself is already durable
    ::close(dir_fd);
  }
#endif
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------------- save

Status SnapshotIo::Save(const CompactSnapshot& snapshot,
                        const std::string& path) {
  // Materialize every section in on-disk byte order. The compact arrays
  // are at most a few MB — building the blob in memory keeps the offsets,
  // checksums and the atomic rename trivial.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections;

  std::vector<uint8_t> meta(kMetaSize, 0);
  StoreLE64(meta.data(), snapshot.version());
  StoreLE32(meta.data() + 8, static_cast<uint32_t>(snapshot.weighting_));
  const bool narrow_masks = snapshot.mask64_.empty();
  uint32_t flags = 0;
  if (snapshot.is_narrow_) flags |= kFlagNarrowIds;
  if (narrow_masks) flags |= kFlagNarrowMasks;
  StoreLE32(meta.data() + 12, flags);
  StoreLE64(meta.data() + 16, snapshot.options_.top_k);
  StoreLE64(meta.data() + 24, snapshot.num_nodes());
  StoreLE64(meta.data() + 32, snapshot.num_entries());
  StoreLE64(meta.data() + 40, snapshot.num_edges());
  const uint64_t root_index_size =
      snapshot.is_narrow_ ? snapshot.narrow_.root_child_by_query.size()
                          : snapshot.wide_.root_child_by_query.size();
  StoreLE64(meta.data() + 48, root_index_size);
  StoreLE32(meta.data() + 56, static_cast<uint32_t>(snapshot.sigmas_.size()));
  sections.emplace_back(kSecMeta, std::move(meta));

  const auto push = [&sections](SectionId id, auto span) {
    sections.emplace_back(id, ToDiskBytes(span));
  };
  push(kSecSigmas, std::span<const double>(snapshot.sigmas_));
  push(kSecComponentEscape,
       std::span<const double>(snapshot.component_escape_));
  push(kSecNextBegin, std::span<const uint32_t>(snapshot.own_next_begin_));
  push(kSecChildBegin, std::span<const uint32_t>(snapshot.own_child_begin_));
  push(kSecTotalCount, std::span<const uint32_t>(snapshot.own_total_count_));
  push(kSecStartCount, std::span<const uint32_t>(snapshot.own_start_count_));
  push(kSecCountShift, std::span<const uint8_t>(snapshot.own_count_shift_));
  push(kSecMask16, std::span<const uint16_t>(snapshot.own_mask16_));
  push(kSecMask64, std::span<const Pst::ViewMask>(snapshot.own_mask64_));
  if (snapshot.is_narrow_) {
    push(kSecNextQuery,
         std::span<const uint16_t>(snapshot.narrow_.next_query));
    push(kSecEdgeQuery,
         std::span<const uint16_t>(snapshot.narrow_.edge_query));
    push(kSecEdgeChild,
         std::span<const uint16_t>(snapshot.narrow_.edge_child));
    push(kSecRootIndex,
         std::span<const uint16_t>(snapshot.narrow_.root_child_by_query));
  } else {
    push(kSecNextQuery, std::span<const uint32_t>(snapshot.wide_.next_query));
    push(kSecEdgeQuery, std::span<const uint32_t>(snapshot.wide_.edge_query));
    push(kSecEdgeChild, std::span<const uint32_t>(snapshot.wide_.edge_child));
    push(kSecRootIndex,
         std::span<const uint32_t>(snapshot.wide_.root_child_by_query));
  }
  push(kSecNextCode, std::span<const uint16_t>(snapshot.own_next_code_));

  // Lay the sections out 64-byte aligned after the table, then assemble.
  const size_t table_bytes = sections.size() * kSectionRowSize;
  size_t cursor = AlignUp(kHeaderSize + table_bytes);
  std::vector<std::tuple<uint32_t, uint64_t, uint64_t, uint32_t>> rows;
  rows.reserve(sections.size());
  for (const auto& [id, bytes] : sections) {
    rows.emplace_back(id, cursor, bytes.size(),
                      Crc32(bytes.data(), bytes.size()));
    cursor = AlignUp(cursor + bytes.size());
  }
  const uint64_t file_size = cursor;

  std::vector<uint8_t> blob(static_cast<size_t>(file_size), 0);
  std::memcpy(blob.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  StoreLE32(blob.data() + 8, kSnapshotFormatVersion);
  StoreLE32(blob.data() + 12, static_cast<uint32_t>(sections.size()));
  StoreLE64(blob.data() + 16, file_size);
  for (size_t i = 0; i < sections.size(); ++i) {
    uint8_t* row = blob.data() + kHeaderSize + i * kSectionRowSize;
    const auto& [id, offset, size, crc] = rows[i];
    StoreLE32(row, id);
    StoreLE32(row + 4, crc);
    StoreLE64(row + 8, offset);
    StoreLE64(row + 16, size);
    if (size > 0) {
      std::memcpy(blob.data() + offset, sections[i].second.data(),
                  static_cast<size_t>(size));
    }
  }
  StoreLE32(blob.data() + 24,
            Crc32(blob.data() + kHeaderSize, table_bytes));
  StoreLE32(blob.data() + 60, Crc32(blob.data(), 60));

  return WriteFileAtomically(blob, path);
}

// ----------------------------------------------------------------- load

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::Load(
    const std::string& path, const SnapshotLoadOptions& options) {
  std::vector<uint8_t> blob;
  SQP_RETURN_IF_ERROR(ReadWholeFile(path, &blob));
  ParsedBlob parsed;
  SQP_RETURN_IF_ERROR(ParseBlob(blob, path, options, &parsed));

  std::shared_ptr<CompactSnapshot> out(new CompactSnapshot());
  out->version_ = parsed.snapshot_version;
  out->options_.top_k = static_cast<size_t>(parsed.top_k);
  out->weighting_ = parsed.weighting;
  out->sigmas_ = std::move(parsed.sigmas);
  out->component_escape_ = std::move(parsed.component_escape);
  out->is_narrow_ = parsed.narrow_ids;

  CopyArray(parsed.next_begin, &out->own_next_begin_);
  CopyArray(parsed.child_begin, &out->own_child_begin_);
  CopyArray(parsed.total_count, &out->own_total_count_);
  CopyArray(parsed.start_count, &out->own_start_count_);
  CopyArray(parsed.count_shift, &out->own_count_shift_);
  CopyArray(parsed.mask16, &out->own_mask16_);
  CopyArray(parsed.mask64, &out->own_mask64_);
  CopyArray(parsed.next_code, &out->own_next_code_);
  if (parsed.narrow_ids) {
    CopyArray(parsed.next_query, &out->narrow_.next_query);
    CopyArray(parsed.edge_query, &out->narrow_.edge_query);
    CopyArray(parsed.edge_child, &out->narrow_.edge_child);
    CopyArray(parsed.root_index, &out->narrow_.root_child_by_query);
  } else {
    CopyArray(parsed.next_query, &out->wide_.next_query);
    CopyArray(parsed.edge_query, &out->wide_.edge_query);
    CopyArray(parsed.edge_child, &out->wide_.edge_child);
    CopyArray(parsed.root_index, &out->wide_.root_child_by_query);
  }
  out->BindViews();

  // Structural validation runs over the owned (host-order) arrays so it is
  // endianness-correct on any host.
  ParsedBlob host = parsed;
  host.next_begin = {reinterpret_cast<const uint8_t*>(
                         out->own_next_begin_.data()),
                     out->own_next_begin_.size() * 4};
  host.child_begin = {reinterpret_cast<const uint8_t*>(
                          out->own_child_begin_.data()),
                      out->own_child_begin_.size() * 4};
  host.count_shift = {out->own_count_shift_.data(),
                      out->own_count_shift_.size()};
  if (parsed.narrow_ids) {
    host.edge_query = {reinterpret_cast<const uint8_t*>(
                           out->narrow_.edge_query.data()),
                       out->narrow_.edge_query.size() * 2};
    host.edge_child = {reinterpret_cast<const uint8_t*>(
                           out->narrow_.edge_child.data()),
                       out->narrow_.edge_child.size() * 2};
    host.root_index = {reinterpret_cast<const uint8_t*>(
                           out->narrow_.root_child_by_query.data()),
                       out->narrow_.root_child_by_query.size() * 2};
  } else {
    host.edge_query = {reinterpret_cast<const uint8_t*>(
                           out->wide_.edge_query.data()),
                       out->wide_.edge_query.size() * 4};
    host.edge_child = {reinterpret_cast<const uint8_t*>(
                           out->wide_.edge_child.data()),
                       out->wide_.edge_child.size() * 4};
    host.root_index = {reinterpret_cast<const uint8_t*>(
                           out->wide_.root_child_by_query.data()),
                       out->wide_.root_child_by_query.size() * 4};
  }
  SQP_RETURN_IF_ERROR(ValidateParsed(host, path));
  return std::shared_ptr<const CompactSnapshot>(std::move(out));
}

// ------------------------------------------------------------------ map

MappedCompactSnapshot::~MappedCompactSnapshot() {
#ifdef SQP_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, blob_size_);
  }
#endif
}

ModelStats MappedCompactSnapshot::Stats() const {
  ModelStats stats;
  stats.name = "MVMM (compact, mapped)";
  stats.num_states = num_nodes();
  stats.num_entries = num_entries();
  stats.memory_bytes = ServingBytes();
  return stats;
}

Result<std::shared_ptr<const MappedCompactSnapshot>> SnapshotIo::Map(
    const std::string& path, const SnapshotLoadOptions& options) {
  if (!HostIsLittleEndian()) {
    // The bulk arrays are little-endian on disk; serving them in place on
    // a big-endian host would transpose every id. Use Load (which
    // byte-swaps into owned arrays) there.
    return Status::FailedPrecondition(
        "zero-copy snapshot mapping requires a little-endian host; "
        "use LoadCompactSnapshot instead");
  }
  std::shared_ptr<MappedCompactSnapshot> out(new MappedCompactSnapshot());
  std::span<const uint8_t> blob;
#ifdef SQP_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return IoError("cannot stat", path);
  }
  out->blob_size_ = static_cast<size_t>(st.st_size);
  if (out->blob_size_ == 0) {
    ::close(fd);
    return Corrupt("empty file", path);
  }
  void* base =
      ::mmap(nullptr, out->blob_size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return IoError("mmap failed", path);
#ifdef MADV_HUGEPAGE
  if (::madvise(base, out->blob_size_, MADV_HUGEPAGE) == 0) {
    out->hugepage_mode_ = HugepageMode::kAdvised;
  }
#endif
  out->map_base_ = base;
  blob = {static_cast<const uint8_t*>(base), out->blob_size_};
#else
  // No mmap on this platform: fall back to an owned copy with identical
  // semantics (the views point into the heap buffer instead).
  SQP_RETURN_IF_ERROR(ReadWholeFile(path, &out->heap_copy_));
  out->blob_size_ = out->heap_copy_.size();
  blob = out->heap_copy_;
#endif

  ParsedBlob parsed;
  SQP_RETURN_IF_ERROR(ParseBlob(blob, path, options, &parsed));
  SQP_RETURN_IF_ERROR(ValidateParsed(parsed, path));

  out->version_ = parsed.snapshot_version;
  out->options_.top_k = static_cast<size_t>(parsed.top_k);
  out->weighting_ = parsed.weighting;
  out->sigmas_ = std::move(parsed.sigmas);
  out->component_escape_ = std::move(parsed.component_escape);
  out->is_narrow_ = parsed.narrow_ids;

  out->next_begin_ = TypedSpan<uint32_t>(parsed.next_begin);
  out->child_begin_ = TypedSpan<uint32_t>(parsed.child_begin);
  out->total_count_ = TypedSpan<uint32_t>(parsed.total_count);
  out->start_count_ = TypedSpan<uint32_t>(parsed.start_count);
  out->count_shift_ = TypedSpan<uint8_t>(parsed.count_shift);
  out->mask16_ = TypedSpan<uint16_t>(parsed.mask16);
  out->mask64_ = TypedSpan<Pst::ViewMask>(parsed.mask64);
  out->next_code_ = TypedSpan<uint16_t>(parsed.next_code);
  if (parsed.narrow_ids) {
    out->narrow_view_ = CompactPoolsView<uint16_t, uint16_t>{
        TypedSpan<uint16_t>(parsed.next_query),
        TypedSpan<uint16_t>(parsed.edge_query),
        TypedSpan<uint16_t>(parsed.edge_child),
        TypedSpan<uint16_t>(parsed.root_index)};
  } else {
    out->wide_view_ = CompactPoolsView<uint32_t, uint32_t>{
        TypedSpan<uint32_t>(parsed.next_query),
        TypedSpan<uint32_t>(parsed.edge_query),
        TypedSpan<uint32_t>(parsed.edge_child),
        TypedSpan<uint32_t>(parsed.root_index)};
  }
  out->FinalizeDerived();
  return std::shared_ptr<const MappedCompactSnapshot>(std::move(out));
}

// ------------------------------------------------------------- manifests

namespace {

constexpr size_t kManifestFixedHeader = 8 + 4 + 4 + 4 + 8;  // pre-shard bytes
constexpr uint32_t kMaxManifestShards = 4096;
constexpr uint32_t kMaxManifestPathLen = 4096;

Status CorruptManifest(const std::string& what, const std::string& path) {
  return Status::InvalidArgument("corrupt snapshot manifest (" + what +
                                 "): " + path);
}

}  // namespace

Status SnapshotIo::SaveManifest(const SnapshotManifest& manifest,
                                const std::string& path) {
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("manifest needs at least one shard");
  }
  if (manifest.shards.size() > kMaxManifestShards) {
    return Status::InvalidArgument("manifest shard count exceeds limit");
  }
  std::vector<uint8_t> bytes;
  const auto append = [&bytes](const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
  };
  const auto append_u32 = [&](uint32_t v) {
    uint8_t b[4];
    StoreLE32(b, v);
    append(b, sizeof(b));
  };
  const auto append_u64 = [&](uint64_t v) {
    uint8_t b[8];
    StoreLE64(b, v);
    append(b, sizeof(b));
  };
  append(kManifestMagic, sizeof(kManifestMagic));
  append_u32(kManifestFormatVersion);
  append_u32(manifest.partition_function);
  append_u32(manifest.num_shards());
  append_u64(manifest.version);
  for (const ShardBlobRef& shard : manifest.shards) {
    if (shard.path.empty() || shard.path.size() > kMaxManifestPathLen) {
      return Status::InvalidArgument("manifest shard path empty or too long");
    }
    append_u64(shard.file_size);
    append_u32(shard.header_crc);
    append_u32(static_cast<uint32_t>(shard.path.size()));
    append(shard.path.data(), shard.path.size());
  }
  append_u32(Crc32(bytes.data(), bytes.size()));
  return WriteFileAtomically(bytes, path);
}

Result<SnapshotManifest> SnapshotIo::LoadManifest(const std::string& path) {
  std::vector<uint8_t> bytes;
  SQP_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  if (bytes.size() < kManifestFixedHeader + 4) {
    return CorruptManifest("shorter than the fixed header", path);
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
      0) {
    return CorruptManifest("bad magic", path);
  }
  const uint32_t trailer = LoadLE32(bytes.data() + bytes.size() - 4);
  if (trailer != Crc32(bytes.data(), bytes.size() - 4)) {
    return CorruptManifest("checksum mismatch", path);
  }
  const uint32_t format_version = LoadLE32(bytes.data() + 8);
  if (format_version != kManifestFormatVersion) {
    return Status::InvalidArgument(
        "unsupported manifest format version " +
        std::to_string(format_version) + " (this build reads " +
        std::to_string(kManifestFormatVersion) + "): " + path);
  }
  SnapshotManifest out;
  out.partition_function = LoadLE32(bytes.data() + 12);
  const uint32_t num_shards = LoadLE32(bytes.data() + 16);
  out.version = LoadLE64(bytes.data() + 20);
  if (num_shards == 0 || num_shards > kMaxManifestShards) {
    return CorruptManifest("implausible shard count", path);
  }
  size_t cursor = kManifestFixedHeader;
  const size_t payload_end = bytes.size() - 4;
  out.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (payload_end - cursor < 16) {
      return CorruptManifest("truncated shard row", path);
    }
    ShardBlobRef shard;
    shard.file_size = LoadLE64(bytes.data() + cursor);
    shard.header_crc = LoadLE32(bytes.data() + cursor + 8);
    const uint32_t path_len = LoadLE32(bytes.data() + cursor + 12);
    cursor += 16;
    if (path_len == 0 || path_len > kMaxManifestPathLen ||
        payload_end - cursor < path_len) {
      return CorruptManifest("implausible shard path length", path);
    }
    shard.path.assign(reinterpret_cast<const char*>(bytes.data() + cursor),
                      path_len);
    cursor += path_len;
    out.shards.push_back(std::move(shard));
  }
  if (cursor != payload_end) {
    return CorruptManifest("trailing bytes after shard rows", path);
  }
  return out;
}

Result<ShardBlobRef> SnapshotIo::DescribeBlob(const std::string& blob_path,
                                              const std::string& stored_path) {
  std::ifstream in(blob_path, std::ios::binary);
  if (!in.is_open()) return IoError("cannot open", blob_path);
  uint8_t header[kHeaderSize];
  if (!in.read(reinterpret_cast<char*>(header), kHeaderSize)) {
    return Corrupt("shorter than the file header", blob_path);
  }
  if (std::memcmp(header, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Corrupt("bad magic", blob_path);
  }
  ShardBlobRef ref;
  ref.path = stored_path;
  // The header records the exact file size and carries its own CRC over
  // bytes [0, 60); both double as the manifest's content pin.
  ref.file_size = LoadLE64(header + 16);
  ref.header_crc = LoadLE32(header + 60);
  std::error_code ec;
  const uint64_t actual = std::filesystem::file_size(blob_path, ec);
  if (ec || actual != ref.file_size) {
    return Corrupt("file size mismatch (truncated or padded)", blob_path);
  }
  if (ref.header_crc != Crc32(header, 60)) {
    return Corrupt("header checksum mismatch", blob_path);
  }
  return ref;
}

Status SnapshotIo::VerifyBlobRef(const ShardBlobRef& ref,
                                 const std::string& blob_path) {
  Result<ShardBlobRef> actual = DescribeBlob(blob_path, ref.path);
  if (!actual.ok()) return actual.status();
  if (actual->file_size != ref.file_size ||
      actual->header_crc != ref.header_crc) {
    return Status::InvalidArgument(
        "snapshot blob does not match its manifest pin (stale or foreign "
        "blob): " + blob_path);
  }
  return Status::OK();
}

Result<SnapshotFileKind> SnapshotIo::Probe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return IoError("cannot open", path);
  char magic[8] = {};
  if (!in.read(magic, sizeof(magic))) {
    return Status::InvalidArgument("file too short to classify: " + path);
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) == 0) {
    return SnapshotFileKind::kBlob;
  }
  if (std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) == 0) {
    return SnapshotFileKind::kManifest;
  }
  return Status::InvalidArgument(
      "not a snapshot blob or manifest (unknown magic): " + path);
}

std::string ResolveAgainstManifest(const std::string& manifest_path,
                                   const std::string& shard_path) {
  const std::filesystem::path shard(shard_path);
  if (shard.is_absolute()) return shard_path;
  const std::filesystem::path base =
      std::filesystem::path(manifest_path).parent_path();
  return (base / shard).string();
}

}  // namespace sqp
