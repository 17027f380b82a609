#include "core/snapshot_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/blob_format.h"
#include "log/shard_partitioner.h"
#include "util/byte_io.h"
#include "util/file_io.h"

namespace sqp {
namespace {

static_assert(kSnapshotFormatVersion == serving::kBlobFormatVersion,
              "snapshot_io and blob_format disagree on the format version");
static_assert(sizeof(kSnapshotMagic) == sizeof(serving::kBlobMagic));

constexpr size_t kHeaderSize = serving::kBlobHeaderSize;

Status IoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path);
}

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::InvalidArgument("corrupt snapshot blob (" + what +
                                 "): " + path);
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
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return IoError("rename failed", path);
  }
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
  return Status::OK();
}

/// Binds the blob `bytes` read from `path`; errors name the file.
Result<std::shared_ptr<const CompactSnapshot>> BindFile(
    const std::string& path, std::shared_ptr<const uint8_t> bytes,
    size_t size, bool mapped, const SnapshotLoadOptions& options) {
  Result<std::shared_ptr<const CompactSnapshot>> bound =
      CompactSnapshot::FromBlob(std::move(bytes), size, mapped,
                                options.verify_checksums);
  if (!bound.ok()) {
    return Status(bound.status().code(),
                  bound.status().message() + ": " + path);
  }
  return bound;
}

}  // namespace

Status SnapshotIo::Save(const CompactSnapshot& snapshot,
                        const std::string& path) {
  return WriteFileAtomically(snapshot.blob_bytes(), path);
}

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::Load(
    const std::string& path, const SnapshotLoadOptions& options) {
  auto bytes = std::make_shared<std::vector<uint8_t>>();
  SQP_RETURN_IF_ERROR(ReadWholeFile(path, bytes.get()));
  return BindFile(path, std::shared_ptr<const uint8_t>(bytes, bytes->data()),
                  bytes->size(), /*mapped=*/false, options);
}

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::Map(
    const std::string& path, const SnapshotLoadOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return IoError("cannot stat", path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Corrupt("empty file", path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return IoError("mmap failed", path);
#ifdef MADV_HUGEPAGE
  // Best effort: the CSR pools are the random-access arrays that profit
  // from fewer dTLB misses; a kernel without THP just refuses the advice.
  ::madvise(base, size, MADV_HUGEPAGE);
#endif
  std::shared_ptr<const uint8_t> mapping(
      static_cast<const uint8_t*>(base), [size](const uint8_t* p) {
        ::munmap(const_cast<uint8_t*>(p), size);
      });
  return BindFile(path, std::move(mapping), size, /*mapped=*/true, options);
}

// ------------------------------------------------------------- manifests

namespace {

constexpr size_t kManifestFixedHeader = 8 + 4 + 4 + 4 + 8;  // pre-shard bytes
constexpr size_t kManifestRowHeader = 8 + 4 + 4;  // size, crc, path length
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
  size_t size = kManifestFixedHeader + 4;  // + the trailing CRC
  for (const ShardBlobRef& shard : manifest.shards) {
    if (shard.path.empty() || shard.path.size() > kMaxManifestPathLen) {
      return Status::InvalidArgument("manifest shard path empty or too long");
    }
    size += kManifestRowHeader + shard.path.size();
  }
  std::vector<uint8_t> bytes(size);
  ByteWriter w(bytes.data());
  w.Bytes(kManifestMagic, sizeof(kManifestMagic));
  w.U32(kManifestFormatVersion);
  w.U32(manifest.partition_function);
  w.U32(manifest.num_shards());
  w.U64(manifest.version);
  for (const ShardBlobRef& shard : manifest.shards) {
    w.U64(shard.file_size);
    w.U32(shard.header_crc);
    w.U32(static_cast<uint32_t>(shard.path.size()));
    w.Bytes(shard.path.data(), shard.path.size());
  }
  w.U32(Crc32(bytes.data(), size - 4));
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
  // The size check above guarantees the fixed header; past it, the reader
  // bounds every shard row by the bytes before the trailing CRC.
  ByteReader r(bytes.data() + sizeof(kManifestMagic),
               bytes.size() - sizeof(kManifestMagic) - 4);
  uint32_t format_version = 0;
  r.U32(&format_version);
  if (format_version != kManifestFormatVersion) {
    return Status::InvalidArgument(
        "unsupported manifest format version " +
        std::to_string(format_version) + " (this build reads " +
        std::to_string(kManifestFormatVersion) + "): " + path);
  }
  SnapshotManifest out;
  uint32_t num_shards = 0;
  r.U32(&out.partition_function);
  r.U32(&num_shards);
  r.U64(&out.version);
  if (num_shards == 0 || num_shards > kMaxManifestShards) {
    return CorruptManifest("implausible shard count", path);
  }
  out.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardBlobRef shard;
    uint32_t path_len = 0;
    if (!r.U64(&shard.file_size) || !r.U32(&shard.header_crc) ||
        !r.U32(&path_len)) {
      return CorruptManifest("truncated shard row", path);
    }
    const uint8_t* path_bytes = nullptr;
    if (path_len == 0 || path_len > kMaxManifestPathLen ||
        !r.Bytes(path_len, &path_bytes)) {
      return CorruptManifest("implausible shard path length", path);
    }
    shard.path.assign(reinterpret_cast<const char*>(path_bytes), path_len);
    out.shards.push_back(std::move(shard));
  }
  if (r.remaining() != 0) {
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

Result<SnapshotManifest> SnapshotIo::LoadRoutableManifest(
    const std::string& path) {
  Result<SnapshotManifest> manifest = LoadManifest(path);
  if (manifest.ok() &&
      manifest->partition_function != kShardPartitionLastQueryFnv1a) {
    return Status::InvalidArgument(
        "manifest partition function " +
        std::to_string(manifest->partition_function) +
        " is not the last-query FNV-1a scheme this build routes with: " +
        path);
  }
  return manifest;
}

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::MapShard(
    const SnapshotManifest& manifest, const std::string& manifest_path,
    size_t s, const SnapshotLoadOptions& options) {
  const ShardBlobRef& ref = manifest.shards[s];
  const std::string blob_path =
      ResolveAgainstManifest(manifest_path, ref.path);
  SQP_RETURN_IF_ERROR(VerifyBlobRef(ref, blob_path));
  return Map(blob_path, options);
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

std::string ShardBlobName(const std::string& manifest_path, size_t shard) {
  return std::filesystem::path(manifest_path).filename().string() +
         ".shard" + std::to_string(shard);
}

}  // namespace sqp
