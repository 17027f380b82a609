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

constexpr size_t kHeaderSize = serving::kBlobHeaderSize;

Status IoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path);
}

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::InvalidArgument("corrupt snapshot blob (" + what +
                                 "): " + path);
}

/// Binds the blob `bytes` read from `path`; errors name the file.
Result<std::shared_ptr<const CompactSnapshot>> BindFile(
    const std::string& path, std::shared_ptr<const uint8_t> bytes,
    size_t size, bool mapped) {
  Result<std::shared_ptr<const CompactSnapshot>> bound =
      CompactSnapshot::FromBlob(std::move(bytes), size, mapped);
  if (!bound.ok()) {
    return Status(bound.status().code(),
                  bound.status().message() + ": " + path);
  }
  return bound;
}

/// A read-only private mapping of a whole file, unmapped when the last
/// reference dies.
struct FileMapping {
  std::shared_ptr<const uint8_t> bytes;
  size_t size = 0;
};

Result<FileMapping> MapFile(const std::string& path) {
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
  FileMapping mapping;
  mapping.size = size;
  mapping.bytes = std::shared_ptr<const uint8_t>(
      static_cast<const uint8_t*>(base), [size](const uint8_t* p) {
        ::munmap(const_cast<uint8_t*>(p), size);
      });
  return mapping;
}

}  // namespace

Status SnapshotIo::Save(const CompactSnapshot& snapshot,
                        const std::string& path) {
  return WriteFileAtomically(snapshot.blob_bytes(), path);
}

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::Load(
    const std::string& path) {
  auto bytes = std::make_shared<std::vector<uint8_t>>();
  SQP_RETURN_IF_ERROR(ReadWholeFile(path, bytes.get()));
  return BindFile(path, std::shared_ptr<const uint8_t>(bytes, bytes->data()),
                  bytes->size(), /*mapped=*/false);
}

Result<std::shared_ptr<const CompactSnapshot>> SnapshotIo::Map(
    const std::string& path) {
  Result<FileMapping> mapping = MapFile(path);
  if (!mapping.ok()) return mapping.status();
  return BindFile(path, std::move(mapping->bytes), mapping->size,
                  /*mapped=*/true);
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
  if (std::memcmp(header, serving::kBlobMagic, sizeof(serving::kBlobMagic)) !=
      0) {
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
    size_t s) {
  const ShardBlobRef& ref = manifest.shards[s];
  const std::string blob_path =
      ResolveAgainstManifest(manifest_path, ref.path);
  Result<FileMapping> mapping = MapFile(blob_path);
  if (!mapping.ok()) return mapping.status();
  // The pin is checked on the very bytes that will serve: a blob renamed
  // over the path after this point cannot slip in under the old pin.
  if (mapping->size != ref.file_size || mapping->size < kHeaderSize ||
      LoadLE32(mapping->bytes.get() + 60) != ref.header_crc) {
    return Status::InvalidArgument(
        "snapshot blob does not match its manifest pin (stale or foreign "
        "blob): " + blob_path);
  }
  return BindFile(blob_path, std::move(mapping->bytes), mapping->size,
                  /*mapped=*/true);
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
