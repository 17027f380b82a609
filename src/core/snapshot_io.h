#ifndef SQP_CORE_SNAPSHOT_IO_H_
#define SQP_CORE_SNAPSHOT_IO_H_

/// Persistence for the compact serving snapshot: one versioned,
/// memory-mappable blob per model generation, so a serving replica boots
/// in O(file size) page-ins instead of retraining from the corpus.
///
/// A CompactSnapshot already IS its blob (core/compact_snapshot.h): the
/// layout, its checksums and its validation live in core/blob_format.h,
/// shared with the slim embedded predictor. This file only moves those
/// bytes between memory and files:
///
///   - Save writes CompactSnapshot::blob_bytes() atomically;
///   - Load reads a file into an owned buffer and binds it;
///   - Map maps a file read-only (advising transparent huge pages) and
///     binds the mapping, so the replica serves straight out of the page
///     cache; on hosts without POSIX mmap it is Load.
///
/// Binding verifies every section CRC32 by default and the structure
/// always, and rejects corrupt or truncated input with a Status error —
/// never undefined behavior. The full layout diagram lives in
/// docs/ARCHITECTURE.md.
///
/// The format version is a compatibility contract: readers accept exactly
/// kSnapshotFormatVersion and CI pins a committed golden blob (see
/// tests/data/) so silent layout drift fails the build. The snapshot
/// manifest of a sharded fleet is defined here too.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "util/status.h"

namespace sqp {

/// On-disk format version this build writes and accepts.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// The 8-byte magic at offset 0 of every snapshot blob.
inline constexpr char kSnapshotMagic[8] = {'S', 'Q', 'P', 'S',
                                           'N', 'A', 'P', '1'};

/// Manifest format version this build writes and accepts (a contract of
/// its own, pinned by a committed golden manifest in CI exactly like the
/// blob format).
inline constexpr uint32_t kManifestFormatVersion = 1;

/// The 8-byte magic at offset 0 of every snapshot manifest.
inline constexpr char kManifestMagic[8] = {'S', 'Q', 'P', 'M',
                                           'A', 'N', 'I', '1'};

/// One shard blob as pinned by a manifest: where it lives (relative to the
/// manifest's own directory, so a snapshot directory can be moved or
/// rsync'ed wholesale) and *which bytes* are expected there. The identity
/// pin is the blob's size plus its own header CRC32: the header covers the
/// section-table checksum, the table covers every section checksum, so two
/// blobs with equal (size, header_crc) have equal content with CRC
/// confidence — and verifying the pin costs a 64-byte read, not a full
/// blob pass.
struct ShardBlobRef {
  std::string path;
  uint64_t file_size = 0;
  uint32_t header_crc = 0;
};

/// The fleet boot artifact of a sharded deployment: a versioned,
/// checksummed index of per-shard snapshot blobs plus the partition
/// function that routed the training corpus. ShardedEngine::LoadAndPublish
/// (serve/sharded_engine.h) cold-boots every shard from one manifest and
/// refuses shard-count or partition-function mismatches — the manifest is
/// the single source of truth for how the id space was split.
///
/// On-disk layout (little-endian, written atomically like blobs):
///   magic "SQPMANI1" | u32 format version | u32 partition function id
///   | u32 shard count | u64 model version
///   | per shard: u64 blob size, u32 blob header CRC32,
///                u32 path length, path bytes
///   | u32 CRC32 of everything above
struct SnapshotManifest {
  uint32_t partition_function = 0;  // log/shard_partitioner.h ids
  uint64_t version = 0;             // model generation across the fleet
  std::vector<ShardBlobRef> shards;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards.size());
  }
};

/// What kind of snapshot artifact a file is, by magic. Lets callers (e.g.
/// recommender_cli --load-snapshot) accept either and route accordingly.
enum class SnapshotFileKind { kBlob, kManifest };

struct SnapshotLoadOptions {
  /// Verify every section CRC32 before trusting the payload (one
  /// sequential pass over the blob — still orders of magnitude cheaper
  /// than retraining). Structural validation (bounds, CSR monotonicity,
  /// id ranges) always runs regardless. Leave on outside benchmarks.
  bool verify_checksums = true;
};

/// Save / load / map entry points for the snapshot blob format.
class SnapshotIo {
 public:
  /// Writes `snapshot`'s blob bytes to `path`, atomically: the bytes land
  /// in `path + ".tmp"` first, are fsync'ed, and are renamed over `path`
  /// only after a complete write — a reader (or a crashed writer) never
  /// observes a half-written blob at `path`.
  static Status Save(const CompactSnapshot& snapshot,
                     const std::string& path);

  /// Restores a blob by copy: the file is read into an owned buffer that
  /// the snapshot serves from, independent of the file afterwards. Serves
  /// bit-identically to the snapshot Save was given.
  static Result<std::shared_ptr<const CompactSnapshot>> Load(
      const std::string& path, const SnapshotLoadOptions& options = {});

  /// Restores a blob zero-copy: maps the file read-only, validates it and
  /// serves straight out of the mapping, which the snapshot unmaps when it
  /// dies. The cold-boot path for serving replicas (bench/coldstart
  /// measures it against train-from-scratch).
  static Result<std::shared_ptr<const CompactSnapshot>> Map(
      const std::string& path, const SnapshotLoadOptions& options = {});

  // ----- sharded-fleet manifests -----

  /// Writes `manifest` to `path` atomically (tmp + fsync + rename, as
  /// Save). Returns InvalidArgument on an empty shard list.
  static Status SaveManifest(const SnapshotManifest& manifest,
                             const std::string& path);

  /// Restores and validates a manifest: magic, format version, CRC32
  /// trailer and structural sanity. Does NOT touch the referenced blobs —
  /// pair with VerifyBlobRef / SnapshotIo::Map per shard.
  static Result<SnapshotManifest> LoadManifest(const std::string& path);

  /// Builds the manifest row for an existing blob: reads its header,
  /// validates the magic, and pins (file_size, header_crc). `stored_path`
  /// is what LoadManifest will hand back (normally the path relative to
  /// the manifest's directory).
  static Result<ShardBlobRef> DescribeBlob(const std::string& blob_path,
                                           const std::string& stored_path);

  /// Checks (64-byte read) that the blob at `blob_path` is the one `ref`
  /// pinned: same size, same header CRC. Catches a stale or foreign blob
  /// swapped under a manifest even when checksum verification is off.
  static Status VerifyBlobRef(const ShardBlobRef& ref,
                              const std::string& blob_path);

  /// Classifies a snapshot artifact by its magic bytes; an error for
  /// unreadable files or unknown magic.
  static Result<SnapshotFileKind> Probe(const std::string& path);
};

/// Resolves a manifest-relative shard path against the manifest location
/// ("shards/s0.blob" next to "/data/fleet.manifest" ->
/// "/data/shards/s0.blob"); absolute shard paths pass through unchanged.
std::string ResolveAgainstManifest(const std::string& manifest_path,
                                   const std::string& shard_path);

}  // namespace sqp

#endif  // SQP_CORE_SNAPSHOT_IO_H_
