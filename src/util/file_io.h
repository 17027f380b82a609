#ifndef SQP_UTIL_FILE_IO_H_
#define SQP_UTIL_FILE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace sqp {

/// Reads the whole file at `path` into `out` (replacing its contents):
/// one size probe and one read, for the binary formats that parse a file
/// as one span (snapshot manifests and blobs, feedback segments).
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out);

/// Publishes `bytes` at `path` atomically: a complete, durably flushed
/// write to `path + ".tmp"`, then one rename over `path`. Readers (and
/// crashed writers) never see a partial file, a reader that already holds
/// the old file open keeps reading the old bytes, and — because the data
/// is fsync'ed before the rename — a crash right after publishing cannot
/// replace a previously good file with unflushed pages. Every persisted
/// artifact beside a snapshot (blobs, manifests, the dictionary sidecar)
/// is written through it.
Status WriteFileAtomically(std::span<const uint8_t> bytes,
                           const std::string& path);

}  // namespace sqp

#endif  // SQP_UTIL_FILE_IO_H_
