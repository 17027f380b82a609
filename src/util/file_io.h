#ifndef SQP_UTIL_FILE_IO_H_
#define SQP_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace sqp {

/// Reads the whole file at `path` into `out` (replacing its contents):
/// one size probe and one read, for the binary formats that parse a file
/// as one span (snapshot manifests and blobs, feedback segments).
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out);

}  // namespace sqp

#endif  // SQP_UTIL_FILE_IO_H_
