#include "util/file_io.h"

#include <fstream>

namespace sqp {

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat: " + path);
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return Status::IOError("short read: " + path);
  }
  return Status::OK();
}

}  // namespace sqp
