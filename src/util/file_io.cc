#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
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

Status WriteFileAtomically(std::span<const uint8_t> bytes,
                           const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IOError("cannot open: " + tmp_path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return Status::IOError("write failed: " + tmp_path);
    }
  }
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return Status::IOError("fsync failed: " + tmp_path);
    }
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return Status::IOError("rename failed: " + path);
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

}  // namespace sqp
