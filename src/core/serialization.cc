#include "core/serialization.h"

#include <fstream>

#include "util/file_io.h"

namespace sqp {

Status SaveDictionary(const QueryDictionary& dictionary,
                      const std::string& path) {
  std::string text;
  for (size_t id = 0; id < dictionary.size(); ++id) {
    text += dictionary.Text(static_cast<QueryId>(id));
    text += '\n';
  }
  return WriteFileAtomically(
      {reinterpret_cast<const uint8_t*>(text.data()), text.size()}, path);
}

Status LoadDictionary(const std::string& path, QueryDictionary* dictionary) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  QueryDictionary loaded;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    loaded.Intern(line);
  }
  *dictionary = std::move(loaded);
  return Status::OK();
}

}  // namespace sqp
