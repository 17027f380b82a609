#include "core/serialization.h"

#include <fstream>

namespace sqp {

Status SaveDictionary(const QueryDictionary& dictionary,
                      const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open " + path);
  for (size_t id = 0; id < dictionary.size(); ++id) {
    out << dictionary.Text(static_cast<QueryId>(id)) << '\n';
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
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
