#include "core/serialization.h"

#include <fstream>

#include "util/file_io.h"
#include "util/string_util.h"

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
  for (size_t line_number = 1; std::getline(in, line); ++line_number) {
    // Line k must become id k - 1 with its own text. A skipped, re-used or
    // re-normalized line would shift every later id onto the wrong string.
    const QueryId next = static_cast<QueryId>(loaded.size());
    if (line.empty() || loaded.Intern(line) != next ||
        loaded.Text(next) != line) {
      return Status::InvalidArgument(StrFormat(
          "%s line %zu is not a fresh normalized query; loading it would "
          "renumber every later id",
          path.c_str(), line_number));
    }
  }
  *dictionary = std::move(loaded);
  return Status::OK();
}

}  // namespace sqp
