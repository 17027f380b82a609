#ifndef SQP_CORE_SERIALIZATION_H_
#define SQP_CORE_SERIALIZATION_H_

#include <string>

#include "log/query_dictionary.h"
#include "util/status.h"

namespace sqp {

/// Persists the query dictionary (one normalized query per line, in id
/// order) next to a persisted snapshot (the CLI's `.dict` sidecar),
/// atomically like the blobs and the manifest beside it
/// (WriteFileAtomically in util/file_io.h).
Status SaveDictionary(const QueryDictionary& dictionary,
                      const std::string& path);

/// Restores a dictionary saved by SaveDictionary; ids are reassigned in
/// file order, so they match the saving process exactly.
Status LoadDictionary(const std::string& path, QueryDictionary* dictionary);

}  // namespace sqp

#endif  // SQP_CORE_SERIALIZATION_H_
