#ifndef SQP_UTIL_EDIT_DISTANCE_H_
#define SQP_UTIL_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace sqp {

/// Levenshtein distance between two strings (character granularity); used by
/// the synthetic spelling-change pattern and its tests.
size_t EditDistance(std::string_view a, std::string_view b);

}  // namespace sqp

#endif  // SQP_UTIL_EDIT_DISTANCE_H_
