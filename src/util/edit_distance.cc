#include "util/edit_distance.h"

#include <algorithm>
#include <vector>

namespace sqp {

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace sqp
