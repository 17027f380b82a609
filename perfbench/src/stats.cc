#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

constexpr size_t kMinBeyond = 10;

size_t RankIndex(double percentile, size_t n) {
  const double rank = std::ceil(percentile / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)) - 1, 0,
                            n - 1);
}

}  // namespace

Percentile TailPercentile(std::vector<double> values, double wanted) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t n = values.size();
  std::sort(values.begin(), values.end());
  size_t index = RankIndex(wanted, n);
  out.percentile = wanted;
  if (n - 1 - index < kMinBeyond) {
    if (n <= kMinBeyond) {
      index = RankIndex(50.0, n);
      out.percentile = 50.0;
    } else {
      index = n - 1 - kMinBeyond;
      out.percentile = 100.0 * static_cast<double>(index + 1) /
                       static_cast<double>(n);
    }
  }
  out.value = values[index];
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t index = RankIndex(50.0, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double PickGoodput(std::span<const Rung> rungs, double p90_limit_us) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (rung.p90_us <= p90_limit_us && rung.errors == 0 &&
        !rung.backlog_grows) {
      best = std::max(best, rung.rate_rps);
    }
  }
  return best;
}

bool BacklogGrows(std::span<const double> queue_delay_us, double limit_us) {
  const size_t quarter = queue_delay_us.size() / 4;
  if (quarter == 0) return false;
  const auto mean = [](std::span<const double> part) {
    return std::accumulate(part.begin(), part.end(), 0.0) /
           static_cast<double>(part.size());
  };
  const double first = mean(queue_delay_us.first(quarter));
  const double last = mean(queue_delay_us.last(quarter));
  return last - first > limit_us;
}

}  // namespace perfbench
