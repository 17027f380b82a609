#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Order statistics and the interactive_tcp ladder rules. Pure functions,
// so tests/perfbench_tests.cc can pin them without running a workload.

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// A percentile as reported: the value, the percentile it actually is
/// (which can be lower than the one asked for) and the sample count.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile `wanted` (0..100] of `values`, lowered to the
/// highest percentile that still leaves at least ten samples beyond it.
/// Fewer than eleven samples fall back to the median.
Percentile TailPercentile(std::vector<double> values, double wanted);

/// Nearest-rank median (0 for no samples).
double Median(std::vector<double> values);

/// One rung of the interactive_tcp rate ladder.
struct Rung {
  double rate_rps = 0.0;
  double p90_us = 0.0;
  size_t errors = 0;
  bool backlog_grows = false;
};

/// goodput_rps: the highest ladder rate whose p90 meets `p90_limit_us`,
/// with no errors and no growing backlog; 0 when no rung qualifies.
double PickGoodput(std::span<const Rung> rungs, double p90_limit_us);

/// True when the queueing delay a request saw before it could be sent
/// (send time minus due time, in arrival order) grows over the window: the
/// mean over the last quarter exceeds the mean over the first quarter by
/// more than `limit_us`. A stable queue keeps both quarters alike; an
/// overloaded one adds delay with every arrival.
bool BacklogGrows(std::span<const double> queue_delay_us, double limit_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
