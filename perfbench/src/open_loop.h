#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

// The open-loop request generator: one thread sends on a Poisson schedule
// whatever the system's speed, and every request is timed from when it was
// due, so a stall also charges the requests that came due behind it.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

/// Arrival offsets in ns from the window start: a Poisson process of
/// `rate_rps` over `seconds`, drawn from `seed`.
std::vector<int64_t> PoissonSchedule(double rate_rps, double seconds,
                                     uint64_t seed);

struct SentRequest {
  int64_t due_ns = 0;   // absolute steady-clock time it was due
  int64_t send_ns = 0;  // when the generator called send
  int64_t done_ns = 0;  // when send returned
  bool ok = false;

  double latency_us() const { return (done_ns - due_ns) / 1e3; }
  /// Time the request waited before it could be sent (behind the previous
  /// request, or the generator itself running late).
  double queue_delay_us() const { return (send_ns - due_ns) / 1e3; }
};

/// Sends request i by calling `send(i)` at `start_ns + offsets_ns[i]` from
/// the calling thread. The thread sleeps with 1 ns timer slack until just
/// before each due time and spins the rest. `send` returns whether the
/// request succeeded. One caller thread only: send is never concurrent.
std::vector<SentRequest> RunOpenLoop(std::span<const int64_t> offsets_ns,
                                     int64_t start_ns,
                                     const std::function<bool(size_t)>& send);

/// How late the generator itself ran for each request: send time minus the
/// later of its due time and the previous request's completion. Validity
/// only; the system under test cannot move it.
std::vector<double> GeneratorLagUs(std::span<const SentRequest> requests);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
