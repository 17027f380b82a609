#include "open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "trace.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Sleeping closer than this to a due time risks waking late; spin instead.
constexpr int64_t kSpinNs = 40'000;

void WaitUntil(int64_t due_ns) {
  int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

}  // namespace

std::vector<int64_t> PoissonSchedule(double rate_rps, double seconds,
                                     uint64_t seed) {
  sqp::Rng rng(seed);
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(rate_rps * seconds * 1.1) + 16);
  double at_s = 0.0;
  while (true) {
    at_s += rng.Exponential(rate_rps);
    if (at_s >= seconds) break;
    offsets.push_back(static_cast<int64_t>(at_s * 1e9));
  }
  return offsets;
}

std::vector<SentRequest> RunOpenLoop(std::span<const int64_t> offsets_ns,
                                     int64_t start_ns,
                                     const std::function<bool(size_t)>& send) {
  // Default timer slack (50 us) would make every sleep overshoot.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<SentRequest> out(offsets_ns.size());
  for (size_t i = 0; i < offsets_ns.size(); ++i) {
    SentRequest& request = out[i];
    request.due_ns = start_ns + offsets_ns[i];
    WaitUntil(request.due_ns);
    request.send_ns = NowNs();
    request.ok = send(i);
    request.done_ns = NowNs();
  }
  return out;
}

std::vector<double> GeneratorLagUs(std::span<const SentRequest> requests) {
  std::vector<double> lag;
  lag.reserve(requests.size());
  int64_t previous_done = 0;
  for (const SentRequest& request : requests) {
    const int64_t free_at = std::max(request.due_ns, previous_done);
    lag.push_back((request.send_ns - free_at) / 1e3);
    previous_done = request.done_ns;
  }
  return lag;
}

}  // namespace perfbench
