#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// What every workload shares: the run options, seed derivation, the test
// pairs answers are scored on, answer comparison, the training-layer
// breakdown of set-up, the watchdog and the result report.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/model_snapshot.h"
#include "harness.h"
#include "serve/recommender_engine.h"
#include "trace.h"

namespace perfbench {

using sqp::QueryId;
using sqp::Recommendation;

/// Recommendations per request; hit_rate_at5 scores the top 5.
inline constexpr size_t kTopN = 5;
/// Contexts per RecommendMany batch.
inline constexpr size_t kBatchSize = 256;
/// Depth D of the paper's MVMM components (Sec. V-G).
inline constexpr size_t kMaxDepth = 5;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for this run's blobs, manifests and feedback logs; removed
  /// at exit. Traces are written next to it.
  std::string work_dir;
  std::string trace_dir;
};

/// Everything random in a run derives from the workload seed: the
/// harness's four corpus seeds, the arrival schedule, the request order
/// and the explorer's click/exploration stream.
struct Seeds {
  sqp::bench::HarnessConfig harness;
  uint64_t arrivals = 0;
  uint64_t order = 0;
  uint64_t clicks = 0;
};
Seeds DeriveSeeds(uint64_t seed, size_t train_sessions, size_t test_sessions);

/// One (context, true next query) pair of the test split.
struct TestPair {
  std::vector<QueryId> context;
  QueryId next = sqp::kInvalidQueryId;
};

/// Every (prefix, next) pair of the test sessions, contexts truncated to
/// the last kMaxDepth queries, in a seeded order.
std::vector<TestPair> TestPairs(const sqp::bench::Harness& harness,
                                uint64_t order_seed);

/// Retrain cycle `cycle`'s fresh sessions: test sessions
/// [cycle * count, (cycle + 1) * count), wrapping around the split.
std::vector<sqp::AggregatedSession> FreshSessions(
    const sqp::bench::Harness& harness, size_t cycle, size_t count);

/// Same covered flag, matched length, query ids and score bits.
bool SameAnswer(const Recommendation& a, const Recommendation& b);

/// Slot of `next` in the served list, or -1.
int SlotOf(const Recommendation& rec, QueryId next);

/// Model options every workload trains with (the paper's default MVMM).
sqp::MvmmOptions ModelOptions();

/// The training layers of set-up, timed one by one (count, PST, full
/// build, compact pack, save, map, and one cycle's index append). Only the
/// traced run calls this; the untraced set-up runs the production path.
void TraceTrainingLayers(const sqp::bench::Harness& harness,
                         const std::string& work_dir, int repetitions,
                         SpanBuffer* spans);

/// Restricts the calling thread to CPU `cpu` (modulo the CPU count), or
/// to every CPU for -1. Threads it starts afterwards inherit the mask.
void PinThisThread(int cpu);

/// Keeps every CPU awake while a workload measures: one thread per CPU,
/// pinned and at SCHED_IDLE priority, spins until destroyed. A SCHED_IDLE
/// thread runs only when its CPU has nothing else to run, so the scheduler
/// never delays the program for it; what it removes is the cost of waking
/// a halted virtual CPU, which on a virtual machine is host scheduling
/// latency (milliseconds under host load), not work the program does.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Fails a wedged socket or retrain with exit code 3 instead of a hang.
class Watchdog {
 public:
  explicit Watchdog(double limit_seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Names the stage a timeout would report.
  void Stage(const char* stage) { stage_.store(stage); }

 private:
  std::atomic<const char*> stage_{"start"};
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// The run's result: metrics by name, failure accounting and the run
/// record. Print() writes the human-readable lines, then the result JSON
/// as the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Record(const std::string& key, const std::string& value);
  void Record(const std::string& key, double value);
  void Count(uint64_t attempted, uint64_t failed);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print(const RunOptions& options) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Adds `metric`: the median per-item duration of the spans named `span`,
/// in ns times `scale`; and `tail_metric`, its p99, when not empty.
void LayerDuration(const SpanSummaries& summaries, const std::string& span,
                   const std::string& metric, double scale,
                   const std::string& unit, Report* report,
                   const std::string& tail_metric = "");

/// The walk probe of a traced run: for `seconds`, 256 contexts per span,
/// times RecommenderEngine::Recommend on `model` (serve.engine.recommend),
/// the bare walk with caller scratch (core.walk.recommend) and its descent
/// alone (core.walk.descent) over the same contexts, then 200 publishes of
/// `model` (serve.engine.publish). `model` must be a compact snapshot.
/// Adds core.walk.covered_ratio.
void ProbeWalk(std::shared_ptr<const sqp::ServingSnapshot> model,
               std::span<const sqp::ContextRef> contexts, double seconds,
               SpanBuffer* spans, Report* report);

/// The lane probe of a traced run: the same batches served from `model` at
/// one lane and at the default lane count, `seconds` each, with the CPUs
/// kept awake. Adds serve.worker_pool.* and, from the default-lane engine,
/// serve.admission.*; `batch_spans` (optional) receives its batches.
void ProbeLanes(std::shared_ptr<const sqp::ServingSnapshot> model,
                std::span<const sqp::ContextRef> contexts, double seconds,
                SpanBuffer* batch_spans, Report* report);

/// Adds the metrics of ProbeWalk's spans.
void AddWalkMetrics(const SpanSummaries& summaries, Report* report);

/// Adds the set-up layer metrics from TraceTrainingLayers' spans.
void AddTrainingLayerMetrics(const SpanSummaries& summaries,
                             uint64_t blob_bytes, Report* report);

/// Writes the trace, prints each span name's self time and adds
/// bench.trace_overhead_pct: how much more a unit of the workload cost
/// traced than untraced.
void FinishTrace(const Trace& trace, const RunOptions& options,
                 double untraced_cost, double traced_cost, Report* report);

int RunInteractiveTcp(const RunOptions& options, Report* report);
int RunClosedLoop(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
