#ifndef SQP_SERVE_WORKER_POOL_H_
#define SQP_SERVE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sqp {

/// A fixed pool executing "parallel for" jobs for the serving layer:
/// Run(num_tasks, fn) partitions [0, num_tasks) across the pool's workers
/// *and the calling thread* through a shared atomic cursor, and returns once
/// every index has executed.
///
/// `num_lanes` is the total parallelism including the caller, so a pool of
/// one lane spawns no threads and Run degenerates to an inline loop — the
/// single-threaded configuration pays no synchronization at all.
///
/// One job runs at a time; concurrent Run calls must be serialized by the
/// caller (RecommenderEngine runs a job only while it holds its admission
/// queue's slot, serve/admission_queue.h). The task
/// callback receives (task_index, lane) with lane < num_lanes and lane 0 the
/// caller, so per-lane scratch needs no further locking.
class WorkerPool {
 public:
  explicit WorkerPool(size_t num_lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_lanes() const { return threads_.size() + 1; }

  /// Executes fn(i, lane) for every i in [0, num_tasks), blocking until all
  /// tasks complete. fn must be safe to call concurrently from different
  /// lanes (distinct lanes never share a task index).
  void Run(size_t num_tasks, const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerMain(size_t lane);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  /// Job handoff state, guarded by mu_. generation_ increments per job so
  /// workers can tell a fresh job from a spurious wake; lanes_active_ counts
  /// worker lanes still inside the current job.
  uint64_t generation_ = 0;
  size_t lanes_active_ = 0;
  const std::function<void(size_t, size_t)>* job_ = nullptr;
  size_t job_tasks_ = 0;
  std::atomic<size_t> next_task_{0};
};

}  // namespace sqp

#endif  // SQP_SERVE_WORKER_POOL_H_
