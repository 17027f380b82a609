#include "serve/admission_queue.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace sqp {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

size_t LatencyBucket(double latency_us) {
  if (!(latency_us > 1.0)) return 0;
  const auto us = static_cast<uint64_t>(latency_us);
  return std::min<size_t>(std::bit_width(us), kLatencyBuckets - 1);
}

void LaneCounters::MergeFrom(const LaneCounters& other) {
  admitted += other.admitted;
  shed_queue_full += other.shed_queue_full;
  shed_deadline += other.shed_deadline;
  expired_in_queue += other.expired_in_queue;
  expired_items += other.expired_items;
  degraded += other.degraded;
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    latency_hist[b] += other.latency_hist[b];
  }
}

void AdmissionStats::MergeFrom(const AdmissionStats& other) {
  for (size_t l = 0; l < kNumQosLanes; ++l) {
    lanes[l].MergeFrom(other.lanes[l]);
  }
}

AdmissionQueue::AdmissionQueue(AdmissionOptions options) : options_(options) {
  options_.interactive_capacity =
      std::max<size_t>(1, options_.interactive_capacity);
  options_.bulk_capacity = std::max<size_t>(1, options_.bulk_capacity);
  const double total_capacity = static_cast<double>(
      options_.interactive_capacity + options_.bulk_capacity);
  degrade_threshold_jobs_ = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(kDegradePressure * total_capacity)));
}

double AdmissionQueue::ItemsAheadLocked(QosLane lane) const {
  double ahead = static_cast<double>(running_items_) +
                 static_cast<double>(
                     waiting_items_[static_cast<size_t>(QosLane::kInteractive)]);
  if (lane == QosLane::kBulk) {
    ahead += static_cast<double>(
        waiting_items_[static_cast<size_t>(QosLane::kBulk)]);
  }
  return ahead;
}

void AdmissionQueue::MaybeGrantLocked() {
  if (busy_) return;
  for (size_t l = 0; l < kNumQosLanes; ++l) {
    std::deque<Waiter*>& lane_queue = waiting_[l];
    if (lane_queue.empty()) continue;
    Waiter* next = lane_queue.front();
    lane_queue.pop_front();
    waiting_items_[l] -= next->items;
    waiting_jobs_total_.fetch_sub(1, kRelaxed);
    next->granted = true;
    busy_ = true;
    running_items_ = next->items;
    cv_.notify_all();
    return;
  }
}

Status AdmissionQueue::Admit(QosLane lane, const Deadline& deadline,
                             size_t num_items) {
  const size_t l = static_cast<size_t>(lane);
  const Deadline::Clock::time_point now = Deadline::Clock::now();
  if (deadline.Expired(now)) {
    counters_[l].shed_deadline.fetch_add(1, kRelaxed);
    return Status::DeadlineExceeded("deadline expired before admission");
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (deadline.bounded()) {
    const double estimated_us =
        (ItemsAheadLocked(lane) + static_cast<double>(num_items)) *
        ewma_us_per_item_;
    if (estimated_us > deadline.RemainingMicros(now)) {
      counters_[l].shed_deadline.fetch_add(1, kRelaxed);
      return Status::DeadlineExceeded(
          "projected completion overruns the deadline (estimated " +
          std::to_string(static_cast<uint64_t>(estimated_us)) + "us of " +
          QosLaneName(lane) + "-visible backlog)");
    }
    if (waiting_[l].size() >= capacity(lane)) {
      counters_[l].shed_queue_full.fetch_add(1, kRelaxed);
      return Status::ResourceExhausted(
          std::string(QosLaneName(lane)) + " admission lane full (" +
          std::to_string(capacity(lane)) + " waiting jobs)");
    }
  }

  Waiter self;
  self.items = num_items;
  waiting_[l].push_back(&self);
  waiting_items_[l] += num_items;
  waiting_jobs_total_.fetch_add(1, kRelaxed);
  MaybeGrantLocked();

  if (deadline.bounded()) {
    if (!cv_.wait_until(lock, deadline.time(),
                        [&] { return self.granted; })) {
      // Timed out while waiting; leave the queue without the slot.
      std::deque<Waiter*>& lane_queue = waiting_[l];
      lane_queue.erase(std::find(lane_queue.begin(), lane_queue.end(), &self));
      waiting_items_[l] -= num_items;
      waiting_jobs_total_.fetch_sub(1, kRelaxed);
      counters_[l].expired_in_queue.fetch_add(1, kRelaxed);
      return Status::DeadlineExceeded(
          "deadline expired waiting for admission");
    }
  } else {
    cv_.wait(lock, [&] { return self.granted; });
  }
  return Status::OK();
}

void AdmissionQueue::Release(size_t items_served, double service_us) {
  std::lock_guard<std::mutex> lock(mu_);
  busy_ = false;
  running_items_ = 0;
  if (items_served > 0 && service_us > 0.0) {
    const double per_item = service_us / static_cast<double>(items_served);
    ewma_us_per_item_ = kServiceEwmaAlpha * per_item +
                        (1.0 - kServiceEwmaAlpha) * ewma_us_per_item_;
  }
  MaybeGrantLocked();
}

size_t AdmissionQueue::DegradedTopN(size_t top_n,
                                    const Deadline& deadline) const {
  if (!deadline.bounded() || top_n <= kDegradeMinTopN) {
    return top_n;
  }
  if (waiting_jobs_total_.load(kRelaxed) < degrade_threshold_jobs_) {
    return top_n;
  }
  return std::max(kDegradeMinTopN, top_n / 2);
}

void AdmissionQueue::RecordServed(QosLane lane, double latency_us,
                                  bool degraded, size_t expired_items) {
  AtomicLane& counters = counters_[static_cast<size_t>(lane)];
  counters.admitted.fetch_add(1, kRelaxed);
  counters.latency_hist[LatencyBucket(latency_us)].fetch_add(1, kRelaxed);
  if (degraded) counters.degraded.fetch_add(1, kRelaxed);
  if (expired_items > 0) {
    counters.expired_items.fetch_add(expired_items, kRelaxed);
  }
}

void AdmissionQueue::CountShed(QosLane lane, StatusCode code) {
  AtomicLane& counters = counters_[static_cast<size_t>(lane)];
  if (code == StatusCode::kResourceExhausted) {
    counters.shed_queue_full.fetch_add(1, kRelaxed);
  } else {
    counters.shed_deadline.fetch_add(1, kRelaxed);
  }
}

size_t AdmissionQueue::waiting_jobs(QosLane lane) const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_[static_cast<size_t>(lane)].size();
}

AdmissionStats AdmissionQueue::stats() const {
  AdmissionStats stats;
  for (size_t l = 0; l < kNumQosLanes; ++l) {
    const AtomicLane& in = counters_[l];
    LaneCounters& out = stats.lanes[l];
    out.admitted = in.admitted.load(kRelaxed);
    out.shed_queue_full = in.shed_queue_full.load(kRelaxed);
    out.shed_deadline = in.shed_deadline.load(kRelaxed);
    out.expired_in_queue = in.expired_in_queue.load(kRelaxed);
    out.expired_items = in.expired_items.load(kRelaxed);
    out.degraded = in.degraded.load(kRelaxed);
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      out.latency_hist[b] = in.latency_hist[b].load(kRelaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.ewma_service_us_per_item = ewma_us_per_item_;
  }
  return stats;
}

}  // namespace sqp
