// AdmissionQueue unit tests: grant/priority/FIFO order, shed-on-arrival
// (expired and EWMA-unmeetable deadlines), shed-on-overflow, expiry while
// queued, EWMA updates, and the degrade ladder. Threads are used only
// where a waiter must actually wait; every ordering the tests assert is
// forced by explicit holder/release sequencing, not timing luck.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission_queue.h"

namespace sqp {
namespace {

using std::chrono::milliseconds;

Deadline FarDeadline() { return Deadline::After(std::chrono::seconds(30)); }

/// Spin until `queue` shows `jobs` waiters in `lane` (the enqueue happens
/// on another thread; Admit holds no lock while its waiter blocks).
void AwaitWaiters(const AdmissionQueue& queue, QosLane lane, size_t jobs) {
  while (queue.waiting_jobs(lane) < jobs) {
    std::this_thread::yield();
  }
}

TEST(AdmissionQueueTest, GrantsImmediatelyWhenIdle) {
  AdmissionQueue queue;
  ASSERT_TRUE(queue.Admit(QosLane::kInteractive, FarDeadline(), 10).ok());
  queue.Release(10, 5.0);
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 10).ok());
  queue.Release(10, 5.0);
}

TEST(AdmissionQueueTest, ShedsOnArrivalWhenDeadlineAlreadyExpired) {
  AdmissionQueue queue;
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - milliseconds(1));
  const Status status = queue.Admit(QosLane::kInteractive, expired, 1);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queue.stats().lane(QosLane::kInteractive).shed_deadline, 1u);
  // The slot was never taken; a live request still gets in.
  ASSERT_TRUE(queue.Admit(QosLane::kInteractive, FarDeadline(), 1).ok());
  queue.Release(1, 1.0);
}

TEST(AdmissionQueueTest, ShedsOnArrivalWhenEstimateOverrunsDeadline) {
  AdmissionQueue queue;
  // One observed job of 5 s for 1 item: 0.2 * 5e6 + 0.8 * 0.5 puts the
  // estimate at ~1 s per item.
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
  queue.Release(1, 5e6);
  // 100 items at 1 s each cannot finish within 10 ms.
  const Status status =
      queue.Admit(QosLane::kBulk, Deadline::After(milliseconds(10)), 100);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queue.stats().lane(QosLane::kBulk).shed_deadline, 1u);
  // The same job with no deadline is admitted regardless of the estimate.
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 100).ok());
  queue.Release(100, 100.0);
}

TEST(AdmissionQueueTest, ShedsOnOverflowButNeverShedsUnboundedJobs) {
  AdmissionOptions options;
  options.bulk_capacity = 1;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());

  // One waiter fills the bulk lane.
  std::thread waiter([&] {
    ASSERT_TRUE(queue.Admit(QosLane::kBulk, FarDeadline(), 1).ok());
    queue.Release(1, 1.0);
  });
  AwaitWaiters(queue, QosLane::kBulk, 1);

  // A deadline-carrying arrival at the full lane is refused...
  const Status overflow = queue.Admit(QosLane::kBulk, FarDeadline(), 1);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().lane(QosLane::kBulk).shed_queue_full, 1u);

  // ...but an unbounded-deadline one just waits.
  std::thread unbounded([&] {
    ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
    queue.Release(1, 1.0);
  });
  AwaitWaiters(queue, QosLane::kBulk, 2);

  queue.Release(1, 1.0);
  waiter.join();
  unbounded.join();
}

TEST(AdmissionQueueTest, ExpiresWhileQueuedWithoutTakingTheSlot) {
  AdmissionQueue queue;
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());

  const Status status =
      queue.Admit(QosLane::kInteractive, Deadline::After(milliseconds(20)),
                  1);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queue.stats().lane(QosLane::kInteractive).expired_in_queue, 1u);
  EXPECT_EQ(queue.waiting_jobs(QosLane::kInteractive), 0u);

  queue.Release(1, 1.0);
  // The expired waiter must not have consumed the freed slot.
  ASSERT_TRUE(queue.Admit(QosLane::kInteractive, FarDeadline(), 1).ok());
  queue.Release(1, 1.0);
}

TEST(AdmissionQueueTest, InteractiveIsGrantedBeforeEarlierBulk) {
  AdmissionQueue queue;
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());

  std::atomic<int> order{0};
  int bulk_order = 0;
  int interactive_order = 0;
  std::thread bulk([&] {
    ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
    bulk_order = order.fetch_add(1) + 1;
    queue.Release(1, 1.0);
  });
  AwaitWaiters(queue, QosLane::kBulk, 1);  // bulk waiter is queued first
  std::thread interactive([&] {
    ASSERT_TRUE(
        queue.Admit(QosLane::kInteractive, Deadline::None(), 1).ok());
    interactive_order = order.fetch_add(1) + 1;
    queue.Release(1, 1.0);
  });
  AwaitWaiters(queue, QosLane::kInteractive, 1);

  queue.Release(1, 1.0);
  bulk.join();
  interactive.join();
  EXPECT_EQ(interactive_order, 1);  // jumped ahead of the earlier bulk job
  EXPECT_EQ(bulk_order, 2);
}

TEST(AdmissionQueueTest, FifoWithinOneLane) {
  AdmissionQueue queue;
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());

  std::atomic<int> order{0};
  std::vector<int> granted(3, 0);
  std::vector<std::thread> waiters;
  for (int w = 0; w < 3; ++w) {
    waiters.emplace_back([&, w] {
      ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
      granted[static_cast<size_t>(w)] = order.fetch_add(1) + 1;
      queue.Release(1, 1.0);
    });
    AwaitWaiters(queue, QosLane::kBulk, static_cast<size_t>(w) + 1);
  }
  queue.Release(1, 1.0);
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(granted[0], 1);
  EXPECT_EQ(granted[1], 2);
  EXPECT_EQ(granted[2], 3);
}

TEST(AdmissionQueueTest, ReleaseFeedsTheEwmaEstimate) {
  AdmissionQueue queue;
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 10).ok());
  queue.Release(10, 1000.0);  // 100 us/item observed
  // 0.2 * 100 + 0.8 * 0.5 = 20.4
  EXPECT_NEAR(queue.stats().ewma_service_us_per_item, 20.4, 1e-9);
  // A fully expired job (0 served) must not poison the estimate.
  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 10).ok());
  queue.Release(0, 1000.0);
  EXPECT_NEAR(queue.stats().ewma_service_us_per_item, 20.4, 1e-9);
}

TEST(AdmissionQueueTest, DegradeLadderHalvesTopNUnderPressure) {
  AdmissionOptions options;
  options.interactive_capacity = 1;
  options.bulk_capacity = 1;  // kDegradePressure: one waiting job is enough
  AdmissionQueue queue(options);

  // Idle: full top_n for everyone.
  EXPECT_EQ(queue.DegradedTopN(10, FarDeadline()), 10u);
  EXPECT_EQ(queue.DegradedTopN(10, Deadline::None()), 10u);

  ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
  std::thread waiter([&] {
    ASSERT_TRUE(queue.Admit(QosLane::kBulk, Deadline::None(), 1).ok());
    queue.Release(1, 1.0);
  });
  AwaitWaiters(queue, QosLane::kBulk, 1);

  // Under pressure: deadline-carrying requests degrade (floored),
  // unbounded-deadline requests never do.
  EXPECT_EQ(queue.DegradedTopN(10, FarDeadline()), 5u);
  EXPECT_EQ(queue.DegradedTopN(5, FarDeadline()), 3u);
  EXPECT_EQ(queue.DegradedTopN(3, FarDeadline()), 3u);
  EXPECT_EQ(queue.DegradedTopN(10, Deadline::None()), 10u);

  queue.Release(1, 1.0);
  waiter.join();
}

TEST(AdmissionQueueTest, LatencyBucketsAreLogarithmic) {
  EXPECT_EQ(LatencyBucket(0.0), 0u);
  EXPECT_EQ(LatencyBucket(0.7), 0u);
  EXPECT_EQ(LatencyBucket(1.5), 1u);
  EXPECT_EQ(LatencyBucket(3.0), 2u);
  EXPECT_EQ(LatencyBucket(1000.0), 10u);
  EXPECT_EQ(LatencyBucket(1e12), kLatencyBuckets - 1);
}

TEST(AdmissionQueueTest, StatsMergeSumsLanes) {
  AdmissionQueue a;
  AdmissionQueue b;
  a.RecordServed(QosLane::kInteractive, 10.0, true, 2);
  b.RecordServed(QosLane::kInteractive, 10.0, false, 0);
  b.CountShed(QosLane::kBulk, StatusCode::kDeadlineExceeded);
  AdmissionStats merged = a.stats();
  merged.MergeFrom(b.stats());
  EXPECT_EQ(merged.lane(QosLane::kInteractive).admitted, 2u);
  EXPECT_EQ(merged.lane(QosLane::kInteractive).degraded, 1u);
  EXPECT_EQ(merged.lane(QosLane::kInteractive).expired_items, 2u);
  EXPECT_EQ(merged.lane(QosLane::kBulk).shed_deadline, 1u);
  EXPECT_EQ(merged.lane(QosLane::kBulk).shed_total(), 1u);
}

}  // namespace
}  // namespace sqp
