// Tests of the benchmark's own statistics, generator and trace code.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/model_snapshot.h"
#include "net/loopback_transport.h"
#include "net/router_client.h"
#include "open_loop.h"
#include "serve/recommender_engine.h"
#include "stats.h"
#include "timing_transport.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailPercentileTest, KeepsTheWantedPercentileWhenTenSamplesLieBeyond) {
  const Percentile p = TailPercentile(OneTo(1000), 99.0);
  EXPECT_EQ(p.percentile, 99.0);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentileTest, LowersThePercentileToKeepTenSamplesBeyond) {
  const Percentile p = TailPercentile(OneTo(500), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile, 98.0);
  EXPECT_EQ(p.value, 490.0);  // 10 samples (491..500) lie beyond it
  EXPECT_EQ(p.samples, 500u);
}

TEST(TailPercentileTest, FallsBackToTheMedianOnTinySamples) {
  const Percentile p = TailPercentile({5, 1, 4, 2, 3}, 99.0);
  EXPECT_EQ(p.percentile, 50.0);
  EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(p.samples, 5u);
  EXPECT_EQ(TailPercentile({}, 90.0).samples, 0u);
}

TEST(GoodputTest, PicksTheHighestRateMeetingEveryCondition) {
  const std::vector<Rung> rungs = {
      {.rate_rps = 5000, .p90_us = 30},
      {.rate_rps = 10000, .p90_us = 40},
      {.rate_rps = 20000, .p90_us = 150},  // misses the p90 limit
      {.rate_rps = 40000, .p90_us = 90000, .backlog_grows = true},
  };
  EXPECT_EQ(PickGoodput(rungs, 100.0), 10000.0);
}

TEST(GoodputTest, ErrorsAndBacklogDisqualifyARung) {
  std::vector<Rung> rungs = {{.rate_rps = 5000, .p90_us = 30},
                             {.rate_rps = 10000, .p90_us = 40, .errors = 1}};
  EXPECT_EQ(PickGoodput(rungs, 100.0), 5000.0);
  rungs[1].errors = 0;
  rungs[1].backlog_grows = true;
  EXPECT_EQ(PickGoodput(rungs, 100.0), 5000.0);
  rungs[0].p90_us = 101;
  EXPECT_EQ(PickGoodput(rungs, 100.0), 0.0);
}

TEST(BacklogTest, SteadyDelayIsNotABacklogButALinearRiseIs) {
  std::vector<double> steady(400, 12.0);
  steady[399] = 5000.0;  // one late outlier is not a trend
  EXPECT_FALSE(BacklogGrows(steady, 100.0));
  std::vector<double> growing(400);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = 2.0 * i;
  EXPECT_TRUE(BacklogGrows(growing, 100.0));
}

TEST(PoissonScheduleTest, IsSeededAndHasTheRequestedRate) {
  const std::vector<int64_t> a = PoissonSchedule(10000, 2.0, 7);
  EXPECT_EQ(a, PoissonSchedule(10000, 2.0, 7));
  EXPECT_NE(a, PoissonSchedule(10000, 2.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 600.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(SelfTimeTest, SubtractsOverlappingChildrenOnce) {
  const std::vector<Span> spans = {
      {.name = "parent", .parent = -1, .start_ns = 0, .end_ns = 100},
      {.name = "a", .parent = 0, .start_ns = 10, .end_ns = 40},
      {.name = "b", .parent = 0, .start_ns = 30, .end_ns = 60},
      {.name = "c", .parent = 0, .start_ns = 90, .end_ns = 120},  // clipped
      {.name = "grandchild", .parent = 1, .start_ns = 15, .end_ns = 20},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SpanBufferTest, NestsScopedSpansAndDropsPastCapacity) {
  SpanBuffer buffer(2);
  {
    ScopedSpan outer(&buffer, "outer", 7);
    ScopedSpan inner(&buffer, "inner", 7);
    ScopedSpan dropped(&buffer, "dropped", 7);
    EXPECT_EQ(dropped.index(), -1);
  }
  ASSERT_EQ(buffer.spans().size(), 2u);
  EXPECT_EQ(buffer.spans()[1].parent, 0);
  EXPECT_EQ(buffer.dropped(), 1u);
  Trace trace;
  trace.Absorb(buffer);
  trace.Absorb(buffer);
  EXPECT_EQ(Find(trace.Summaries(), "inner").count, 2u);
  EXPECT_EQ(Find(trace.Summaries(), "missing").count, 0u);
}

/// A transport that blocks once, on the read of exchange `stall_at`.
class StallOnceTransport final : public sqp::net::Transport {
 public:
  StallOnceTransport(std::unique_ptr<sqp::net::Transport> inner,
                     size_t stall_at, std::chrono::milliseconds stall)
      : inner_(std::move(inner)), stall_at_(stall_at), stall_(stall) {}

  sqp::Status Write(std::span<const uint8_t> data) override {
    ++writes_;
    return inner_->Write(data);
  }
  sqp::Result<size_t> Read(uint8_t* out, size_t max) override {
    if (writes_ == stall_at_ + 1 && !stalled_) {
      stalled_ = true;
      std::this_thread::sleep_for(stall_);
    }
    return inner_->Read(out, max);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<sqp::net::Transport> inner_;
  size_t stall_at_;
  std::chrono::milliseconds stall_;
  size_t writes_ = 0;
  bool stalled_ = false;
};

std::shared_ptr<const sqp::ModelSnapshot> TinyModel() {
  static const std::vector<sqp::AggregatedSession> corpus = {
      {{1, 2, 3}, 4}, {{1, 2, 4}, 2}, {{2, 3}, 3}, {{3, 1, 2}, 1}};
  sqp::TrainingData data;
  data.sessions = &corpus;
  data.vocabulary_size = 5;
  sqp::MvmmOptions options;
  options.default_max_depth = 3;
  auto built = sqp::ModelSnapshot::Build(data, options, 1);
  SQP_CHECK(built.ok());
  return *built;
}

TEST(OpenLoopTest, RequestsDueDuringAStallRecordTheWaitFromTheirDueTime) {
  sqp::RecommenderEngine engine(sqp::EngineOptions{.num_threads = 1});
  engine.Publish(TinyModel());
  constexpr size_t kStallAt = 10;
  constexpr auto kStall = std::chrono::milliseconds(30);
  ExchangeLog exchanges(4);
  const auto loopback = sqp::net::LoopbackTransportFactory({&engine}, 1);
  sqp::net::RouterClient router(
      1, TimingTransportFactory(
             [&](uint32_t shard)
                 -> sqp::Result<std::unique_ptr<sqp::net::Transport>> {
               auto inner = loopback(shard);
               SQP_CHECK(inner.ok());
               return std::unique_ptr<sqp::net::Transport>(
                   std::make_unique<StallOnceTransport>(
                       std::move(inner.value()), kStallAt, kStall));
             },
             &exchanges));

  // One request per millisecond for 60 ms; request 10 stalls for 30 ms.
  std::vector<int64_t> offsets;
  for (int64_t i = 0; i < 60; ++i) offsets.push_back(i * 1'000'000);
  const std::vector<sqp::QueryId> context = {1, 2};
  std::vector<int64_t> call_ns(offsets.size());
  std::vector<int64_t> parts_ns(offsets.size());
  const int64_t start = NowNs() + 1'000'000;
  const std::vector<SentRequest> sent =
      RunOpenLoop(offsets, start, [&](size_t i) {
        exchanges.Begin();
        const int64_t call = NowNs();
        const bool ok = router.Recommend(context, 3, sqp::ServeOptions{})
                            .status == sqp::StatusCode::kOk;
        const int64_t ret = NowNs();
        call_ns[i] = ret - call;
        parts_ns[i] = (exchanges.first_write_ns() - call) +
                      (exchanges.last_read_ns() - exchanges.first_write_ns()) +
                      (ret - exchanges.last_read_ns());
        return ok;
      });
  ASSERT_EQ(sent.size(), offsets.size());
  for (const SentRequest& request : sent) EXPECT_TRUE(request.ok);

  // The stalled request and every request due while it blocked carry the
  // stall in their latency, measured from when each was due.
  const double stall_us = 30'000.0;
  EXPECT_GE(sent[kStallAt].latency_us(), stall_us);
  for (size_t i = kStallAt + 1; i < kStallAt + 25; ++i) {
    const double due_after_stall_start_us = (i - kStallAt) * 1000.0;
    EXPECT_GE(sent[i].latency_us(), stall_us - due_after_stall_start_us - 1000)
        << "request " << i;
    EXPECT_GT(sent[i].queue_delay_us(), 0.0);
  }
  // Long after the stall the generator is back on schedule. Medians, so
  // that one preemption of the test process by the host cannot fail it.
  std::vector<double> tail_latency_us;
  for (size_t i = sent.size() - 20; i < sent.size(); ++i) {
    tail_latency_us.push_back(sent[i].latency_us());
  }
  EXPECT_LT(Median(tail_latency_us), 5000.0);
  // The generator's own lateness excludes the wait behind the stall.
  const std::vector<double> lag = GeneratorLagUs(sent);
  EXPECT_LT(Median(std::vector<double>(lag.begin() + kStallAt + 1,
                                       lag.begin() + kStallAt + 25)),
            1000.0);
  // encode + wait + decode tile the round trip exactly.
  for (size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(call_ns[i], parts_ns[i]);
  ASSERT_EQ(exchanges.captures().size(), 4u);
  EXPECT_FALSE(exchanges.captures()[0].request_frame.empty());
  EXPECT_FALSE(exchanges.captures()[0].response_frame.empty());
}

}  // namespace
}  // namespace perfbench
