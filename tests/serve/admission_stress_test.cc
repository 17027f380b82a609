// Concurrency stress for admission control: bounded-deadline batches on
// both lanes (small capacities force real sheds), unbounded-deadline
// batches, and single-query QoS traffic all race snapshot publishes.
// Invariants checked per response, not per schedule — the interleaving is
// whatever the machine gives us (run under the SQP_TSAN build in CI):
//   - unbounded-deadline batches ALWAYS complete in full,
//   - every QoS batch accounts for every item (served == #kOk, the rest
//     carry an explicit shed/expiry status),
//   - every kOk answer matches one fully-published generation bit-exactly,
//   - nothing deadlocks: all threads join after fixed iteration counts.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/recommender_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;
// kDegradeMinTopN (3) == the serving top_n, so degradation can trigger
// without changing answer shapes — kOk answers stay bit-comparable.
constexpr size_t kTopN = 3;

/// The served blob of a model trained on `sessions`.
std::shared_ptr<const CompactSnapshot> BuildSnapshot(
    const std::vector<AggregatedSession>& sessions, uint64_t version) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return CompactSnapshot::FromSnapshot(**built);
}

bool OkOrShed(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

TEST(AdmissionStressTest, ShedAdmitAndPublishRaceCleanly) {
  std::vector<AggregatedSession> grown = SharedCorpus().base;
  grown.insert(grown.end(), SharedCorpus().drifted.begin(),
               SharedCorpus().drifted.end());
  const std::vector<std::shared_ptr<const CompactSnapshot>> snapshots = {
      BuildSnapshot(SharedCorpus().base, 1), BuildSnapshot(grown, 2)};

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(grown, 256);
  // expected[v][i]: the exact answer generation v+1 gives context i.
  std::vector<std::vector<Recommendation>> expected(snapshots.size());
  {
    SnapshotScratch scratch;
    for (size_t v = 0; v < snapshots.size(); ++v) {
      for (const std::vector<QueryId>& context : contexts) {
        expected[v].push_back(
            snapshots[v]->Recommend(context, kTopN, &scratch));
      }
    }
  }

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.admission.interactive_capacity = 2;
  engine_options.admission.bulk_capacity = 1;
  RecommenderEngine engine(engine_options);
  engine.Publish(snapshots[0]);

  std::atomic<size_t> violations{0};
  std::atomic<size_t> ok_items{0};
  std::atomic<size_t> shed_or_expired{0};

  const auto check_batch = [&](const BatchResult& batch, size_t offset,
                               size_t n) {
    if (batch.statuses.size() != n || batch.results.size() != n) {
      violations.fetch_add(1);
      return;
    }
    size_t ok = 0;
    for (size_t i = 0; i < n; ++i) {
      const StatusCode code = batch.statuses[i];
      if (!OkOrShed(code) ||
          (!batch.admission.ok() && code == StatusCode::kOk)) {
        violations.fetch_add(1);
        return;
      }
      if (code != StatusCode::kOk) {
        shed_or_expired.fetch_add(1);
        continue;
      }
      ++ok;
      const uint64_t v = batch.served_version;
      if (v < 1 || v > snapshots.size() ||
          !SameRecommendation(expected[v - 1][(offset + i) % contexts.size()],
                              batch.results[i])) {
        violations.fetch_add(1);
        return;
      }
    }
    if (ok != batch.served) violations.fetch_add(1);
    ok_items.fetch_add(ok);
  };

  const std::vector<ContextRef> refs = AsRefs(contexts);
  const auto slice = [&](size_t offset, size_t n) {
    std::vector<ContextRef> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(refs[(offset + i) % refs.size()]);
    }
    return out;
  };

  std::vector<std::thread> threads;
  // Bulk QoS pressure: big batches under tight-ish deadlines.
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (size_t it = 0; it < 25; ++it) {
        const size_t offset = t * 97 + it * 31;
        const std::vector<ContextRef> batch_refs = slice(offset, 192);
        ServeOptions options;
        options.lane = QosLane::kBulk;
        options.deadline = Deadline::After(std::chrono::milliseconds(4));
        check_batch(
            engine.RecommendMany(std::span<const ContextRef>(batch_refs),
                                 kTopN, options),
            offset, batch_refs.size());
      }
    });
  }
  // Interactive QoS traffic: small batches, shorter deadlines.
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (size_t it = 0; it < 60; ++it) {
        const size_t offset = t * 53 + it * 11;
        const std::vector<ContextRef> batch_refs = slice(offset, 48);
        ServeOptions options;
        options.lane = QosLane::kInteractive;
        options.deadline = Deadline::After(std::chrono::milliseconds(2));
        check_batch(
            engine.RecommendMany(std::span<const ContextRef>(batch_refs),
                                 kTopN, options),
            offset, batch_refs.size());
      }
    });
  }
  // Unbounded-deadline bulk batches: sheds and deadlines must never
  // touch them — full results every time, from one generation.
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      ServeOptions options;
      options.lane = QosLane::kBulk;
      for (size_t it = 0; it < 20; ++it) {
        const BatchResult batch = engine.RecommendMany(
            std::span<const ContextRef>(refs), kTopN, options);
        const uint64_t version = batch.served_version;
        if (batch.results.size() != refs.size() ||
            batch.served != refs.size() || version < 1 ||
            version > snapshots.size()) {
          violations.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < batch.results.size(); ++i) {
          if (!SameRecommendation(expected[version - 1][i],
                                  batch.results[i])) {
            violations.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  // Deadline-aware single queries riding alongside.
  threads.emplace_back([&] {
    for (size_t it = 0; it < 400; ++it) {
      ServeOptions options;
      options.deadline = Deadline::After(std::chrono::milliseconds(1));
      const ServeResult served =
          engine.Recommend(refs[it % refs.size()], kTopN, options);
      if (served.status == StatusCode::kOk) {
        const uint64_t v = served.served_version;
        if (v < 1 || v > snapshots.size() ||
            !SameRecommendation(expected[v - 1][it % refs.size()],
                                served.recommendation)) {
          violations.fetch_add(1);
        }
      } else if (served.status == StatusCode::kDeadlineExceeded) {
        shed_or_expired.fetch_add(1);
      } else {
        violations.fetch_add(1);
      }
    }
  });
  // The publisher, swapping generations under everything above.
  threads.emplace_back([&] {
    for (size_t swap = 0; swap < 200; ++swap) {
      engine.Publish(snapshots[swap % snapshots.size()]);
      std::this_thread::yield();
    }
  });

  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(ok_items.load(), 0u);

  // Counter cross-check: every admitted batch landed in a lane histogram,
  // and the shed counters saw whatever the threads saw.
  const AdmissionStats stats = engine.stats().admission;
  uint64_t histogram_total = 0;
  for (size_t l = 0; l < kNumQosLanes; ++l) {
    const LaneCounters& lane = stats.lanes[l];
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      histogram_total += lane.latency_hist[b];
    }
  }
  const uint64_t admitted =
      stats.lane(QosLane::kInteractive).admitted +
      stats.lane(QosLane::kBulk).admitted;
  EXPECT_EQ(histogram_total, admitted);
  EXPECT_GT(admitted, 0u);
}

}  // namespace
}  // namespace sqp
