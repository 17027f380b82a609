// Cold-start bench: what it costs to boot a serving replica, with and
// without the persisted snapshot blob (core/snapshot_io). The
// train-from-scratch path pays corpus counting + shared-PST build + sigma
// fit + compact packing on every replica; the blob paths pay one Save on
// the trainer and then O(file size) page-ins per replica — the ROADMAP
// "snapshot persistence" claim, tracked as BENCH_coldstart.json (see
// bench/README.md). The acceptance bar is mmap boot >= 10x faster than
// train-from-scratch boot on the default corpus.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "harness.h"
#include "serve/recommender_engine.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

constexpr char kBlobPath[] = "coldstart_snapshot.blob";

struct Measurement {
  std::string name;
  double boot_ms = 0.0;
  uint64_t blob_bytes = 0;
  double first_query_us = 0.0;
  double speedup_vs_train = 0.0;
};

/// One covered context for the first-query probe.
std::vector<QueryId> FirstContext(const Harness& harness) {
  for (const auto& entry : harness.truth()) {
    if (!entry.context.empty() && entry.context.size() <= 5) {
      return entry.context;
    }
  }
  SQP_CHECK(false && "no covered context in the harness truth set");
  return {};
}

double FirstQueryMicros(const RecommenderEngine& engine,
                        const std::vector<QueryId>& context) {
  WallTimer timer;
  const Recommendation rec = engine.Recommend(context, 5).recommendation;
  const double us = timer.ElapsedSeconds() * 1e6;
  SQP_CHECK(rec.covered);
  return us;
}

void WriteJson(const std::vector<Measurement>& measurements) {
  std::FILE* out = std::fopen("BENCH_coldstart.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_coldstart.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"boot_ms\": %.3f, "
                 "\"blob_bytes\": %llu, \"first_query_us\": %.3f, "
                 "\"speedup_vs_train\": %.1f}%s\n",
                 m.name.c_str(), m.boot_ms,
                 static_cast<unsigned long long>(m.blob_bytes),
                 m.first_query_us, m.speedup_vs_train,
                 i + 1 == measurements.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_coldstart.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness, "cold-start cost of a serving replica (train vs snapshot blob)",
      "booting from a memory-mapped blob is >= 10x faster than "
      "train-from-scratch and serves the identical model");

  // Train-from-scratch boot: everything a blob-less replica must do before
  // its first answer — corpus counting (no prebuilt index), shared-PST
  // build, sigma fit, compact pack, publish. Best of three runs.
  TrainingData scratch_data;
  scratch_data.sessions = &harness.train();
  scratch_data.vocabulary_size = harness.training_data().vocabulary_size;
  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;

  const std::vector<QueryId> probe = FirstContext(harness);
  std::shared_ptr<const CompactSnapshot> trained_compact;
  Measurement train;
  train.name = "train_boot";
  train.boot_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    RecommenderEngine engine(EngineOptions{.num_threads = 1});
    WallTimer timer;
    auto built = ModelSnapshot::Build(scratch_data, options, /*version=*/1);
    SQP_CHECK(built.ok());
    trained_compact =
        CompactSnapshot::FromSnapshot(*built.value(), CompactOptions{});
    engine.Publish(trained_compact);
    const double ms = timer.ElapsedMillis();
    const double first_us = FirstQueryMicros(engine, probe);
    if (ms < train.boot_ms) {
      train.boot_ms = ms;
      train.first_query_us = first_us;
    }
  }
  train.speedup_vs_train = 1.0;
  std::printf("train_boot     %9.3f ms   first query %7.3f us\n",
              train.boot_ms, train.first_query_us);

  // One Save on the "trainer" side; replicas then boot from the blob.
  Measurement save;
  save.name = "save";
  {
    WallTimer timer;
    SQP_CHECK_OK(SnapshotIo::Save(*trained_compact, kBlobPath));
    save.boot_ms = timer.ElapsedMillis();
  }
  save.blob_bytes = std::filesystem::file_size(kBlobPath);
  std::printf("save           %9.3f ms   blob %llu bytes\n", save.boot_ms,
              static_cast<unsigned long long>(save.blob_bytes));

  // Blob boots, best of several runs each: mmap (zero-copy, the cold-boot
  // path LoadAndPublish uses) and copy (owned arrays).
  const auto measure_boot = [&](const std::string& name, auto boot) {
    Measurement m;
    m.name = name;
    m.blob_bytes = save.blob_bytes;
    m.boot_ms = 1e300;
    for (int rep = 0; rep < 10; ++rep) {
      RecommenderEngine engine(EngineOptions{.num_threads = 1});
      WallTimer timer;
      boot(&engine);
      const double ms = timer.ElapsedMillis();
      const double first_us = FirstQueryMicros(engine, probe);
      if (ms < m.boot_ms) {
        m.boot_ms = ms;
        m.first_query_us = first_us;
      }
    }
    m.speedup_vs_train = train.boot_ms / m.boot_ms;
    std::printf("%-14s %9.3f ms   first query %7.3f us   %.0fx vs train\n",
                name.c_str(), m.boot_ms, m.first_query_us,
                m.speedup_vs_train);
    return m;
  };

  const Measurement mmap_boot =
      measure_boot("mmap_boot", [](RecommenderEngine* engine) {
        SQP_CHECK_OK(engine->LoadAndPublish(kBlobPath));
      });
  const Measurement copy_boot =
      measure_boot("copy_boot", [](RecommenderEngine* engine) {
        auto loaded = SnapshotIo::Load(kBlobPath);
        SQP_CHECK(loaded.ok());
        engine->Publish(std::move(loaded.value()));
      });

  // Sanity: the blob-booted replica is the trained model, bit for bit.
  {
    RecommenderEngine replica(EngineOptions{.num_threads = 1});
    SQP_CHECK_OK(replica.LoadAndPublish(kBlobPath));
    SnapshotScratch scratch;
    size_t checked = 0;
    for (const auto& entry : harness.truth()) {
      if (entry.context.empty() || entry.context.size() > 5) continue;
      const Recommendation want =
          trained_compact->Recommend(entry.context, 10, &scratch);
      const Recommendation got =
          replica.Recommend(entry.context, 10).recommendation;
      SQP_CHECK(want.covered == got.covered);
      SQP_CHECK(want.queries.size() == got.queries.size());
      for (size_t i = 0; i < want.queries.size(); ++i) {
        SQP_CHECK(want.queries[i].query == got.queries[i].query);
        SQP_CHECK(want.queries[i].score == got.queries[i].score);
      }
      if (++checked >= 2048) break;
    }
    std::printf("verified %zu contexts bit-identical after mmap boot\n",
                checked);
  }

  WriteJson({train, save, mmap_boot, copy_boot});
  std::filesystem::remove(kBlobPath);

  if (mmap_boot.speedup_vs_train < 10.0) {
    std::fprintf(stderr,
                 "WARNING: mmap boot speedup %.1fx below the 10x target\n",
                 mmap_boot.speedup_vs_train);
    return 1;
  }
  return 0;
}
