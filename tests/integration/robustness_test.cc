// Failure injection: the library must degrade with clean Status errors (or
// reject input outright), never crash or silently mis-parse, when fed
// corrupted log files or adversarial corpora. (Persisted-model corruption
// is covered by the blob and manifest sweeps in tests/core/.)

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/model_factory.h"
#include "eval/evaluator.h"
#include "log/log_io.h"
#include "log/session_segmenter.h"
#include "util/random.h"
#include "util/string_util.h"

namespace sqp {
namespace {

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("sqp_robustness_" + tag + ".tmp"))
      .string();
}

/// Byte-level fuzz of a valid log file: flip/delete/insert random bytes and
/// confirm the reader either succeeds or fails cleanly with IOError /
/// InvalidArgument — never crashes, never returns OK with garbage counts.
TEST(LogCorruptionTest, FuzzedFilesFailCleanly) {
  // A valid baseline file.
  std::vector<RawLogRecord> records;
  for (int i = 0; i < 50; ++i) {
    RawLogRecord r;
    r.machine_id = static_cast<uint64_t>(i % 7 + 1);
    r.timestamp_ms = 1000 * i;
    r.query = "query number " + std::to_string(i % 13);
    if (i % 3 == 0) {
      r.clicks.push_back(UrlClick{1000 * i + 100, "www.site.example.com"});
    }
    records.push_back(std::move(r));
  }
  const std::string base_path = TempPath("fuzz_base");
  ASSERT_TRUE(WriteLogFile(base_path, records).ok());
  std::string contents;
  {
    std::ifstream in(base_path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::remove(base_path.c_str());

  Rng rng(4242);
  const std::string fuzz_path = TempPath("fuzz");
  for (int round = 0; round < 200; ++round) {
    std::string mutated = contents;
    const size_t mutations = 1 + rng.UniformInt(4);
    for (size_t m = 0; m < mutations && !mutated.empty(); ++m) {
      const size_t pos = rng.UniformInt(mutated.size());
      switch (rng.UniformInt(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.UniformInt(256)));
          break;
      }
    }
    {
      std::ofstream out(fuzz_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    std::vector<RawLogRecord> loaded;
    const Status st = ReadLogFile(fuzz_path, &loaded);  // must not crash
    if (st.ok()) {
      // Whatever parsed must be structurally valid.
      for (const RawLogRecord& r : loaded) {
        EXPECT_FALSE(r.query.empty());
      }
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
  std::remove(fuzz_path.c_str());
}

/// Adversarial corpora: degenerate shapes must train and answer cleanly.
TEST(AdversarialCorpusTest, DegenerateCorporaHandled) {
  const std::vector<std::vector<AggregatedSession>> corpora = {
      {},                                  // empty
      {{{0}, 1000000}},                    // single singleton, huge weight
      {{{0, 0, 0, 0, 0, 0, 0, 0}, 3}},     // one query repeated
      {{{0, 1}, 1}, {{1, 0}, 1}},          // tiny cycle
  };
  for (const auto& sessions : corpora) {
    const auto suite = CreatePaperSuite(5);
    TrainingData data;
    data.sessions = &sessions;
    data.vocabulary_size = 2;
    ASSERT_TRUE(TrainAll(suite, data).ok());
    for (const auto& model : suite) {
      const Recommendation rec =
          model->Recommend(std::vector<QueryId>{0}, 5);
      EXPECT_EQ(rec.covered, !rec.queries.empty()) << model->Name();
      const double p = model->ConditionalProb(std::vector<QueryId>{0}, 1);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-9);
    }
  }
}

/// A context far longer than anything trained must not crash or mis-rank.
TEST(AdversarialCorpusTest, VeryLongContextHandled) {
  const std::vector<AggregatedSession> sessions{{{0, 1}, 5}, {{1, 0}, 5}};
  const auto suite = CreatePaperSuite(5);
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = 2;
  ASSERT_TRUE(TrainAll(suite, data).ok());
  std::vector<QueryId> long_context;
  for (int i = 0; i < 500; ++i) long_context.push_back(i % 2 == 0 ? 0u : 1u);
  for (const auto& model : suite) {
    const Recommendation rec = model->Recommend(long_context, 5);
    for (const ScoredQuery& sq : rec.queries) {
      EXPECT_LE(sq.query, 1u) << model->Name();
    }
  }
}

/// Interleaved, unsorted, multi-machine records with duplicated timestamps
/// must segment deterministically.
TEST(AdversarialCorpusTest, MessyRecordStreamSegments) {
  std::vector<RawLogRecord> records;
  Rng rng(31337);
  for (int i = 0; i < 500; ++i) {
    RawLogRecord r;
    r.machine_id = rng.UniformInt(5) + 1;
    r.timestamp_ms = static_cast<int64_t>(rng.UniformInt(50)) * 60000;
    r.query = StrFormat("q%llu",
                        static_cast<unsigned long long>(rng.UniformInt(20)));
    records.push_back(std::move(r));
  }
  QueryDictionary dict_a;
  QueryDictionary dict_b;
  std::vector<Session> sessions_a;
  std::vector<Session> sessions_b;
  ASSERT_TRUE(SessionSegmenter().Segment(records, &dict_a, &sessions_a).ok());
  ASSERT_TRUE(SessionSegmenter().Segment(records, &dict_b, &sessions_b).ok());
  ASSERT_EQ(sessions_a.size(), sessions_b.size());
  for (size_t i = 0; i < sessions_a.size(); ++i) {
    EXPECT_EQ(sessions_a[i].queries, sessions_b[i].queries);
  }
}

}  // namespace
}  // namespace sqp
