#include "log/log_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

namespace sqp {
namespace {

class LogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("sqp_log_io_test_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".tsv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<RawLogRecord> SampleRecords() {
    std::vector<RawLogRecord> records;
    for (int i = 0; i < 5; ++i) {
      RawLogRecord r;
      r.machine_id = static_cast<uint64_t>(i % 2 + 1);
      r.timestamp_ms = 1000 * i;
      r.query = "query " + std::to_string(i);
      if (i % 2 == 0) {
        r.clicks.push_back(UrlClick{1000 * i + 500, "www.site.example.com"});
      }
      records.push_back(std::move(r));
    }
    return records;
  }

  std::string path_;
};

TEST_F(LogIoTest, WriteReadRoundTrip) {
  const std::vector<RawLogRecord> records = SampleRecords();
  ASSERT_TRUE(WriteLogFile(path_, records).ok());
  std::vector<RawLogRecord> loaded;
  ASSERT_TRUE(ReadLogFile(path_, &loaded).ok());
  EXPECT_EQ(loaded, records);
}

TEST_F(LogIoTest, WriterCountsRecords) {
  LogWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  for (const RawLogRecord& r : SampleRecords()) {
    ASSERT_TRUE(writer.Write(r).ok());
  }
  EXPECT_EQ(writer.records_written(), 5u);
  EXPECT_TRUE(writer.Close().ok());
}

TEST_F(LogIoTest, WriteWithoutOpenFails) {
  LogWriter writer;
  RawLogRecord r;
  r.machine_id = 1;
  r.query = "q";
  EXPECT_EQ(writer.Write(r).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LogIoTest, WriterRejectsTabInQuery) {
  LogWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  RawLogRecord r;
  r.machine_id = 1;
  r.query = "bad\tquery";
  EXPECT_EQ(writer.Write(r).code(), StatusCode::kInvalidArgument);
}

TEST_F(LogIoTest, ReaderSkipsBlankLines) {
  {
    std::ofstream out(path_);
    out << "1\t100\tq1\t0\n\n   \n2\t200\tq2\t0\n";
  }
  std::vector<RawLogRecord> loaded;
  ASSERT_TRUE(ReadLogFile(path_, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].query, "q1");
  EXPECT_EQ(loaded[1].query, "q2");
}

TEST_F(LogIoTest, ReaderReportsLineNumberOnError) {
  {
    std::ofstream out(path_);
    out << "1\t100\tq1\t0\n";
    out << "garbage line\n";
  }
  std::vector<RawLogRecord> loaded;
  const Status st = ReadLogFile(path_, &loaded);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST_F(LogIoTest, ReadSignalsEof) {
  ASSERT_TRUE(WriteLogFile(path_, {}).ok());
  LogReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  RawLogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.Read(&record, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(LogIoTest, OpenMissingFileFails) {
  LogReader reader;
  EXPECT_EQ(reader.Open("/nonexistent/dir/file.tsv").code(),
            StatusCode::kIOError);
}

TEST_F(LogIoTest, OpenUnwritablePathFails) {
  LogWriter writer;
  EXPECT_EQ(writer.Open("/nonexistent/dir/file.tsv").code(),
            StatusCode::kIOError);
}

TEST_F(LogIoTest, LargeBatchRoundTrip) {
  std::vector<RawLogRecord> records;
  for (int i = 0; i < 2000; ++i) {
    RawLogRecord r;
    r.machine_id = static_cast<uint64_t>(i);
    r.timestamp_ms = i;
    r.query = "q";
    r.query += std::to_string(i % 97);
    records.push_back(std::move(r));
  }
  ASSERT_TRUE(WriteLogFile(path_, records).ok());
  std::vector<RawLogRecord> loaded;
  ASSERT_TRUE(ReadLogFile(path_, &loaded).ok());
  EXPECT_EQ(loaded.size(), records.size());
  EXPECT_EQ(loaded, records);
}

}  // namespace
}  // namespace sqp
