#include "log/log_record.h"

#include <gtest/gtest.h>

#include <ostream>

namespace sqp {
namespace {

RawLogRecord SampleRecord() {
  RawLogRecord record;
  record.machine_id = 77;
  record.timestamp_ms = 1220583600000LL;
  record.query = "kidney stone symptoms";
  record.clicks.push_back(UrlClick{1220583625000LL, "www.health.example.com"});
  record.clicks.push_back(UrlClick{1220583640000LL, "www.mayo.example.com"});
  return record;
}

TEST(LogRecordTest, RoundTripWithClicks) {
  const RawLogRecord original = SampleRecord();
  RawLogRecord parsed;
  ASSERT_TRUE(RecordFromTsv(RecordToTsv(original), &parsed).ok());
  EXPECT_EQ(parsed, original);
}

TEST(LogRecordTest, RoundTripWithoutClicks) {
  RawLogRecord original = SampleRecord();
  original.clicks.clear();
  RawLogRecord parsed;
  ASSERT_TRUE(RecordFromTsv(RecordToTsv(original), &parsed).ok());
  EXPECT_EQ(parsed, original);
}

TEST(LogRecordTest, TsvLayoutMatchesTableIII) {
  RawLogRecord record;
  record.machine_id = 1;
  record.timestamp_ms = 521000;
  record.query = "q1";
  record.clicks.push_back(UrlClick{546000, "aaa.com"});
  EXPECT_EQ(RecordToTsv(record), "1\t521000\tq1\t1\t546000\taaa.com");
}

TEST(LogRecordTest, QueryMayContainSpaces) {
  RawLogRecord record;
  record.machine_id = 2;
  record.timestamp_ms = 1;
  record.query = "learn sign language";
  RawLogRecord parsed;
  ASSERT_TRUE(RecordFromTsv(RecordToTsv(record), &parsed).ok());
  EXPECT_EQ(parsed.query, "learn sign language");
}

struct MalformedCase {
  const char* name;
  const char* line;
};

// gtest prints a parameter without a printer as its raw bytes — here two
// pointers, so the listed test names would change with every load address.
// Print the case name so the names are the same on every build.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MalformedRecordTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedRecordTest, Rejected) {
  RawLogRecord record;
  const Status st = RecordFromTsv(GetParam().line, &record);
  EXPECT_FALSE(st.ok()) << GetParam().name;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedRecordTest,
    ::testing::Values(
        MalformedCase{"empty", ""},
        MalformedCase{"too_few_fields", "1\t2\tq"},
        MalformedCase{"bad_machine", "x\t2\tq\t0"},
        MalformedCase{"bad_timestamp", "1\tx\tq\t0"},
        MalformedCase{"empty_query", "1\t2\t\t0"},
        MalformedCase{"bad_click_count", "1\t2\tq\tx"},
        MalformedCase{"click_count_mismatch_low", "1\t2\tq\t1"},
        MalformedCase{"click_count_mismatch_high",
                      "1\t2\tq\t0\t3\turl.com"},
        MalformedCase{"bad_click_timestamp", "1\t2\tq\t1\tx\turl.com"},
        MalformedCase{"empty_click_url", "1\t2\tq\t1\t3\t"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(LogRecordTest, ErrorMessageNamesField) {
  RawLogRecord record;
  const Status st = RecordFromTsv("abc\t2\tq\t0", &record);
  EXPECT_NE(st.message().find("machine_id"), std::string::npos);
}

}  // namespace
}  // namespace sqp
