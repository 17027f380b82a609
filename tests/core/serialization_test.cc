#include "core/serialization.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sqp {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("sqp_serialization_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".bin"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(SerializationTest, DictionaryRoundTrip) {
  QueryDictionary dict;
  dict.Intern("kidney stones");
  dict.Intern("kidney stone symptoms");
  dict.Intern("nokia n73");
  ASSERT_TRUE(SaveDictionary(dict, path_).ok());

  QueryDictionary loaded;
  ASSERT_TRUE(LoadDictionary(path_, &loaded).ok());
  ASSERT_EQ(loaded.size(), dict.size());
  for (size_t id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(loaded.Text(static_cast<QueryId>(id)),
              dict.Text(static_cast<QueryId>(id)));
  }
}

TEST_F(SerializationTest, DictionaryResaveLeavesOpenReadersTheOldFile) {
  // The sidecar is replaced by rename, never rewritten in place: a reader
  // that opened the old dictionary keeps reading all of it, and no
  // temporary file is left behind.
  QueryDictionary old_dict;
  old_dict.Intern("kidney stones");
  old_dict.Intern("kidney stone symptoms");
  old_dict.Intern("nokia n73");
  ASSERT_TRUE(SaveDictionary(old_dict, path_).ok());
  std::ifstream reader(path_);
  ASSERT_TRUE(reader.is_open());

  QueryDictionary new_dict;
  new_dict.Intern("java");
  ASSERT_TRUE(SaveDictionary(new_dict, path_).ok());
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));

  std::vector<std::string> lines;
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "kidney stones", "kidney stone symptoms", "nokia n73"}));
  QueryDictionary reloaded;
  ASSERT_TRUE(LoadDictionary(path_, &reloaded).ok());
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.Text(0), "java");
}

TEST_F(SerializationTest, DictionaryLoadRefusesLinesThatWouldRenumberIds) {
  // Each sidecar is two good lines around one bad one; the bad line sits on
  // line 2, so the error names it and the target dictionary is untouched.
  const std::vector<std::string> bad_lines = {
      "",               // skipped, every later id would shift down
      "kidney stones",  // repeat, interned to id 0 instead of 1
      "Kidney Stones",  // normalizes onto line 1's text
      "nokia  n73",     // normalizes to different text than it stores
  };
  for (const std::string& bad : bad_lines) {
    SCOPED_TRACE("bad line: \"" + bad + "\"");
    {
      std::ofstream out(path_, std::ios::trunc);
      out << "kidney stones\n" << bad << "\nnokia n73\n";
    }
    QueryDictionary dict;
    dict.Intern("untouched");
    const Status status = LoadDictionary(path_, &dict);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("line 2"), std::string::npos)
        << status.ToString();
    ASSERT_EQ(dict.size(), 1u);
    EXPECT_EQ(dict.Text(0), "untouched");
  }
}

TEST_F(SerializationTest, DictionaryLoadMissingFileFails) {
  QueryDictionary dict;
  EXPECT_EQ(LoadDictionary("/nonexistent/dict.txt", &dict).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace sqp
