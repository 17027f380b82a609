#include "core/serialization.h"

#include <cstdio>
#include <filesystem>

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

TEST_F(SerializationTest, DictionaryLoadMissingFileFails) {
  QueryDictionary dict;
  EXPECT_EQ(LoadDictionary("/nonexistent/dict.txt", &dict).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace sqp
