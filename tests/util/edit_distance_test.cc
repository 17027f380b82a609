#include "util/edit_distance.h"

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace sqp {
namespace {

using StringCase = std::tuple<std::string, std::string, size_t>;

class StringEditDistanceTest : public ::testing::TestWithParam<StringCase> {};

TEST_P(StringEditDistanceTest, MatchesExpected) {
  const auto& [a, b, expected] = GetParam();
  EXPECT_EQ(EditDistance(std::string_view(a), std::string_view(b)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    KnownCases, StringEditDistanceTest,
    ::testing::Values(
        StringCase{"", "", 0}, StringCase{"a", "", 1}, StringCase{"", "abc", 3},
        StringCase{"abc", "abc", 0}, StringCase{"kitten", "sitting", 3},
        StringCase{"goggle", "google", 1},  // the paper's spelling example
        StringCase{"youtub", "youtube", 1},
        StringCase{"flaw", "lawn", 2}, StringCase{"abc", "cba", 2}));

TEST(StringEditDistanceTest, Symmetry) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"abcd", "badc"}, {"query", "queries"}, {"x", "yz"}};
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(EditDistance(std::string_view(a), std::string_view(b)),
              EditDistance(std::string_view(b), std::string_view(a)));
  }
}

}  // namespace
}  // namespace sqp
