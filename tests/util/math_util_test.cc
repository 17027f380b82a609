#include "util/math_util.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace sqp {
namespace {

TEST(EntropyLog10Test, PaperJavaExample) {
  // "Java" followed by "Sun Java" 60 times and "Java island" 40 times:
  // entropy 0.29 in log base 10 (paper Section I-A).
  std::vector<double> counts{60, 40};
  EXPECT_NEAR(EntropyLog10(counts), 0.292, 0.001);
}

TEST(EntropyLog10Test, PaperContextExample) {
  // Given "Indonesia -> Java": 9 vs 1 -> entropy drops to 0.14.
  std::vector<double> counts{9, 1};
  EXPECT_NEAR(EntropyLog10(counts), 0.1412, 0.001);
}

TEST(EntropyLog10Test, DeterministicDistributionIsZero) {
  std::vector<double> counts{100};
  EXPECT_DOUBLE_EQ(EntropyLog10(counts), 0.0);
}

TEST(EntropyLog10Test, UniformIsLog10N) {
  std::vector<double> counts{1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_NEAR(EntropyLog10(counts), 1.0, 1e-9);  // log10(10)
}

TEST(EntropyLog10Test, UnnormalizedInputHandled) {
  std::vector<double> a{6, 4};
  std::vector<double> b{0.6, 0.4};
  EXPECT_NEAR(EntropyLog10(a), EntropyLog10(b), 1e-12);
}

TEST(EntropyLog10Test, EmptyAndZeroInput) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(EntropyLog10(empty), 0.0);
  std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(EntropyLog10(zeros), 0.0);
}

TEST(KlDivergenceTest, IdenticalDistributionsZero) {
  std::vector<double> p{0.3, 0.7};
  EXPECT_NEAR(KlDivergenceLog10(p, p), 0.0, 1e-12);
}

TEST(KlDivergenceTest, PaperPstExampleValues) {
  // D_KL(q0 || q1q0): parent (0.9, 0.1) vs child (0.3, 0.7) = 0.3449.
  std::vector<double> parent{81, 9};
  std::vector<double> child{3, 7};
  EXPECT_NEAR(KlDivergenceLog10(parent, child), 0.3449, 0.0005);
  // D_KL(q1 || q0q1): parent (0.8, 0.2) vs child (0.5, 0.5) = 0.0837.
  std::vector<double> parent2{16, 4};
  std::vector<double> child2{1, 1};
  EXPECT_NEAR(KlDivergenceLog10(parent2, child2), 0.0837, 0.0005);
}

TEST(KlDivergenceTest, NonNegative) {
  std::vector<double> p{0.2, 0.5, 0.3};
  std::vector<double> q{0.4, 0.4, 0.2};
  EXPECT_GE(KlDivergenceLog10(p, q), 0.0);
  EXPECT_GE(KlDivergenceLog10(q, p), 0.0);
}

TEST(KlDivergenceTest, Asymmetric) {
  std::vector<double> p{0.9, 0.1};
  std::vector<double> q{0.5, 0.5};
  EXPECT_NE(KlDivergenceLog10(p, q), KlDivergenceLog10(q, p));
}

TEST(KlDivergenceTest, ZeroInChildUsesFloor) {
  std::vector<double> p{0.5, 0.5};
  std::vector<double> q{1.0, 0.0};
  const double kl = KlDivergenceLog10(p, q);
  EXPECT_GT(kl, 1.0);  // large but finite
  EXPECT_TRUE(std::isfinite(kl));
}

TEST(NormalizeInPlaceTest, SumsToOne) {
  std::vector<double> v{2, 3, 5};
  NormalizeInPlace(&v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(NormalizeInPlaceTest, ZeroSumIsNoOp) {
  std::vector<double> v{0, 0};
  NormalizeInPlace(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(PowerLawAlphaTest, RecoversSyntheticExponent) {
  // Build a discrete power law with alpha = 2.0: count(f) ~ f^-2.
  std::vector<std::pair<double, double>> samples;
  for (int f = 2; f <= 2000; ++f) {
    samples.emplace_back(f, 1e7 * std::pow(f, -2.0));
  }
  const double alpha = EstimatePowerLawAlpha(samples, 2.0);
  EXPECT_NEAR(alpha, 2.0, 0.1);
}

TEST(PowerLawAlphaTest, NotEnoughDataReturnsZero) {
  std::vector<std::pair<double, double>> empty;
  EXPECT_DOUBLE_EQ(EstimatePowerLawAlpha(empty, 2.0), 0.0);
}

}  // namespace
}  // namespace sqp
