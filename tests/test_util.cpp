#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace minpower {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues reached
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RunningStats, Moments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(GeoMean, MatchesHandComputation) {
  GeoMean g;
  g.add(2.0);
  g.add(8.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(GeoMean, EmptyIsOne) {
  GeoMean g;
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(PercentChange, Basics) {
  EXPECT_DOUBLE_EQ(percent_change(100.0, 112.0), 12.0);
  EXPECT_DOUBLE_EQ(percent_change(100.0, 78.0), -22.0);
  EXPECT_DOUBLE_EQ(percent_change(0.0, 5.0), 0.0);
}

TEST(Strings, SplitWs) {
  const auto f = split_ws("  a\tbb  ccc \n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "bb");
  EXPECT_EQ(f[2], "ccc");
}

TEST(Strings, SplitEmpty) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws(" \t ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, ParseDouble) {
  EXPECT_EQ(parse_number<double>("1.5"), 1.5);
  EXPECT_EQ(parse_number<double>("-2"), -2.0);
  EXPECT_FALSE(parse_number<double>("1.5x").has_value());
  EXPECT_FALSE(parse_number<double>("").has_value());
}

TEST(Strings, ParseLong) {
  EXPECT_EQ(parse_number<long>("42"), 42);
  EXPECT_FALSE(parse_number<long>("4.2").has_value());
}

TEST(Strings, ParseNumberRejectsSignsWhitespaceRangeAndNonFinite) {
  EXPECT_EQ(parse_number<long>("-5"), -5);
  EXPECT_FALSE(parse_number<std::uint64_t>("-5").has_value());
  EXPECT_FALSE(parse_number<unsigned>("+5").has_value());
  EXPECT_FALSE(parse_number<unsigned>(" 5").has_value());
  EXPECT_FALSE(parse_number<std::uint16_t>("65536").has_value());
  EXPECT_EQ(parse_number<std::uint16_t>("65535"), 65535);
  EXPECT_FALSE(parse_number<double>("inf").has_value());
  EXPECT_FALSE(parse_number<double>("nan").has_value());
  EXPECT_FALSE(parse_number<double>("1e999").has_value());
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
}

}  // namespace
}  // namespace minpower
