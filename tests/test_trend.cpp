// Unit tests for the scale-trajectory trend gate (src/report/trend.hpp):
// JSONL parsing with torn-tail tolerance, log2-log2 slope fits, per-point
// ratio bands, slope-drift bands, and the minpower.trend.v1 document.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "report/trend.hpp"
#include "util/json_reader.hpp"

namespace minpower::report {
namespace {

/// One schema-stamped trajectory line with the given scaling metrics.
std::string line(const std::string& family, std::uint64_t target,
                 double gates, double wall_ms, double rss_kb,
                 double bdd_bytes) {
  std::ostringstream os;
  os << "{\"schema\":\"minpower.bench_trajectory.v1\",\"family\":\"" << family
     << "\",\"seed\":1,\"target_gates\":" << target << ",\"gates\":" << gates
     << ",\"suite\":1,\"threads\":1,\"shards\":2,\"wall_ms\":" << wall_ms
     << ",\"peak_bdd_nodes\":10,\"peak_bdd_node_bytes\":" << bdd_bytes
     << ",\"peak_bdd_arena_bytes\":" << bdd_bytes
     << ",\"peak_rss_kb\":" << rss_kb
     << ",\"degradations\":0,\"failures\":0,\"retries\":0}";
  return os.str();
}

/// A clean power-law family: wall ~ gates^time_exp, rss ~ gates^rss_exp.
TrajectoryDoc power_law(const std::string& family, double time_exp,
                        double rss_exp, double scale = 1.0) {
  TrajectoryDoc doc;
  doc.path = "synthetic";
  std::string text;
  for (const std::uint64_t g : {100ull, 300ull, 1000ull, 3000ull}) {
    const double gd = static_cast<double>(g);
    text += line(family, g, gd, scale * 0.01 * std::pow(gd, time_exp),
                 scale * 10.0 * std::pow(gd, rss_exp),
                 scale * 100.0 * std::pow(gd, rss_exp)) +
            "\n";
  }
  std::string error;
  EXPECT_TRUE(load_trajectory(text, "synthetic", &doc, &error)) << error;
  return doc;
}

TEST(Trend, LoadParsesPointsAndDropsTornTail) {
  const std::string text = line("chain", 100, 100, 50, 1000, 4000) + "\n" +
                           line("chain", 300, 300, 200, 3000, 12000) + "\n" +
                           "{\"schema\":\"minpower.bench_trajectory.v1\",\"fam";
  TrajectoryDoc doc;
  std::string error;
  ASSERT_TRUE(load_trajectory(text, "t.jsonl", &doc, &error)) << error;
  ASSERT_EQ(doc.points.size(), 2u);
  EXPECT_EQ(doc.points[0].family, "chain");
  EXPECT_EQ(doc.points[1].target_gates, 300u);
  EXPECT_DOUBLE_EQ(doc.points[1].wall_ms, 200.0);
}

TEST(Trend, LoadRejectsMalformedInteriorLine) {
  const std::string text = "not json\n" + line("chain", 100, 100, 50, 1, 1);
  TrajectoryDoc doc;
  std::string error;
  EXPECT_FALSE(load_trajectory(text, "t.jsonl", &doc, &error));
  EXPECT_NE(error.find("t.jsonl"), std::string::npos);
}

TEST(Trend, LoadRejectsSeedOutsideUint64) {
  std::string text = line("chain", 100, 100, 50, 1, 1);
  const std::size_t at = text.find("\"seed\":");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, text.find(',', at) - at, "\"seed\":1e30");
  TrajectoryDoc doc;
  std::string error;
  EXPECT_FALSE(load_trajectory(text, "t.jsonl", &doc, &error));
  EXPECT_EQ(error, "t.jsonl:1: trajectory record field 'seed' is not a "
                   "non-negative integer");
}

TEST(Trend, SlopeFitRecoversPowerLawExponent) {
  const TrajectoryDoc doc = power_law("chain", 2.0, 1.0);
  const TrendReport r = analyze_trend(doc, nullptr, TrendOptions{});
  ASSERT_EQ(r.families.size(), 1u);
  const FamilyTrend& f = r.families[0];
  EXPECT_EQ(f.family, "chain");
  EXPECT_EQ(f.points, 4);
  ASSERT_TRUE(f.time.available);
  EXPECT_NEAR(f.time.slope, 2.0, 1e-9);
  ASSERT_TRUE(f.rss.available);
  EXPECT_NEAR(f.rss.slope, 1.0, 1e-9);
  ASSERT_TRUE(f.bdd_bytes.available);
  EXPECT_NEAR(f.bdd_bytes.slope, 1.0, 1e-9);
  EXPECT_FALSE(r.regression());  // no baseline, fits only
}

TEST(Trend, MatchingBaselinePassesInsideBands) {
  const TrajectoryDoc base = power_law("chain", 1.2, 1.0);
  const TrajectoryDoc cand = power_law("chain", 1.2, 1.0, /*scale=*/1.1);
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  EXPECT_EQ(r.matched_points, 4);
  EXPECT_FALSE(r.regression());  // +10% inside the default 25% bands
}

TEST(Trend, SlowerPointRegressesOnWallTime) {
  const TrajectoryDoc base = power_law("chain", 1.2, 1.0);
  TrajectoryDoc cand = power_law("chain", 1.2, 1.0);
  cand.points.back().wall_ms *= 1.6;  // +60% at the largest size
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  ASSERT_EQ(r.point_regressions.size(), 1u);
  const TrendDelta& d = r.point_regressions[0];
  EXPECT_EQ(d.metric, "wall_ms");
  EXPECT_EQ(d.family, "chain");
  EXPECT_EQ(d.target_gates, 3000u);
  EXPECT_GT(d.cand, d.base);
  EXPECT_TRUE(r.regression());
}

TEST(Trend, MemoryBandCatchesRssGrowth) {
  const TrajectoryDoc base = power_law("mesh", 1.0, 1.0);
  TrajectoryDoc cand = power_law("mesh", 1.0, 1.0);
  for (TrajectoryPoint& p : cand.points) p.peak_rss_kb *= 1.5;
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  ASSERT_EQ(r.point_regressions.size(), 4u);
  for (const TrendDelta& d : r.point_regressions)
    EXPECT_EQ(d.metric, "peak_rss_kb");
}

TEST(Trend, TimeFloorIgnoresNoiseAtTinySizes) {
  TrajectoryDoc base = power_law("cone", 1.0, 1.0);
  TrajectoryDoc cand = power_law("cone", 1.0, 1.0);
  // Both sides under the 5 ms floor: a 3x ratio is timer noise, not signal.
  base.points[0].wall_ms = 1.0;
  cand.points[0].wall_ms = 3.0;
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  EXPECT_FALSE(r.regression());
}

TEST(Trend, SlopeDriftRegressesUnderTightenedBand) {
  // Same smallest point, superlinear drift above it: complexity-class
  // regression that generous per-point bands at small sizes would miss.
  const TrajectoryDoc base = power_law("chain", 1.0, 1.0);
  const TrajectoryDoc cand = power_law("chain", 1.5, 1.0);
  TrendOptions loose;
  loose.time_band = 1e9;  // disarm per-point checks; isolate the slope gate
  loose.mem_band = 1e9;
  loose.slope_band = 0.15;
  const TrendReport r = analyze_trend(cand, &base, loose);
  ASSERT_EQ(r.slope_regressions.size(), 1u);
  EXPECT_EQ(r.slope_regressions[0].metric, "wall_ms_slope");
  // JSONL round-trips through 6-significant-digit text, so fits are only
  // good to ~1e-4.
  EXPECT_NEAR(r.slope_regressions[0].base, 1.0, 1e-4);
  EXPECT_NEAR(r.slope_regressions[0].cand, 1.5, 1e-4);

  TrendOptions wide = loose;
  wide.slope_band = 0.75;  // widened band tolerates the same drift
  EXPECT_FALSE(analyze_trend(cand, &base, wide).regression());
}

TEST(Trend, UnmatchedFamiliesAndPointsAreIgnored) {
  const TrajectoryDoc base = power_law("chain", 1.0, 1.0);
  TrajectoryDoc cand = power_law("mesh", 3.0, 2.0);  // no chain twin at all
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  EXPECT_EQ(r.matched_points, 0);
  EXPECT_FALSE(r.regression());
}

TEST(Trend, TrendJsonIsValidAndCarriesRegressions) {
  const TrajectoryDoc base = power_law("chain", 1.0, 1.0);
  TrajectoryDoc cand = power_law("chain", 1.0, 1.0);
  cand.points.back().wall_ms *= 2.0;
  const TrendReport r = analyze_trend(cand, &base, TrendOptions{});
  ASSERT_TRUE(r.regression());

  std::ostringstream os;
  write_trend_json(os, r);
  std::string error;
  const auto doc = parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "minpower.trend.v1");
  const JsonValue* summary = doc->find("summary");
  ASSERT_NE(summary, nullptr);
  const JsonValue* verdict = summary->find("verdict");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->string, "regression");
  const JsonValue* points = doc->find("point_regressions");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->items.size(), 1u);
  const JsonValue* metric = points->items[0].find("metric");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->string, "wall_ms");

  // The human-readable table names the offender too.
  std::ostringstream table;
  print_trend(table, r);
  EXPECT_NE(table.str().find("wall_ms"), std::string::npos);
  EXPECT_NE(table.str().find("chain"), std::string::npos);
}

/// A point with every field set to a distinct value.
TrajectoryPoint fixed_point() {
  TrajectoryPoint p;
  p.family = "chain";
  p.seed = 7;
  p.target_gates = 1000;
  p.gates = 1013;
  p.suite = 1;
  p.threads = 1;
  p.shards = 2;
  p.wall_ms = 5123.25;
  p.map_curve_cap = 64;
  p.peak_bdd_nodes = 5510000;
  p.peak_bdd_node_bytes = 132240000;
  p.peak_bdd_arena_bytes = 198360000;
  p.peak_rss_kb = 246000;
  p.degradations = 1;
  p.failures = 2;
  p.retries = 3;
  return p;
}

TEST(Trend, WrittenPointLoadsBackEqual) {
  TrajectoryPoint fractional = fixed_point();
  fractional.family = "paper-suite";
  fractional.wall_ms = 0.1 + 0.2;  // not a short decimal: %.17g round trip
  fractional.gates = 1.0 / 3.0;
  std::ostringstream os;
  for (const TrajectoryPoint& p : {fixed_point(), fractional})
    write_trajectory_point(os, p);
  TrajectoryDoc doc;
  std::string error;
  ASSERT_TRUE(load_trajectory(os.str(), "t.jsonl", &doc, &error)) << error;
  ASSERT_EQ(doc.points.size(), 2u);
  EXPECT_EQ(doc.points[0], fixed_point());
  EXPECT_EQ(doc.points[1], fractional);
}

// A fixed record's exact line: points appended to an existing trajectory
// keep the bytes of the points already in it.
TEST(Trend, WrittenPointLineIsUnchanged) {
  std::ostringstream os;
  write_trajectory_point(os, fixed_point());
  EXPECT_EQ(os.str(),
            "{\"schema\":\"minpower.bench_trajectory.v1\",\"family\":"
            "\"chain\",\"seed\":7,\"target_gates\":1000,\"gates\":1013,"
            "\"suite\":1,\"threads\":1,\"shards\":2,\"wall_ms\":5123.25,"
            "\"map_curve_cap\":64,\"peak_bdd_nodes\":5510000,"
            "\"peak_bdd_node_bytes\":132240000,\"peak_bdd_arena_bytes\":"
            "198360000,\"peak_rss_kb\":246000,\"degradations\":1,"
            "\"failures\":2,\"retries\":3}\n");
}

TEST(Trend, AppendedPointsAccumulateInTheFile) {
  const std::string path = ::testing::TempDir() + "mp_trend_append.jsonl";
  std::remove(path.c_str());
  TrajectoryPoint second = fixed_point();
  second.target_gates = 316;
  std::string error;
  ASSERT_TRUE(append_trajectory_point(path, fixed_point(), &error)) << error;
  ASSERT_TRUE(append_trajectory_point(path, second, &error)) << error;
  TrajectoryDoc doc;
  ASSERT_TRUE(load_trajectory_file(path, &doc, &error)) << error;
  ASSERT_EQ(doc.points.size(), 2u);
  EXPECT_EQ(doc.points[0], fixed_point());
  EXPECT_EQ(doc.points[1], second);
  EXPECT_FALSE(append_trajectory_point(
      ::testing::TempDir() + "no/such/dir/t.jsonl", second, &error));
  EXPECT_EQ(error.rfind("cannot open ", 0), 0u) << error;
}

}  // namespace
}  // namespace minpower::report
