// report/baseline: flow-report loading, cell-by-cell QoR compare semantics
// (exact lock, tolerance, slowdown band, subset skip, require_all), registry
// diffing, and histogram percentile estimation (DESIGN.md §11).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "report/baseline.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

using report::CompareOptions;
using report::CompareReport;
using report::FlowReportDoc;
using report::HistSnapshot;
using report::QorCell;
using report::Verdict;

/// A minimal two-circuit report with non-trivial phase times.
FlowReportDoc small_doc() {
  FlowReportDoc doc;
  doc.path = "doc.json";
  doc.library = "paperlib";
  doc.num_threads = 2;
  doc.elapsed_ms = 100.0;
  doc.circuits = {"alpha", "beta"};
  const char* methods[] = {"I", "II"};
  for (const std::string& c : doc.circuits)
    for (const char* m : methods) {
      QorCell cell;
      cell.circuit = c;
      cell.method = m;
      cell.state = "ok";
      cell.area = 1000.0;
      cell.delay_ns = 5.25;
      cell.power_uw = 211.34703457355499;
      cell.gates = 42.0;
      cell.decomp_ms = 10.0;
      cell.activity_ms = 4.0;
      cell.map_ms = 20.0;
      cell.eval_ms = 0.25;  // below the 1 ms floor — never gated
      doc.cells.push_back(cell);
    }
  doc.counters = {{"map.matches", 1234}, {"decomp.nodes", 77}};
  doc.gauges = {{"pool.threads", 2}};
  HistSnapshot h;
  h.name = "map.match_us";
  h.count = 20;
  h.sum = 500;
  h.buckets = {{1, 3}, {8, 17}};
  doc.histograms = {h};
  return doc;
}

const report::CellResult* find_cell(const CompareReport& r,
                                    const std::string& circuit,
                                    const std::string& method) {
  for (const report::CellResult& c : r.cells)
    if (c.circuit == circuit && c.method == method) return &c;
  return nullptr;
}

TEST(Compare, IdenticalReportsPass) {
  const FlowReportDoc doc = small_doc();
  const CompareReport r =
      report::compare_flow_reports(doc, doc, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, 4);
  EXPECT_EQ(r.skipped, 0);
  EXPECT_TRUE(r.metrics_checked);
  EXPECT_TRUE(r.counter_diffs.empty());
  EXPECT_FALSE(r.elapsed_slow);
}

TEST(Compare, OneUlpPowerDriftFailsExactLockAndNamesTheCell) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[1].power_uw =
      std::nextafter(cand.cells[1].power_uw, 1e9);  // alpha / II, +1 ulp
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.qor_regressed, 1);
  const report::CellResult* cell = find_cell(r, "alpha", "II");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->verdict, Verdict::kQorRegressed);
  ASSERT_EQ(cell->deltas.size(), 1u);
  EXPECT_EQ(cell->deltas[0].metric, "power_uw");
  // The offending cell is named in the printed verdict table.
  std::ostringstream os;
  report::print_compare(os, r);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("power_uw"), std::string::npos);
}

TEST(Compare, ImprovementAlsoFailsTheExactLock) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[2].area -= 1.0;  // beta / I got better
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.qor_improved, 1);
  EXPECT_EQ(find_cell(r, "beta", "I")->verdict, Verdict::kQorImproved);
}

TEST(Compare, ToleranceAdmitsSmallDrift) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[0].power_uw *= 1.0 + 1e-12;
  CompareOptions opt;
  opt.qor_rel_tol = 1e-9;
  const CompareReport r = report::compare_flow_reports(base, cand, opt);
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, 4);
}

TEST(Compare, DoubledPhaseTimeFailsTheSlowdownBand) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[3].map_ms *= 2.0;  // beta / II: 20 ms → 40 ms, band is +20%
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.slow, 1);
  const report::CellResult* cell = find_cell(r, "beta", "II");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->verdict, Verdict::kSlow);
  ASSERT_EQ(cell->deltas.size(), 1u);
  EXPECT_EQ(cell->deltas[0].metric, "map_ms");
}

TEST(Compare, SpeedupAndSubFloorTimesNeverFail) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[0].map_ms /= 4.0;    // big speedup — fine
  cand.cells[1].eval_ms *= 10.0;  // 0.25 ms → 2.5 ms, but base < floor
  cand.elapsed_ms *= 0.5;
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
}

TEST(Compare, NegativeBandDisablesAllTimeChecks) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[3].map_ms *= 50.0;
  cand.elapsed_ms *= 50.0;
  CompareOptions opt;
  opt.time_band = -1.0;
  const CompareReport r = report::compare_flow_reports(base, cand, opt);
  EXPECT_FALSE(r.regression());
}

TEST(Compare, ElapsedSlowdownGates) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.elapsed_ms = base.elapsed_ms * 2.0;
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.elapsed_slow);
  EXPECT_TRUE(r.regression());
}

TEST(Compare, StatusChangeFails) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.cells[1].state = "degraded";
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.status_changed, 1);
  EXPECT_EQ(find_cell(r, "alpha", "II")->verdict, Verdict::kStatusChanged);
}

TEST(Compare, SubsetCandidateSkipsWithoutFailing) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  // Candidate ran only "alpha".
  cand.circuits = {"alpha"};
  cand.cells.resize(2);
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, 2);
  EXPECT_EQ(r.skipped, 2);
  // Registry totals cover different work — must be skipped, not diffed.
  EXPECT_FALSE(r.metrics_checked);
  EXPECT_FALSE(r.metrics_skip_reason.empty());
  EXPECT_FALSE(r.elapsed_slow);

  CompareOptions strict;
  strict.require_all = true;
  EXPECT_TRUE(report::compare_flow_reports(base, cand, strict).regression());
}

TEST(Compare, CandidateOnlyCellsAreNewAndNeverFail) {
  const FlowReportDoc cand = small_doc();
  FlowReportDoc base = cand;
  base.circuits = {"alpha"};
  base.cells.resize(2);
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.added, 2);
  EXPECT_EQ(find_cell(r, "beta", "I")->verdict, Verdict::kNew);
}

TEST(Compare, CounterDriftFails) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.counters[0].second += 1;
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  ASSERT_EQ(r.counter_diffs.size(), 1u);
  EXPECT_EQ(r.counter_diffs[0].name, "map.matches");
  EXPECT_EQ(r.counter_diffs[0].base, 1234u);
  EXPECT_EQ(r.counter_diffs[0].cand, 1235u);
}

TEST(Compare, HistogramDriftReportsPercentileShift) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.histograms[0].count = 25;
  cand.histograms[0].buckets = {{1, 3}, {8, 17}, {64, 5}};
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  ASSERT_EQ(r.histogram_diffs.size(), 1u);
  EXPECT_EQ(r.histogram_diffs[0].name, "map.match_us");
  EXPECT_EQ(r.histogram_diffs[0].base_p99, 8u);
  EXPECT_EQ(r.histogram_diffs[0].cand_p99, 64u);
}

TEST(Compare, HistogramPercentileNearestRank) {
  HistSnapshot h;
  h.count = 20;
  h.buckets = {{1, 3}, {8, 17}};
  // rank(0.5) = 10th sample → second bucket.
  EXPECT_EQ(report::histogram_percentile(h, 0.50), 8u);
  // rank(0.1) = 2nd sample → first bucket.
  EXPECT_EQ(report::histogram_percentile(h, 0.10), 1u);
  EXPECT_EQ(report::histogram_percentile(h, 0.99), 8u);
  EXPECT_EQ(report::histogram_percentile(h, 1.0), 8u);

  HistSnapshot empty;
  EXPECT_EQ(report::histogram_percentile(empty, 0.5), 0u);

  HistSnapshot zero;
  zero.count = 5;
  zero.buckets = {{0, 5}};
  EXPECT_EQ(report::histogram_percentile(zero, 0.5), 0u);
}

TEST(Compare, RoundTripsThroughFlowJson) {
  // End to end: engine run → write_flow_json → load_flow_report → compare
  // with itself must be clean, and the parsed document must carry the run's
  // shape.
  std::vector<Network> nets;
  for (std::uint64_t seed : {91u, 92u}) {
    Network net = testing::random_network(seed, 7, 16, 3);
    prepare_network(net);
    nets.push_back(std::move(net));
  }
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);
  FlowSession engine(standard_library());
  const auto results = engine.run_suite(circuits);

  std::ostringstream os;
  write_flow_json(os, results, engine.counters(), engine.effective_threads(),
                  12.5, standard_library().name());

  FlowReportDoc doc;
  std::string error;
  ASSERT_TRUE(report::load_flow_report(os.str(), "run.json", &doc, &error))
      << error;
  EXPECT_EQ(doc.circuits.size(), circuits.size());
  EXPECT_EQ(doc.cells.size(), circuits.size() * 6);
  EXPECT_EQ(doc.library, standard_library().name());
  EXPECT_EQ(doc.elapsed_ms, 12.5);
  EXPECT_FALSE(doc.counters.empty());

  const CompareReport r =
      report::compare_flow_reports(doc, doc, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, static_cast<int>(doc.cells.size()));

  std::ostringstream cj;
  report::write_compare_json(cj, r);
  EXPECT_NE(cj.str().find("minpower.compare.v1"), std::string::npos);
}

TEST(Compare, LoaderRejectsWrongSchema) {
  FlowReportDoc doc;
  std::string error;
  EXPECT_FALSE(report::load_flow_report("{}", "x", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(report::load_flow_report(
      R"({"schema": "minpower.bench.v1"})", "x", &doc, &error));
  EXPECT_FALSE(report::load_flow_report("not json", "x", &doc, &error));
}

}  // namespace
}  // namespace minpower
