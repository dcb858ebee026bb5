// report/baseline: flow-report loading, cell-by-cell compare semantics
// (exact QoR and work lock, slowdown band, --qor-only, subset skip,
// require_all), registry diffing, and histogram percentile estimation
// (DESIGN.md §11).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "report/baseline.hpp"
#include "trace/metrics.hpp"
#include "util/json_reader.hpp"

namespace minpower {
namespace {

using report::CompareOptions;
using report::CompareReport;
using report::FlowReportDoc;
using report::Verdict;
using Hist = metrics::Snapshot::Hist;

/// A minimal two-circuit report with non-trivial phase times.
FlowReportDoc small_doc() {
  FlowReportDoc doc;
  doc.path = "doc.json";
  doc.library = "paperlib";
  doc.num_threads = 2;
  doc.elapsed_ms = 100.0;
  for (const char* c : {"alpha", "beta"}) {
    std::vector<FlowResult>& row = doc.per_circuit.emplace_back();
    for (const Method m : {Method::kI, Method::kII}) {
      FlowResult cell;
      cell.circuit = c;
      cell.method = m;
      cell.area = 1000.0;
      cell.delay = 5.25;
      cell.power_uw = 211.34703457355499;
      cell.gates = 42;
      cell.phases.decomp_ms = 10.0;
      cell.phases.activity_ms = 4.0;
      cell.phases.map_ms = 20.0;
      cell.phases.eval_ms = 0.25;  // below the 1 ms floor — never gated
      row.push_back(cell);
    }
  }
  doc.metrics.counters = {{"map.matches", 1234}, {"decomp.nodes", 77}};
  doc.metrics.gauges = {{"pool.threads", 2}};
  Hist h;
  h.name = "map.match_us";
  h.count = 20;
  h.sum = 500;
  h.buckets = {{1, 3}, {8, 17}};
  doc.metrics.histograms = {h};
  return doc;
}

/// Cell `i` of small_doc's grid, circuit-major: 0..3 are alpha/I, alpha/II,
/// beta/I, beta/II.
FlowResult& cell_at(FlowReportDoc& doc, std::size_t i) {
  return doc.per_circuit[i / 2][i % 2];
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
  cell_at(cand, 1).power_uw =
      std::nextafter(cell_at(cand, 1).power_uw, 1e9);  // alpha / II, +1 ulp
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
  cell_at(cand, 2).area -= 1.0;  // beta / I got better
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.qor_improved, 1);
  EXPECT_EQ(find_cell(r, "beta", "I")->verdict, Verdict::kQorImproved);
}

TEST(Compare, WorkFieldDriftFailsAndNamesTheCell) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cell_at(cand, 2).phases.matches += 1;  // beta / I
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  EXPECT_EQ(r.work_changed, 1);
  EXPECT_EQ(r.ok, 3);
  const report::CellResult* cell = find_cell(r, "beta", "I");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->verdict, Verdict::kWorkChanged);
  ASSERT_EQ(cell->deltas.size(), 1u);
  EXPECT_EQ(cell->deltas[0].metric, "matches");
  EXPECT_EQ(cell->deltas[0].cand, cell->deltas[0].base + 1.0);

  std::ostringstream table;
  report::print_compare(table, r);
  EXPECT_NE(table.str().find("beta       I    work-changed  matches"),
            std::string::npos)
      << table.str();
  EXPECT_NE(table.str().find("1 work-changed"), std::string::npos);
  std::ostringstream doc;
  report::write_compare_json(doc, r);
  std::string error;
  const auto json = parse_json(doc.str(), &error);
  ASSERT_TRUE(json.has_value()) << error;
  EXPECT_EQ(json->find("summary")->find("work_changed")->number, 1.0);
  EXPECT_EQ(json->find("summary")->find("verdict")->string, "regression");

  FlowReportDoc flipped = base;
  cell_at(flipped, 1).phases.shared_activity = true;  // alpha / II
  const CompareReport f =
      report::compare_flow_reports(base, flipped, CompareOptions{});
  EXPECT_TRUE(f.regression());
  EXPECT_EQ(find_cell(f, "alpha", "II")->verdict, Verdict::kWorkChanged);
  EXPECT_EQ(find_cell(f, "alpha", "II")->deltas[0].metric, "shared_activity");

  // QoR outranks work: the cell is named once, by its worst finding.
  cell_at(flipped, 1).area += 1.0;
  EXPECT_EQ(find_cell(report::compare_flow_reports(base, flipped,
                                                   CompareOptions{}),
                      "alpha", "II")
                ->verdict,
            Verdict::kQorRegressed);
}

TEST(Compare, QorOnlyChecksQorAndStatusOnly) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  for (std::size_t i = 0; i < 4; ++i) {
    PhaseStats& p = cell_at(cand, i).phases;
    p.decomp_ms *= 50.0;
    p.activity_ms *= 50.0;
    p.map_ms *= 50.0;
  }
  cand.elapsed_ms *= 50.0;
  cell_at(cand, 3).phases.matches += 7;
  cand.metrics.counters[0].second += 1;
  CompareOptions qor_only;
  qor_only.check_metrics = false;
  const CompareReport r = report::compare_flow_reports(base, cand, qor_only);
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, 4);
  EXPECT_FALSE(r.elapsed_slow);
  EXPECT_FALSE(r.metrics_checked);
  // The same candidate fails the full gate on every count.
  const CompareReport full =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(full.elapsed_slow);
  EXPECT_EQ(full.counter_diffs.size(), 1u);
  EXPECT_EQ(find_cell(full, "beta", "II")->verdict, Verdict::kWorkChanged);

  // QoR and status stay exact under --qor-only.
  cell_at(cand, 0).power_uw = std::nextafter(cell_at(cand, 0).power_uw, 1e9);
  const CompareReport drift =
      report::compare_flow_reports(base, cand, qor_only);
  EXPECT_TRUE(drift.regression());
  EXPECT_EQ(drift.qor_regressed, 1);
  EXPECT_EQ(drift.ok, 3);
  cell_at(cand, 0).power_uw = base.per_circuit[0][0].power_uw;
  cell_at(cand, 1).status.state = TaskState::kDegraded;
  EXPECT_EQ(report::compare_flow_reports(base, cand, qor_only).status_changed,
            1);
}

TEST(Compare, DoubledPhaseTimeFailsTheSlowdownBand) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  // beta / II: 20 ms → 40 ms, band is +20%
  cell_at(cand, 3).phases.map_ms *= 2.0;
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
  cell_at(cand, 0).phases.map_ms /= 4.0;  // big speedup — fine
  // 0.25 ms → 2.5 ms, but the base is below the floor.
  cell_at(cand, 1).phases.eval_ms *= 10.0;
  cand.elapsed_ms *= 0.5;
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
}

TEST(Compare, NegativeBandDisablesAllTimeChecks) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cell_at(cand, 3).phases.map_ms *= 50.0;
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
  cell_at(cand, 1).status.state = TaskState::kDegraded;
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
  cand.per_circuit.resize(1);
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
  base.per_circuit.resize(1);
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.added, 2);
  EXPECT_EQ(find_cell(r, "beta", "I")->verdict, Verdict::kNew);

  // require_all means exactly the baseline's cells: extra ones fail too,
  // and the table names them.
  CompareOptions strict;
  strict.require_all = true;
  const CompareReport s = report::compare_flow_reports(base, cand, strict);
  EXPECT_TRUE(s.regression());
  std::ostringstream table;
  report::print_compare(table, s);
  EXPECT_NE(table.str().find("beta       II   new"), std::string::npos)
      << table.str();
}

TEST(Compare, CounterDriftFails) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.metrics.counters[0].second += 1;
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  ASSERT_EQ(r.counter_diffs.size(), 1u);
  EXPECT_EQ(r.counter_diffs[0].name, "map.matches");
  EXPECT_EQ(r.counter_diffs[0].base, 1234u);
  EXPECT_EQ(r.counter_diffs[0].cand, 1235u);
}

TEST(Compare, CandidateOnlyMetricsAreAddedAndNeverFail) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.metrics.counters.push_back({"map.breakpoints", 4740571});
  cand.metrics.counters.push_back({"map.unused", 0});  // zero: not listed
  cand.metrics.gauges.push_back({"map.peak_points", 9});
  Hist h;
  h.name = "map.sweep_us";
  h.count = 4;
  h.sum = 40;
  h.buckets = {{8, 4}};
  cand.metrics.histograms.push_back(h);
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_TRUE(r.counter_diffs.empty());
  EXPECT_TRUE(r.gauge_diffs.empty());
  EXPECT_TRUE(r.histogram_diffs.empty());
  ASSERT_EQ(r.added_metrics.size(), 3u);
  EXPECT_EQ(r.added_metrics[0].kind, "counter");
  EXPECT_EQ(r.added_metrics[0].name, "map.breakpoints");
  EXPECT_EQ(r.added_metrics[0].value, 4740571u);
  EXPECT_EQ(r.added_metrics[1].kind, "gauge");
  EXPECT_EQ(r.added_metrics[1].name, "map.peak_points");
  EXPECT_EQ(r.added_metrics[2].kind, "histogram");
  EXPECT_EQ(r.added_metrics[2].name, "map.sweep_us");
  EXPECT_EQ(r.added_metrics[2].value, 4u);

  std::ostringstream table;
  report::print_compare(table, r);
  EXPECT_NE(table.str().find("added counter map.breakpoints: 4740571"),
            std::string::npos);
  EXPECT_NE(table.str().find("added histogram map.sweep_us: 4"),
            std::string::npos);
  EXPECT_NE(table.str().find("\nOK\n"), std::string::npos);
  std::ostringstream doc;
  report::write_compare_json(doc, r);
  std::string error;
  const auto json = parse_json(doc.str(), &error);
  ASSERT_TRUE(json.has_value()) << error;
  const JsonValue* added = json->find("metrics")->find("added");
  ASSERT_NE(added, nullptr);
  ASSERT_EQ(added->items.size(), 3u);
  EXPECT_EQ(added->items[1].find("kind")->string, "gauge");
  EXPECT_EQ(json->find("summary")->find("metrics_added")->number, 3.0);
  EXPECT_EQ(json->find("summary")->find("verdict")->string, "ok");

  // An entry the base has still fails when it changes or goes missing,
  // even next to added ones.
  FlowReportDoc dropped = cand;
  dropped.metrics.counters.erase(dropped.metrics.counters.begin());
  dropped.metrics.histograms.erase(dropped.metrics.histograms.begin());
  const CompareReport d =
      report::compare_flow_reports(base, dropped, CompareOptions{});
  EXPECT_TRUE(d.regression());
  ASSERT_EQ(d.counter_diffs.size(), 1u);
  EXPECT_EQ(d.counter_diffs[0].name, "map.matches");
  EXPECT_EQ(d.counter_diffs[0].cand, 0u);
  ASSERT_EQ(d.histogram_diffs.size(), 1u);
  EXPECT_EQ(d.histogram_diffs[0].name, "map.match_us");
  EXPECT_EQ(d.added_metrics.size(), 3u);
}

TEST(Compare, HistogramDriftReportsPercentileShift) {
  const FlowReportDoc base = small_doc();
  FlowReportDoc cand = base;
  cand.metrics.histograms[0].count = 25;
  cand.metrics.histograms[0].buckets = {{1, 3}, {8, 17}, {64, 5}};
  const CompareReport r =
      report::compare_flow_reports(base, cand, CompareOptions{});
  EXPECT_TRUE(r.regression());
  ASSERT_EQ(r.histogram_diffs.size(), 1u);
  EXPECT_EQ(r.histogram_diffs[0].name, "map.match_us");
  EXPECT_EQ(r.histogram_diffs[0].base_p99, 8u);
  EXPECT_EQ(r.histogram_diffs[0].cand_p99, 64u);
}

TEST(Compare, HistogramPercentileNearestRank) {
  Hist h;
  h.count = 20;
  h.buckets = {{1, 3}, {8, 17}};
  // rank(0.5) = 10th sample → second bucket.
  EXPECT_EQ(report::histogram_percentile(h, 0.50), 8u);
  // rank(0.1) = 2nd sample → first bucket.
  EXPECT_EQ(report::histogram_percentile(h, 0.10), 1u);
  EXPECT_EQ(report::histogram_percentile(h, 0.99), 8u);
  EXPECT_EQ(report::histogram_percentile(h, 1.0), 8u);

  Hist empty;
  EXPECT_EQ(report::histogram_percentile(empty, 0.5), 0u);

  Hist zero;
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
  auto results = engine.run_suite(circuits);
  // Give the work fields a run leaves at zero distinct non-zero values, so
  // the codec round trip below covers every locked field of every cell.
  int k = 0;
  for (std::vector<FlowResult>& row : results)
    for (FlowResult& cell : row) {
      cell.phases.redecomp_iterations = ++k;
      cell.phases.exact_fallbacks = ++k;
      cell.phases.activity_retries = ++k;
    }

  std::ostringstream os;
  write_flow_json(os, results, engine.counters(), engine.effective_threads(),
                  12.5, standard_library().name());

  FlowReportDoc doc;
  std::string error;
  ASSERT_TRUE(report::load_flow_report(os.str(), "run.json", &doc, &error))
      << error;
  ASSERT_EQ(doc.per_circuit.size(), circuits.size());
  for (const std::vector<FlowResult>& row : doc.per_circuit)
    EXPECT_EQ(row.size(), 6u);
  EXPECT_EQ(doc.library, standard_library().name());
  EXPECT_EQ(doc.elapsed_ms, 12.5);
  EXPECT_FALSE(doc.metrics.counters.empty());

  // Every locked field (QoR and work) survives the codec.
  FlowReportDoc run;
  run.path = "run";
  run.per_circuit = results;
  const CompareReport codec =
      report::compare_flow_reports(run, doc, CompareOptions{});
  std::ostringstream verdict;
  report::print_compare(verdict, codec);
  EXPECT_FALSE(codec.regression()) << verdict.str();
  EXPECT_EQ(codec.ok, static_cast<int>(circuits.size() * 6));

  const CompareReport r =
      report::compare_flow_reports(doc, doc, CompareOptions{});
  EXPECT_FALSE(r.regression());
  EXPECT_EQ(r.ok, static_cast<int>(circuits.size() * 6));

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

  // One-edit mutants of the committed baseline: each must fail to load
  // with an error naming the defective field, never slip through the gate.
  std::ifstream in(std::string(MP_TEST_DATA_DIR) +
                   "/baselines/flow_suite.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();
  ASSERT_TRUE(report::load_flow_report(baseline, "base", &doc, &error))
      << error;
  // The first cell's area and the first counter's value, read from the
  // file, so a regenerated baseline keeps every mutant applicable.
  const std::string area = testing::first_number(baseline, "area");
  const std::string value = testing::first_number(baseline, "value");
  ASSERT_FALSE(area.empty());
  ASSERT_FALSE(value.empty());
  const struct {
    std::string from;
    std::string to;
    const char* named;  // must appear in the error
  } mutants[] = {
      {R"("circuits": [)", R"("circuits": [7,)", "circuits[0] is not an object"},
      {R"("methods": [)", R"("methods": [7,)", "methods[0]"},
      {R"("method": "I",)", R"("method": "VII",)", "unknown method 'VII'"},
      {R"("area": )" + area + ",", "", "'area'"},
      {R"("area": )" + area + ",", R"("area": ")" + area + R"(",)", "'area'"},
      {R"("value": )" + value, R"("value": -5)", "'value'"},
      {R"("value": )" + value, R"("value": 1e30)", "'value'"},
  };
  for (const auto& m : mutants) {
    std::string text = baseline;
    const std::size_t at = text.find(m.from);
    ASSERT_NE(at, std::string::npos) << m.from;
    text.replace(at, m.from.size(), m.to);
    error.clear();
    EXPECT_FALSE(report::load_flow_report(text, "mutant", &doc, &error))
        << m.to;
    EXPECT_EQ(error.rfind("mutant: ", 0), 0u) << error;
    EXPECT_NE(error.find(m.named), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace minpower
