// Committed QoR baseline lock (DESIGN.md §11): re-run a prefix of the
// 17-circuit paper suite and hold its QoR cells to
// tests/baselines/flow_suite.json, exactly — the same compare the CI
// qor-regression gate performs, minus wall-time checks (meaningless across
// machines and build types in a unit test).
//
// Regenerate the baseline deliberately after an intentional QoR change:
//   MINPOWER_REGEN_BASELINE=1 ctest -R Baseline
// which runs the *full* suite single-threaded and rewrites the file.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "report/baseline.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

std::string baseline_path() {
  return std::string(MP_TEST_DATA_DIR) + "/baselines/flow_suite.json";
}

/// Prepared prefix of the paper suite (the whole suite for SIZE_MAX).
std::vector<Network> suite_prefix(std::size_t max_circuits) {
  std::vector<Network> nets;
  for (const BenchProfile& p : paper_suite()) {
    if (nets.size() >= max_circuits) break;
    Network net = generate_benchmark(p);
    prepare_network(net);
    nets.push_back(std::move(net));
  }
  return nets;
}

/// Run the engine exactly the way bench_flow does and render the
/// minpower.flow.v1 document, so the committed baseline is interchangeable
/// with a bench_flow report. The registry reset must precede suite
/// preparation: bench_flow's registry covers prep-time BDD work too, and
/// the counters only match if this run counts the same work.
std::string run_suite_json(std::size_t max_circuits) {
  metrics::Registry::global().reset();
  const std::vector<Network> nets = suite_prefix(max_circuits);
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);
  EngineOptions eo;
  eo.num_threads = 1;
  FlowSession engine(standard_library(), eo);
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = engine.run_suite(circuits);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::ostringstream os;
  write_flow_json(os, results, engine.counters(), engine.effective_threads(),
                  elapsed_ms, standard_library().name());
  return os.str();
}

TEST(Baseline, SuitePrefixMatchesCommittedBaseline) {
  if (std::getenv("MINPOWER_REGEN_BASELINE")) {
    const std::string json = run_suite_json(SIZE_MAX);
    std::ofstream out(baseline_path());
    ASSERT_TRUE(out.good()) << "cannot write " << baseline_path();
    out << json;
    GTEST_SKIP() << "regenerated " << baseline_path();
  }

  report::FlowReportDoc base;
  std::string error;
  ASSERT_TRUE(report::load_flow_report_file(baseline_path(), &base, &error))
      << error
      << " — run with MINPOWER_REGEN_BASELINE=1 to create the baseline";
  for (const std::vector<FlowResult>& row : base.per_circuit)
    ASSERT_EQ(row.size(), 6u);
  EXPECT_EQ(base.library, standard_library().name());

  // A 4-circuit prefix keeps the lock cheap enough for sanitizer CI; the
  // full suite runs under MINPOWER_REGEN_BASELINE and in the bench itself.
  constexpr std::size_t kPrefix = 4;
  ASSERT_GE(base.per_circuit.size(), kPrefix);
  report::FlowReportDoc cand;
  ASSERT_TRUE(report::load_flow_report(run_suite_json(kPrefix), "rerun",
                                       &cand, &error))
      << error;
  for (std::size_t i = 0; i < kPrefix; ++i)
    EXPECT_EQ(cand.per_circuit[i][0].circuit, base.per_circuit[i][0].circuit)
        << i;

  report::CompareOptions opt;  // QoR exact…
  opt.time_band = -1.0;        // …wall times not comparable across machines
  const report::CompareReport r =
      report::compare_flow_reports(base, cand, opt);

  std::ostringstream verdict;
  report::print_compare(verdict, r);
  EXPECT_FALSE(r.regression())
      << "QoR drifted from tests/baselines/flow_suite.json — if the change "
         "is intentional, regenerate with MINPOWER_REGEN_BASELINE=1\n"
      << verdict.str();
  EXPECT_EQ(r.ok, static_cast<int>(kPrefix * 6));
  EXPECT_EQ(r.skipped,
            static_cast<int>((base.per_circuit.size() - kPrefix) * 6));
  // Subset run: registry totals must be skipped, not diffed.
  EXPECT_FALSE(r.metrics_checked);
}

}  // namespace
}  // namespace minpower
