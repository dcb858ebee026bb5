// The flow engine (FlowSession): shared-decomposition reuse, deterministic
// parallelism, phase instrumentation, and the machine-readable JSON report.

#include <gtest/gtest.h>

#include <sstream>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

Network prepared(std::uint64_t seed) {
  Network net = testing::random_network(seed, 7, 16, 3);
  prepare_network(net);
  return net;
}

/// Exact (bitwise) equality of everything except wall times.
void expect_identical(const FlowResult& a, const FlowResult& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.area, b.area) << method_name(a.method);
  EXPECT_EQ(a.delay, b.delay) << method_name(a.method);
  EXPECT_EQ(a.power_uw, b.power_uw) << method_name(a.method);
  EXPECT_EQ(a.gates, b.gates) << method_name(a.method);
  EXPECT_EQ(a.tree_activity, b.tree_activity) << method_name(a.method);
  EXPECT_EQ(a.nand_depth, b.nand_depth) << method_name(a.method);
  EXPECT_EQ(a.nand_nodes, b.nand_nodes) << method_name(a.method);
  EXPECT_EQ(a.redecomposed, b.redecomposed) << method_name(a.method);
  EXPECT_EQ(a.phases.bdd_nodes, b.phases.bdd_nodes) << method_name(a.method);
  EXPECT_EQ(a.phases.matches, b.phases.matches) << method_name(a.method);
  EXPECT_EQ(a.phases.curve_points, b.phases.curve_points)
      << method_name(a.method);
}

TEST(FlowEngine, MatchesSixIndependentRunMethodCalls) {
  const Network net = prepared(61);
  ASSERT_GT(net.num_internal(), 0u);
  FlowSession engine(standard_library());
  const std::vector<FlowResult> shared = engine.run_circuit(net);
  ASSERT_EQ(shared.size(), 6u);
  const Method methods[] = {Method::kI,  Method::kII, Method::kIII,
                            Method::kIV, Method::kV,  Method::kVI};
  for (int i = 0; i < 6; ++i) {
    const FlowResult indep = run_method(net, methods[i], standard_library());
    expect_identical(shared[static_cast<std::size_t>(i)], indep);
  }
}

TEST(FlowEngine, ParallelMatchesSerial) {
  std::vector<Network> nets;
  for (std::uint64_t seed : {62u, 63u, 64u}) nets.push_back(prepared(seed));
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);

  EngineOptions serial;
  serial.num_threads = 1;
  FlowSession eng1(standard_library(), serial);
  const auto rs1 = eng1.run_suite(circuits);

  EngineOptions parallel;
  parallel.num_threads = 4;
  FlowSession eng4(standard_library(), parallel);
  const auto rs4 = eng4.run_suite(circuits);

  ASSERT_EQ(rs1.size(), circuits.size());
  ASSERT_EQ(rs4.size(), circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    ASSERT_EQ(rs1[c].size(), 6u);
    ASSERT_EQ(rs4[c].size(), 6u);
    for (std::size_t m = 0; m < 6; ++m) expect_identical(rs1[c][m], rs4[c][m]);
  }
}

TEST(FlowEngine, ThreePassesPerCircuit) {
  const Network net = prepared(65);
  EngineOptions eo;
  eo.num_threads = 2;
  FlowSession engine(standard_library(), eo);
  metrics::Counter& bdd_passes = metrics::counter("activity.passes");
  const std::uint64_t before = bdd_passes.value();
  const std::vector<FlowResult> rs = engine.run_circuit(net);
  ASSERT_EQ(rs.size(), 6u);
  // One source probability pass (stage 0) and three subject passes.
  EXPECT_EQ(bdd_passes.value() - before, 4u);
  EXPECT_EQ(engine.counters().decomp_passes, 3);
  EXPECT_EQ(engine.counters().activity_passes, 3);
  EXPECT_EQ(engine.counters().map_passes, 6);
  for (const FlowResult& r : rs) {
    EXPECT_EQ(r.phases.decomp_passes, 3) << method_name(r.method);
    EXPECT_EQ(r.phases.activity_passes, 3) << method_name(r.method);
    EXPECT_TRUE(r.phases.shared_decomp) << method_name(r.method);
    EXPECT_TRUE(r.phases.shared_activity) << method_name(r.method);
  }
  // Method pairs share decomposition diagnostics.
  EXPECT_DOUBLE_EQ(rs[0].tree_activity, rs[3].tree_activity);
  EXPECT_DOUBLE_EQ(rs[1].tree_activity, rs[4].tree_activity);
  EXPECT_DOUBLE_EQ(rs[2].tree_activity, rs[5].tree_activity);
  // Counters accumulate across runs.
  engine.run_circuit(net);
  EXPECT_EQ(engine.counters().decomp_passes, 6);
  engine.reset_counters();
  EXPECT_EQ(engine.counters().decomp_passes, 0);
}

TEST(FlowEngine, PhaseStatsArePopulated) {
  const Network net = prepared(67);
  FlowSession engine(standard_library());
  for (const FlowResult& r : engine.run_circuit(net)) {
    EXPECT_GT(r.phases.bdd_nodes, 0u) << method_name(r.method);
    EXPECT_GT(r.phases.matches, 0u) << method_name(r.method);
    EXPECT_GT(r.phases.curve_points, 0u) << method_name(r.method);
    EXPECT_GE(r.phases.decomp_ms, 0.0);
    EXPECT_GE(r.phases.activity_ms, 0.0);
    EXPECT_GE(r.phases.map_ms, 0.0);
    EXPECT_GE(r.phases.eval_ms, 0.0);
  }
}

TEST(FlowEngine, BiasedPiStatisticsFlowThrough) {
  // The engine must plumb non-uniform PI statistics exactly like
  // run_method does (regression for the dropped-PI-statistics bug).
  const Network net = prepared(68);
  FlowOptions biased;
  biased.pi_prob1.assign(net.pis().size(), 0.9);
  EngineOptions eo;
  eo.flow = biased;
  FlowSession engine(standard_library(), eo);
  const std::vector<FlowResult> shared = engine.run_circuit(net);
  const FlowResult indep =
      run_method(net, Method::kV, standard_library(), biased);
  expect_identical(shared[4], indep);

  FlowSession uniform(standard_library());
  const std::vector<FlowResult> base = uniform.run_circuit(net);
  EXPECT_NE(shared[4].power_uw, base[4].power_uw);
}

/// Structural check: balanced braces/brackets outside strings, and the
/// required schema keys are present.
void expect_valid_flow_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  for (const char* key :
       {"\"schema\"", "minpower.flow.v1", "\"circuits\"", "\"methods\"",
        "\"phases\"", "\"decomp_ms\"", "\"activity_ms\"", "\"map_ms\"",
        "\"bdd_nodes\"", "\"curve_points\"", "\"decomp_passes\"",
        "\"engine\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
}

TEST(FlowEngine, WritesValidJsonReport) {
  const Network net = prepared(69);
  FlowSession engine(standard_library());
  const std::vector<FlowResult> rs = engine.run_circuit(net);
  std::ostringstream os;
  write_flow_json(os, {rs}, engine.counters(), 1, 12.5,
                  standard_library().name());
  expect_valid_flow_json(os.str());
  // All six methods appear.
  for (const char* m : {"\"I\"", "\"II\"", "\"III\"", "\"IV\"", "\"V\"",
                        "\"VI\""})
    EXPECT_NE(os.str().find(m), std::string::npos) << m;
}

}  // namespace
}  // namespace minpower
