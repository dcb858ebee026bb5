// Flow-engine thread-count independence: the six-method flow over 3 seeded
// circuits must produce byte-identical `minpower.flow.v1` JSON at
// --threads 1 and --threads 8 (PR 1's determinism claim, locked in here).
//
// Wall-clock fields (PhaseStats *_ms, the top-level elapsed_ms) are the only
// values that legitimately differ between runs; the test zeroes them and
// fixes the reported thread count before serializing, so any other
// difference — a result value, an ordering, a counter — fails the byte
// comparison.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "library/library.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

void zero_wall_times(std::vector<std::vector<FlowResult>>& per_circuit) {
  for (auto& methods : per_circuit)
    for (FlowResult& r : methods) {
      r.phases.decomp_ms = 0.0;
      r.phases.activity_ms = 0.0;
      r.phases.map_ms = 0.0;
      r.phases.eval_ms = 0.0;
    }
}

std::string flow_json_at_threads(unsigned num_threads,
                                 const std::vector<Network>& circuits) {
  // The flow JSON embeds a snapshot of the (cumulative, global) metrics
  // registry; zero it per run so the byte comparison also asserts that
  // every metrics counter is thread-count independent.
  metrics::Registry::global().reset();
  EngineOptions eo;
  eo.num_threads = num_threads;
  FlowSession engine(standard_library(), eo);
  std::vector<const Network*> ptrs;
  for (const Network& c : circuits) ptrs.push_back(&c);
  auto results = engine.run_suite(ptrs);
  zero_wall_times(results);
  std::ostringstream os;
  // Fixed thread count and elapsed time: only computed values may differ.
  write_flow_json(os, results, engine.counters(), /*num_threads=*/1,
                  /*elapsed_ms=*/0.0, standard_library().name());
  return os.str();
}

TEST(FlowDeterminism, SixMethodJsonIsThreadCountInvariant) {
  std::vector<Network> circuits;
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    Network net = testing::random_network(seed, /*num_pi=*/7,
                                          /*num_nodes=*/18, /*num_po=*/4);
    prepare_network(net);
    circuits.push_back(std::move(net));
  }

  const std::string serial = flow_json_at_threads(1, circuits);
  const std::string parallel = flow_json_at_threads(8, circuits);
  EXPECT_EQ(serial, parallel)
      << "flow JSON differs between --threads 1 and --threads 8";

  // And re-running at the same thread count is reproducible, too.
  EXPECT_EQ(parallel, flow_json_at_threads(8, circuits));
}

TEST(FlowDeterminism, RepeatedSerialRunsAreByteIdentical) {
  std::vector<Network> circuits;
  Network net = testing::random_network(404);
  prepare_network(net);
  circuits.push_back(std::move(net));
  EXPECT_EQ(flow_json_at_threads(1, circuits),
            flow_json_at_threads(1, circuits));
}

}  // namespace
}  // namespace minpower
