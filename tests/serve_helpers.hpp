#pragma once
// What `minpower serve` must answer for a FLOW body, computed without a
// server: the serve and serve-stress tests compare responses against it.

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/session.hpp"
#include "io/blif.hpp"

namespace minpower::testing {

/// Parse and prepare `blif` exactly like the server, run a cache-off
/// one-shot engine under `flow`, and render with the serve policy (no
/// metrics, zeroed wall times, canonical counters).
inline std::string one_shot_body(const Library& lib, const std::string& blif,
                                 const FlowOptions& flow = {}) {
  BlifError blif_error;
  std::optional<Network> net = try_read_blif_string(blif, &blif_error);
  EXPECT_TRUE(net.has_value()) << blif_error.message;
  if (!net) return {};
  prepare_network(*net);
  EngineOptions engine_options;
  engine_options.flow = flow;
  FlowSession engine(lib, engine_options);
  const std::vector<FlowResult> results = engine.run_circuit(*net);
  EngineCounters counters;
  counters.decomp_passes = 3;
  counters.activity_passes = 3;
  counters.map_passes = 6;
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  std::ostringstream body;
  write_flow_json(body, {results}, counters, /*num_threads=*/1,
                  /*elapsed_ms=*/0.0, lib.name(), policy);
  return body.str();
}

}  // namespace minpower::testing
