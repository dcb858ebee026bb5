#include "flow/flow.hpp"

#include <chrono>

#include "opt/optimize.hpp"
#include "util/stats.hpp"

namespace minpower {

const char* method_name(Method m) {
  switch (m) {
    case Method::kI:
      return "I";
    case Method::kII:
      return "II";
    case Method::kIII:
      return "III";
    case Method::kIV:
      return "IV";
    case Method::kV:
      return "V";
    case Method::kVI:
      return "VI";
  }
  return "?";
}

bool method_from_name(const std::string& name, Method* out) {
  for (const Method m : kMethods) {
    if (name == method_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* task_state_name(TaskState s) {
  switch (s) {
    case TaskState::kOk:
      return "ok";
    case TaskState::kDegraded:
      return "degraded";
    case TaskState::kFailed:
      return "failed";
  }
  return "?";
}

bool task_state_from_name(const std::string& name, TaskState* out) {
  for (const TaskState s :
       {TaskState::kOk, TaskState::kDegraded, TaskState::kFailed}) {
    if (name == task_state_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

void prepare_network(Network& net) { rugged_lite(net); }

NetworkDecompOptions decomp_options_for(Method method,
                                        const FlowOptions& options) {
  NetworkDecompOptions d;
  d.style = options.style;
  d.pi_prob1 = options.pi_prob1;
  d.pi_arrival = options.pi_arrival;
  switch (method) {
    case Method::kI:
    case Method::kIV:
      d.algorithm = DecompAlgorithm::kBalanced;
      break;
    case Method::kII:
    case Method::kV:
      d.algorithm = DecompAlgorithm::kMinPower;
      break;
    case Method::kIII:
    case Method::kVI:
      d.algorithm = DecompAlgorithm::kMinPower;
      d.bounded_height = true;
      break;
  }
  return d;
}

MapOptions map_options_for(Method method, const FlowOptions& options) {
  MapOptions m;
  m.objective = (method == Method::kI || method == Method::kII ||
                 method == Method::kIII)
                    ? MapObjective::kArea
                    : MapObjective::kPower;
  m.dag = options.dag;
  m.style = options.style;
  m.vdd = options.vdd;
  m.t_cycle = options.t_cycle;
  m.po_load = options.po_load;
  m.epsilon_t = options.epsilon_t;
  m.epsilon_c = options.epsilon_c;
  m.max_curve_points = options.max_curve_points;
  m.policy = options.policy;
  m.relax_factor = options.relax_factor;
  m.pi_prob1 = options.pi_prob1;
  m.pi_arrival = options.pi_arrival;
  return m;
}

FlowResult run_method(const Network& prepared, Method method,
                      const Library& lib, const FlowOptions& options) {
  FlowResult r;
  r.circuit = prepared.name();
  r.method = method;

  const NetworkDecompOptions d = decomp_options_for(method, options);
  auto t0 = std::chrono::steady_clock::now();
  const NetworkDecompResult nd = decompose_network(prepared, d);
  r.phases.decomp_ms = elapsed_ms_since(t0);
  r.tree_activity = nd.tree_activity;
  r.nand_depth = nd.unit_depth;
  r.nand_nodes = nd.network.num_internal();
  r.redecomposed = nd.redecomposed_nodes;
  r.phases.redecomp_iterations = nd.redecomposed_nodes;
  r.phases.decomp_passes = 1;

  MapOptions m = map_options_for(method, options);
  // One BDD pass over the subject serves both mapping and scoring.
  ActivityPassStats astats;
  t0 = std::chrono::steady_clock::now();
  m.activities = switching_activities(nd.network, options.style,
                                      options.pi_prob1, &astats);
  r.phases.activity_ms = elapsed_ms_since(t0);
  r.phases.bdd_nodes = astats.bdd_nodes;
  r.phases.activity_passes = 1;

  t0 = std::chrono::steady_clock::now();
  const MapResult mapped = map_network(nd.network, lib, m);
  r.phases.map_ms = elapsed_ms_since(t0);
  r.phases.matches = mapped.total_matches;
  r.phases.curve_points = mapped.total_curve_points;

  t0 = std::chrono::steady_clock::now();
  const MappedReport rep =
      evaluate_mapped(mapped.mapped, PowerParams::from(m));
  r.phases.eval_ms = elapsed_ms_since(t0);
  r.area = rep.area;
  r.delay = rep.delay;
  r.power_uw = rep.power_uw;
  r.gates = rep.num_gates;
  return r;
}

}  // namespace minpower
