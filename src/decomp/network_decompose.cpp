#include "decomp/network_decompose.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"

namespace minpower {

namespace {

struct NodePlanState {
  NodeDecomp plan;
  int balanced_h = 0;
  int bound = -1;          // active NAND height bound (-1 = unbounded)
  bool redecomposed = false;
};

/// Arrival/required/slack over the *original* DAG where each internal node
/// contributes its realized decomposition height (unit-delay model).
struct Timing {
  std::vector<double> arrival;
  std::vector<double> required;
  std::vector<double> slack;
};

Timing compute_timing(const Network& net,
                      const std::unordered_map<NodeId, NodePlanState>& plans,
                      const std::vector<double>& pi_arrival,
                      const std::vector<double>& po_required) {
  Timing t;
  t.arrival.assign(net.capacity(), 0.0);
  t.required.assign(net.capacity(),
                    std::numeric_limits<double>::infinity());
  const std::vector<NodeId> order = net.topo_order();

  for (std::size_t i = 0; i < net.pis().size(); ++i)
    t.arrival[static_cast<std::size_t>(net.pis()[i])] =
        pi_arrival.empty() ? 0.0 : pi_arrival[i];

  auto height_of = [&](NodeId id) -> double {
    const auto it = plans.find(id);
    return it == plans.end() ? 0.0
                             : static_cast<double>(it->second.plan.realized_height);
  };

  for (NodeId id : order) {
    const Node& n = net.node(id);
    if (!n.is_internal()) continue;
    double a = 0.0;
    for (NodeId f : n.fanins)
      a = std::max(a, t.arrival[static_cast<std::size_t>(f)]);
    t.arrival[static_cast<std::size_t>(id)] = a + height_of(id);
  }

  for (std::size_t i = 0; i < net.pos().size(); ++i) {
    auto& req = t.required[static_cast<std::size_t>(net.pos()[i].driver)];
    req = std::min(req, po_required[i]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    const Node& n = net.node(id);
    for (NodeId f : n.fanins) {
      const double req_f =
          t.required[static_cast<std::size_t>(id)] - height_of(id);
      auto& req = t.required[static_cast<std::size_t>(f)];
      req = std::min(req, req_f);
    }
  }
  t.slack.assign(net.capacity(), std::numeric_limits<double>::infinity());
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
    if (!net.node(id).is_dead())
      t.slack[static_cast<std::size_t>(id)] =
          t.required[static_cast<std::size_t>(id)] -
          t.arrival[static_cast<std::size_t>(id)];
  return t;
}

/// Sum of depth_surpluses along the most critical path through `target`:
/// walk backwards along max-arrival fanins and forwards along min-slack
/// fanouts.
double critical_path_surplus(const Network& net, NodeId target,
                             const Timing& t,
                             const std::unordered_map<NodeId, NodePlanState>& plans) {
  auto surplus = [&](NodeId id) -> double {
    const auto it = plans.find(id);
    if (it == plans.end()) return 0.0;
    return std::max(0, it->second.plan.realized_height - it->second.balanced_h);
  };
  double total = surplus(target);
  // Backwards.
  NodeId cur = target;
  for (;;) {
    const Node& n = net.node(cur);
    if (n.fanins.empty()) break;
    NodeId worst = n.fanins[0];
    for (NodeId f : n.fanins)
      if (t.arrival[static_cast<std::size_t>(f)] >
          t.arrival[static_cast<std::size_t>(worst)])
        worst = f;
    cur = worst;
    if (!net.node(cur).is_internal()) break;
    total += surplus(cur);
  }
  // Forwards.
  cur = target;
  for (;;) {
    const Node& n = net.node(cur);
    if (n.fanouts.empty()) break;
    NodeId worst = n.fanouts[0];
    for (NodeId f : n.fanouts)
      if (t.slack[static_cast<std::size_t>(f)] <
          t.slack[static_cast<std::size_t>(worst)])
        worst = f;
    cur = worst;
    total += surplus(cur);
  }
  return total;
}

}  // namespace

NetworkDecompResult decompose_network(const Network& net,
                                      const NetworkDecompOptions& options) {
  trace::Span span("decomp", "decomp");
  span.arg("network", net.name());
  metrics::counter("decomp.passes").add(1);
  // Exact probabilities of every original node: the Eq. 2 BDD traversal for
  // independent PIs, or the pattern distribution when correlations are
  // given.
  if (options.correlations != nullptr) {
    MP_CHECK_MSG(&options.correlations->network() == &net,
                 "pattern model must be built over the decomposed network");
    MP_CHECK_MSG(options.temporal.empty(),
                 "correlations and temporal models are mutually exclusive");
  }
  std::vector<NodeTransition> transitions;
  if (!options.temporal.empty()) {
    MP_CHECK_MSG(options.style == CircuitStyle::kStatic,
                 "the temporal model applies to static CMOS");
    transitions = transition_probabilities(net, options.temporal);
  }
  std::vector<double> prob;
  if (options.correlations != nullptr) {
    prob = options.correlations->all_probabilities();
  } else if (!transitions.empty()) {
    prob.resize(net.capacity(), 0.0);
    for (std::size_t i = 0; i < transitions.size(); ++i)
      prob[i] = transitions[i].p1;
  } else if (!options.node_prob.empty()) {
    MP_CHECK_MSG(options.node_prob.size() == net.capacity(),
                 "node_prob must cover the network capacity");
    prob = options.node_prob;
  } else {
    prob = signal_probabilities(net, options.pi_prob1);
  }

  // Phase 1: per-node plans, unrestricted (postorder is irrelevant here
  // because fanin probabilities come from the original network, exactly as
  // calculate_switching_and_correlation_probabilities(Γ) prescribes).
  std::unordered_map<NodeId, NodePlanState> plans;
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    const Node& n = net.node(id);
    if (!n.is_internal()) continue;
    budget_checkpoint("decomp");
    NodePlanState st;
    if (options.correlations != nullptr &&
        options.algorithm == DecompAlgorithm::kMinPower) {
      st.plan = decompose_node_correlated(n.cover, n.fanins,
                                          *options.correlations, options.style);
    } else if (!transitions.empty() &&
               options.algorithm == DecompAlgorithm::kMinPower) {
      std::vector<SignalTransition> fanin_states;
      fanin_states.reserve(n.fanins.size());
      for (NodeId f : n.fanins)
        fanin_states.push_back(SignalTransition::from(
            transitions[static_cast<std::size_t>(f)]));
      st.plan = decompose_node_transitions(n.cover, fanin_states);
    } else {
      std::vector<double> fanin_p;
      fanin_p.reserve(n.fanins.size());
      for (NodeId f : n.fanins)
        fanin_p.push_back(prob[static_cast<std::size_t>(f)]);
      st.plan = decompose_node(n.cover, fanin_p, options.style,
                               options.algorithm, -1);
    }
    st.balanced_h = balanced_nand_height(n.cover);
    plans.emplace(id, std::move(st));
  }
  metrics::counter("decomp.nodes_planned").add(plans.size());

  int redecomposed = 0;
  if (options.bounded_height) {
    // Required times: user-specified, or the conventional balanced depth.
    std::vector<double> po_required = options.po_required;
    if (po_required.empty()) {
      std::unordered_map<NodeId, NodePlanState> balanced;
      for (const auto& [id, st] : plans) {
        NodePlanState b;
        b.plan.realized_height = st.balanced_h;  // only the height is read
        balanced.emplace(id, std::move(b));
      }
      const Timing bt =
          compute_timing(net, balanced, options.pi_arrival,
                         std::vector<double>(net.pos().size(), 0.0));
      double depth = 0.0;
      for (const PrimaryOutput& po : net.pos())
        depth = std::max(depth,
                         bt.arrival[static_cast<std::size_t>(po.driver)]);
      po_required.assign(net.pos().size(), depth);
    }

    for (;;) {
      budget_checkpoint("decomp");
      const Timing t =
          compute_timing(net, plans, options.pi_arrival, po_required);
      // Most negative slack among nodes not yet redecomposed and with
      // surplus to give; ties broken by fanout count (path sharing).
      NodeId pick = kNoNode;
      double pick_slack = 0.0;
      for (auto& [id, st] : plans) {
        if (st.redecomposed) continue;
        if (st.plan.realized_height <= st.balanced_h) continue;
        const double s = t.slack[static_cast<std::size_t>(id)];
        if (s >= 0.0) continue;
        if (pick == kNoNode || s < pick_slack ||
            (s == pick_slack &&
             net.fanout_count(id) > net.fanout_count(pick))) {
          pick = id;
          pick_slack = s;
        }
      }
      if (pick == kNoNode) break;

      NodePlanState& st = plans.at(pick);
      const double surplus_total = critical_path_surplus(net, pick, t, plans);
      const double own_surplus =
          std::max(0, st.plan.realized_height - st.balanced_h);
      const double share =
          surplus_total > 0.0 ? pick_slack * own_surplus / surplus_total
                              : pick_slack;
      // L_n = H_n + distributed slack; slack is negative, so this shrinks
      // the node's height toward (and at most to) the balanced height.
      int bound = st.plan.realized_height +
                  static_cast<int>(std::floor(share));
      bound = std::max(bound, st.balanced_h);
      if (bound >= st.plan.realized_height) bound = st.plan.realized_height - 1;
      bound = std::max(bound, st.balanced_h);

      const Node& n = net.node(pick);
      std::vector<double> fanin_p;
      for (NodeId f : n.fanins)
        fanin_p.push_back(prob[static_cast<std::size_t>(f)]);
      st.plan = decompose_node(n.cover, fanin_p, options.style,
                               options.algorithm, bound);
      st.bound = bound;
      st.redecomposed = true;
      ++redecomposed;
    }
  }

  // Phase 2: emit Γ'.
  NetworkDecompResult result;
  Network& out = result.network;
  out.set_name(net.name() + "_nand");
  std::unordered_map<NodeId, NodeId> map;  // original → decomposed root
  for (NodeId pi : net.pis()) map[pi] = out.add_pi(net.node(pi).name);
  for (NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    if (n.is_const()) {
      // Fresh name: the original's auto-generated constant names can collide
      // with names emit_node_decomp generates in `out`.
      map[id] = out.add_constant(n.kind == NodeKind::kConstant1);
      continue;
    }
    if (!n.is_internal()) continue;
    std::vector<NodeId> fanins;
    fanins.reserve(n.fanins.size());
    for (NodeId f : n.fanins) fanins.push_back(map.at(f));
    const NodePlanState& st = plans.at(id);
    map[id] = emit_node_decomp(out, fanins, st.plan);
    result.tree_activity += st.plan.tree_activity;
  }
  for (const PrimaryOutput& po : net.pos())
    out.add_po(po.name, map.at(po.driver));
  out.sweep();
  out.check();
  MP_CHECK(out.is_nand_network());
  result.unit_depth = out.depth();
  result.redecomposed_nodes = redecomposed;
  metrics::counter("decomp.redecomp_iterations")
      .add(static_cast<std::uint64_t>(redecomposed));
  span.arg("nodes_planned", static_cast<unsigned long long>(plans.size()));
  span.arg("redecomposed", redecomposed);
  return result;
}

}  // namespace minpower
