#include "prob/probability.hpp"

#include <algorithm>
#include <unordered_map>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace minpower {

std::vector<int> dfs_pi_variable_order(const Network& net) {
  std::unordered_map<NodeId, std::size_t> pi_index;
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    pi_index[net.pis()[i]] = i;

  std::vector<int> var_of(net.pis().size(), -1);
  int next_var = 0;
  std::vector<char> visited(net.capacity(), 0);
  std::vector<NodeId> stack;
  for (const PrimaryOutput& po : net.pos()) stack.push_back(po.driver);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (visited[static_cast<std::size_t>(id)]) continue;
    visited[static_cast<std::size_t>(id)] = 1;
    const Node& n = net.node(id);
    if (n.is_pi()) {
      var_of[pi_index.at(id)] = next_var++;
      continue;
    }
    // Push fanins in reverse so the first fanin is explored first.
    for (auto it = n.fanins.rbegin(); it != n.fanins.rend(); ++it)
      stack.push_back(*it);
  }
  // PIs unreachable from any PO get the remaining variables.
  for (int& v : var_of)
    if (v < 0) v = next_var++;
  return var_of;
}

BddRef compose_cover(BddManager& mgr, const Cover& cover,
                     const std::vector<BddRef>& fanin_refs) {
  BddRef r = BddManager::kFalse;
  for (const Cube& c : cover.cubes()) {
    BddRef cube = BddManager::kTrue;
    for (std::size_t i = 0; i < fanin_refs.size(); ++i) {
      if (c.has_pos(static_cast<int>(i))) cube = mgr.and_(cube, fanin_refs[i]);
      if (c.has_neg(static_cast<int>(i)))
        cube = mgr.and_(cube, mgr.not_(fanin_refs[i]));
    }
    r = mgr.or_(r, cube);
  }
  return r;
}

NetworkBdds::NetworkBdds(BddManager& mgr, const Network& net)
    : NetworkBdds(mgr, net, dfs_pi_variable_order(net)) {}

NetworkBdds::NetworkBdds(BddManager& mgr, const Network& net,
                         std::vector<int> pi_vars)
    : mgr_(mgr), pi_var_order_(std::move(pi_vars)) {
  MP_CHECK(pi_var_order_.size() == net.pis().size());
  refs_.assign(net.capacity(), BddManager::kFalse);
  std::vector<int> var_of(net.capacity(), -1);
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    var_of[static_cast<std::size_t>(net.pis()[i])] = pi_var_order_[i];

  std::vector<BddRef> fanin_refs;  // reused across nodes
  for (NodeId id : net.topo_order()) {
    budget_checkpoint("activity");
    const Node& n = net.node(id);
    BddRef r = BddManager::kFalse;
    switch (n.kind) {
      case NodeKind::kPrimaryInput:
        r = mgr_.var(var_of[static_cast<std::size_t>(id)]);
        break;
      case NodeKind::kConstant0:
        r = BddManager::kFalse;
        break;
      case NodeKind::kConstant1:
        r = BddManager::kTrue;
        break;
      case NodeKind::kInternal:
        fanin_refs.clear();
        for (const NodeId f : n.fanins)
          fanin_refs.push_back(refs_[static_cast<std::size_t>(f)]);
        r = compose_cover(mgr_, n.cover, fanin_refs);
        break;
      case NodeKind::kDead:
        continue;
    }
    refs_[static_cast<std::size_t>(id)] = r;
  }
}

std::vector<double> signal_probabilities(const Network& net,
                                         std::vector<double> pi_prob1,
                                         ActivityPassStats* stats) {
  if (pi_prob1.empty()) pi_prob1.assign(net.pis().size(), 0.5);
  MP_CHECK(pi_prob1.size() == net.pis().size());
  trace::Span span("activity", "prob");
  span.arg("network", net.name());
  metrics::counter("activity.passes").add(1);
  BddManager mgr;
  const NetworkBdds bdds(mgr, net);
  if (stats) stats->bdd_nodes = mgr.num_nodes();
  span.arg("bdd_nodes", static_cast<unsigned long long>(mgr.num_nodes()));
  const std::vector<double> by_var = bdds.to_variable_order(pi_prob1);
  std::vector<double> p(net.capacity(), 0.0);
  // One batch traversal with a shared memo: subgraphs common to many node
  // functions are walked once per pass instead of once per node. Values are
  // bit-identical to per-node probability() calls.
  std::vector<NodeId> live_ids;
  std::vector<BddRef> live_refs;
  live_ids.reserve(net.capacity());
  live_refs.reserve(net.capacity());
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    live_ids.push_back(id);
    live_refs.push_back(bdds.of(id));
  }
  const std::vector<double> probs = mgr.probabilities(live_refs, by_var);
  for (std::size_t i = 0; i < live_ids.size(); ++i)
    p[static_cast<std::size_t>(live_ids[i])] = probs[i];
  metrics::counter("activity.nodes").add(live_ids.size());
  return p;
}

std::vector<double> switching_activities(const Network& net,
                                         CircuitStyle style,
                                         std::vector<double> pi_prob1,
                                         ActivityPassStats* stats) {
  std::vector<double> p =
      signal_probabilities(net, std::move(pi_prob1), stats);
  for (double& x : p) x = switching_activity(x, style);
  return p;
}

std::vector<double> monte_carlo_activities(const Network& net,
                                           CircuitStyle style,
                                           std::vector<double> pi_prob1,
                                           int samples, std::uint64_t seed) {
  MP_CHECK(samples > 0);
  trace::Span span("mc-activity", "prob");
  span.arg("network", net.name());
  span.arg("samples", samples);
  metrics::counter("activity.mc_passes").add(1);
  const std::size_t n = net.pis().size();
  if (pi_prob1.empty()) pi_prob1.assign(n, 0.5);
  MP_CHECK(pi_prob1.size() == n);

  const std::vector<NodeId> order = net.topo_order();
  std::vector<char> value(net.capacity(), 0);
  auto eval_net = [&]() {
    for (NodeId id : order) {
      const Node& node = net.node(id);
      if (node.kind == NodeKind::kConstant1)
        value[static_cast<std::size_t>(id)] = 1;
      if (!node.is_internal()) continue;
      std::uint64_t assignment = 0;
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (value[static_cast<std::size_t>(node.fanins[i])])
          assignment |= std::uint64_t{1} << i;
      value[static_cast<std::size_t>(id)] = node.cover.eval(assignment);
    }
  };

  Rng rng(seed);
  std::vector<double> tally(net.capacity(), 0.0);
  std::vector<char> first(net.capacity(), 0);
  for (int s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < n; ++i)
      value[static_cast<std::size_t>(net.pis()[i])] = rng.coin(pi_prob1[i]);
    eval_net();
    if (style == CircuitStyle::kStatic) {
      // Vector-pair sampling: a second independent vector per sample and
      // count value changes, matching E = P(0→1) + P(1→0) directly.
      first = value;
      for (std::size_t i = 0; i < n; ++i)
        value[static_cast<std::size_t>(net.pis()[i])] = rng.coin(pi_prob1[i]);
      eval_net();
    }
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (net.node(id).is_dead()) continue;
      const std::size_t k = static_cast<std::size_t>(id);
      switch (style) {
        case CircuitStyle::kStatic:
          tally[k] += value[k] != first[k] ? 1.0 : 0.0;
          break;
        case CircuitStyle::kDynamicP:
          tally[k] += value[k] ? 1.0 : 0.0;
          break;
        case CircuitStyle::kDynamicN:
          tally[k] += value[k] ? 0.0 : 1.0;
          break;
      }
    }
  }
  for (double& x : tally) x /= samples;
  return tally;
}

double total_internal_activity(const Network& net, CircuitStyle style,
                               std::vector<double> pi_prob1,
                               bool include_pis) {
  const std::vector<double> e =
      switching_activities(net, style, std::move(pi_prob1));
  double total = 0.0;
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    const Node& n = net.node(id);
    if (n.is_internal() || (include_pis && n.is_pi()))
      total += e[static_cast<std::size_t>(id)];
  }
  return total;
}

bool bind_pis_by_name(const Network& a, const std::vector<int>& a_vars,
                      const Network& b, std::vector<int>* b_vars) {
  std::unordered_map<std::string, int> var_of_name;
  for (std::size_t i = 0; i < a.pis().size(); ++i)
    var_of_name[a.node(a.pis()[i]).name] = a_vars[i];
  b_vars->clear();
  for (const NodeId pi : b.pis()) {
    const auto it = var_of_name.find(b.node(pi).name);
    if (it == var_of_name.end()) return false;
    b_vars->push_back(it->second);
  }
  return true;
}

bool networks_equivalent(const Network& a, const Network& b) {
  if (a.pis().size() != b.pis().size()) return false;
  if (a.pos().size() != b.pos().size()) return false;

  BddManager mgr;
  const NetworkBdds a_bdds(mgr, a);
  std::vector<int> b_vars;
  if (!bind_pis_by_name(a, a_bdds.pi_variables(), b, &b_vars)) return false;
  const NetworkBdds b_bdds(mgr, b, std::move(b_vars));

  // Match POs by name.
  std::unordered_map<std::string, NodeId> b_po;
  for (const PrimaryOutput& po : b.pos()) b_po[po.name] = po.driver;
  for (const PrimaryOutput& po : a.pos()) {
    const auto it = b_po.find(po.name);
    if (it == b_po.end()) return false;
    if (a_bdds.of(po.driver) != b_bdds.of(it->second)) return false;
  }
  return true;
}

}  // namespace minpower
