#include "decomp/node_decompose.hpp"

#include <algorithm>

namespace minpower {

namespace {

/// Balanced level assignment for n leaves: 2n−2^h leaves at depth h,
/// 2^h−n at depth h−1 (Kraft equality).
DecompTree balanced_tree(int n) {
  MP_CHECK(n >= 1);
  if (n == 1) return DecompTree::single_leaf(0.0);
  const int h = balanced_height(n);
  const int deep = 2 * n - (1 << h);
  std::vector<int> levels(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) levels[static_cast<std::size_t>(i)] = i < deep ? h : h - 1;
  return tree_from_levels(levels);
}

DecompTree build_tree(const std::vector<double>& probs,
                      const DecompModel& model, DecompAlgorithm algorithm,
                      int height_bound) {
  const int n = static_cast<int>(probs.size());
  if (algorithm == DecompAlgorithm::kBalanced) {
    DecompTree t = balanced_tree(n);
    annotate(t, model, probs);
    return t;
  }
  if (height_bound >= 0) {
    return bounded_height_minpower_tree(probs, height_bound, model);
  }
  return model.huffman_optimal() ? huffman_tree(probs, model)
                                 : modified_huffman_tree(probs, model);
}

/// Literal leaf emission depth: 0 when the fanin already has the wanted
/// polarity, 1 when an inverter is needed.
int literal_depth(bool positive_phase, bool want_value) {
  return positive_phase == want_value ? 0 : 1;
}

struct Emitter {
  Network* net = nullptr;               // null → height-only dry run
  const std::vector<NodeId>* fanins = nullptr;
  const NodeDecomp* plan = nullptr;
  // Inverter sharing: one INV per fanin polarity.
  std::vector<NodeId> inv_cache;

  NodeId literal(int local_var, bool positive_phase, bool want_value) {
    const NodeId base = (*fanins)[static_cast<std::size_t>(local_var)];
    if (positive_phase == want_value) return base;
    NodeId& inv = inv_cache[static_cast<std::size_t>(local_var)];
    if (inv == kNoNode) inv = net->add_inv(base);
    return inv;
  }

  /// Emit an AND-tree node of cube `c`; `complemented` selects NAND vs AND.
  NodeId emit_and(int cube, int tnode, bool complemented) {
    const DecompTree& t = plan->cube_trees[static_cast<std::size_t>(cube)];
    const DecompTree::TNode& n = t.nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf()) {
      const auto [var, phase] =
          plan->cube_literals[static_cast<std::size_t>(cube)]
                             [static_cast<std::size_t>(n.leaf)];
      return literal(var, phase, !complemented);
    }
    if (complemented) {
      const NodeId l = emit_and(cube, n.left, false);
      const NodeId r = emit_and(cube, n.right, false);
      return net->add_nand2(l, r);
    }
    return net->add_inv(emit_and(cube, tnode, true));
  }

  /// Emit an OR-tree node; children that are cubes arrive complemented for
  /// free as NANDs (the NAND-of-NANDs form).
  NodeId emit_or_child_complement(int child) {
    const DecompTree::TNode& n =
        plan->or_tree.nodes[static_cast<std::size_t>(child)];
    if (n.is_leaf()) return emit_and(n.leaf, cube_root(n.leaf), true);
    return net->add_inv(emit_or(child, false));
  }

  NodeId emit_or(int tnode, bool complemented) {
    const DecompTree::TNode& n =
        plan->or_tree.nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf()) {
      // Single cube reached through the OR tree degenerating.
      return complemented ? emit_and(n.leaf, cube_root(n.leaf), true)
                          : emit_and(n.leaf, cube_root(n.leaf), false);
    }
    if (complemented) return net->add_inv(emit_or(tnode, false));
    const NodeId l = emit_or_child_complement(n.left);
    const NodeId r = emit_or_child_complement(n.right);
    return net->add_nand2(l, r);
  }

  int cube_root(int cube) const {
    return plan->cube_trees[static_cast<std::size_t>(cube)].root;
  }
};

// ---- height-only recursion (no network) -----------------------------------

struct HeightCalc {
  const NodeDecomp* plan = nullptr;

  int and_height(int cube, int tnode, bool complemented) const {
    const DecompTree& t = plan->cube_trees[static_cast<std::size_t>(cube)];
    const DecompTree::TNode& n = t.nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf()) {
      const auto [var, phase] =
          plan->cube_literals[static_cast<std::size_t>(cube)]
                             [static_cast<std::size_t>(n.leaf)];
      (void)var;
      return literal_depth(phase, !complemented);
    }
    if (complemented)
      return 1 + std::max(and_height(cube, n.left, false),
                          and_height(cube, n.right, false));
    return 1 + and_height(cube, tnode, true);
  }

  int or_child_complement_height(int child) const {
    const DecompTree::TNode& n =
        plan->or_tree.nodes[static_cast<std::size_t>(child)];
    if (n.is_leaf()) return and_height(n.leaf, cube_root(n.leaf), true);
    return 1 + or_height(child, false);
  }

  int or_height(int tnode, bool complemented) const {
    const DecompTree::TNode& n =
        plan->or_tree.nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf())
      return and_height(n.leaf, cube_root(n.leaf), complemented);
    if (complemented) return 1 + or_height(tnode, false);
    return 1 + std::max(or_child_complement_height(n.left),
                        or_child_complement_height(n.right));
  }

  int cube_root(int cube) const {
    return plan->cube_trees[static_cast<std::size_t>(cube)].root;
  }

  int total() const {
    if (plan->cube_trees.size() == 1) return and_height(0, cube_root(0), false);
    return or_height(plan->or_tree.root, false);
  }
};

/// Literals of a cube in variable order: (local fanin index, positive phase).
std::vector<std::pair<int, bool>> cube_literals(const Cube& c) {
  std::vector<std::pair<int, bool>> lits;
  for (int v = 0; v < kMaxCubeVars; ++v) {
    if (c.has_pos(v)) lits.emplace_back(v, true);
    else if (c.has_neg(v)) lits.emplace_back(v, false);
  }
  MP_CHECK_MSG(!lits.empty(), "constant cube in non-constant cover");
  return lits;
}

/// Σ activity of the plan's internal tree nodes, from the probabilities
/// its builders recorded.
double recorded_activity(const NodeDecomp& plan, CircuitStyle style) {
  double total = 0.0;
  auto add = [&](const DecompTree& t, GateType gate) {
    const DecompModel model(gate, style);
    for (const DecompTree::TNode& node : t.nodes)
      if (!node.is_leaf()) total += model.activity(node.prob);
  };
  for (const DecompTree& t : plan.cube_trees) add(t, GateType::kAnd);
  if (plan.cube_trees.size() > 1) add(plan.or_tree, GateType::kOr);
  return total;
}

NodeDecomp plan_once(const Cover& cover, const std::vector<double>& fanin_prob1,
                     CircuitStyle style, DecompAlgorithm algorithm,
                     int and_bound, int or_bound) {
  NodeDecomp plan;
  const DecompModel and_model(GateType::kAnd, style);
  const DecompModel or_model(GateType::kOr, style);

  std::vector<double> cube_probs;
  for (const Cube& c : cover.cubes()) {
    std::vector<std::pair<int, bool>> lits = cube_literals(c);
    std::vector<double> lit_probs;
    for (const auto& [v, phase] : lits) {
      const double p = fanin_prob1[static_cast<std::size_t>(v)];
      lit_probs.push_back(phase ? p : 1.0 - p);
    }
    DecompTree t = build_tree(lit_probs, and_model, algorithm, and_bound);
    annotate(t, and_model, lit_probs);
    cube_probs.push_back(t.prob(t.root));
    plan.cube_literals.push_back(std::move(lits));
    plan.cube_trees.push_back(std::move(t));
  }
  if (cover.num_cubes() > 1) {
    // A bounded OR stage bounds the OR tree's own height; the cube trees'
    // heights are left to the caller's squeeze loop (decompose_node).
    plan.or_tree = or_bound >= 0
                       ? bounded_height_minpower_tree(cube_probs, or_bound,
                                                      or_model)
                       : build_tree(cube_probs, or_model, algorithm, -1);
    annotate(plan.or_tree, or_model, cube_probs);
  } else {
    plan.or_tree = DecompTree::single_leaf(cube_probs[0]);
  }
  plan.realized_height = HeightCalc{&plan}.total();
  plan.tree_activity = recorded_activity(plan, style);
  return plan;
}

}  // namespace

int balanced_nand_height(const Cover& cover) {
  // Balanced plan with dummy probabilities; probabilities do not affect the
  // balanced shape.
  std::vector<double> probs(64, 0.5);
  const NodeDecomp plan = plan_once(cover, probs, CircuitStyle::kStatic,
                                    DecompAlgorithm::kBalanced, -1, -1);
  return plan.realized_height;
}

NodeDecomp decompose_node(const Cover& cover,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style, DecompAlgorithm algorithm,
                          int nand_height_bound) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  NodeDecomp plan = plan_once(cover, fanin_prob1, style, algorithm, -1, -1);
  if (nand_height_bound < 0 || plan.realized_height <= nand_height_bound)
    return plan;

  // Tighten tree height bounds until the realized NAND height fits. The
  // AND stage and the OR stage are squeezed alternately, preferring to keep
  // the stage with more slack loose. Terminates at the balanced shape.
  int max_cube = 0;
  for (const auto& lits : plan.cube_literals)
    max_cube = std::max(max_cube, static_cast<int>(lits.size()));
  int and_bound = max_cube >= 1 ? std::max(1, max_cube - 1) : 1;
  int or_bound = static_cast<int>(plan.cube_trees.size()) >= 2
                     ? static_cast<int>(plan.cube_trees.size()) - 1
                     : -1;
  const int and_floor = balanced_height(std::max(1, max_cube));
  const int or_floor =
      balanced_height(std::max<int>(1, static_cast<int>(plan.cube_trees.size())));

  NodeDecomp best = plan;
  for (;;) {
    NodeDecomp candidate = plan_once(cover, fanin_prob1, style, algorithm,
                                     and_bound, or_bound);
    if (candidate.realized_height < best.realized_height) best = candidate;
    if (best.realized_height <= nand_height_bound) return best;
    // Squeeze the looser stage.
    const bool can_and = and_bound > and_floor;
    const bool can_or = or_bound > or_floor && or_bound >= 0;
    if (!can_and && !can_or) break;
    if (can_and && (!can_or || and_bound - and_floor >= or_bound - or_floor))
      --and_bound;
    else
      --or_bound;
  }
  // The squeezed MINPOWER shapes missed the bound (negative literals can
  // push a min-height greedy shape one level past the canonical balanced
  // realization). Fall back to the conventional balanced plan when it fits.
  NodeDecomp balanced = plan_once(cover, fanin_prob1, style,
                                  DecompAlgorithm::kBalanced, -1, -1);
  if (balanced.realized_height < best.realized_height) best = std::move(balanced);
  // If even the balanced plan misses the bound, the caller asked for less
  // than the achievable floor; the realized height reported is the truth.
  return best;
}

NodeDecomp decompose_node_correlated(const Cover& cover,
                                     const std::vector<NodeId>& node_fanins,
                                     const PatternModel& model,
                                     CircuitStyle style) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  // Exact probabilities and pairwise joints of a list of cubes over the
  // node's fanins (a literal is a one-literal cube), shaped by the
  // correlated Modified Huffman.
  auto tree = [&](const std::vector<Cube>& cubes, GateType gate) {
    std::vector<double> p1;
    for (const Cube& c : cubes)
      p1.push_back(model.cube_probability(node_fanins, c));
    JointProbabilities joints(p1);
    for (std::size_t a = 0; a < cubes.size(); ++a)
      for (std::size_t b = a + 1; b < cubes.size(); ++b)
        joints.set(static_cast<int>(a), static_cast<int>(b),
                   model.cube_joint(node_fanins, cubes[a], cubes[b]));
    return modified_huffman_correlated(joints, DecompModel(gate, style));
  };
  NodeDecomp plan;
  for (const Cube& c : cover.cubes()) {
    plan.cube_literals.push_back(cube_literals(c));
    std::vector<Cube> lit_cubes;
    for (const auto& [v, phase] : plan.cube_literals.back())
      lit_cubes.push_back(Cube::literal(v, phase));
    plan.cube_trees.push_back(tree(lit_cubes, GateType::kAnd));
  }
  plan.or_tree = cover.num_cubes() > 1
                     ? tree(cover.cubes(), GateType::kOr)
                     : DecompTree::single_leaf(plan.cube_trees[0].prob(
                           plan.cube_trees[0].root));
  plan.realized_height = HeightCalc{&plan}.total();
  plan.tree_activity = recorded_activity(plan, style);
  return plan;
}

NodeDecomp decompose_node_transitions(
    const Cover& cover, const std::vector<SignalTransition>& fanin_states) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  NodeDecomp plan;
  std::vector<SignalTransition> cube_states;
  for (const Cube& c : cover.cubes()) {
    std::vector<std::pair<int, bool>> lits = cube_literals(c);
    std::vector<SignalTransition> states;
    for (const auto& [v, phase] : lits) {
      const SignalTransition& s = fanin_states[static_cast<std::size_t>(v)];
      states.push_back(phase ? s : s.complement());
    }
    DecompTree t = modified_huffman_transitions(states, GateType::kAnd);
    plan.tree_activity += tree_transition_activity(t, states, GateType::kAnd);
    // The builder appends parents after their children: extend the leaf
    // states in node order to reach the cube's root state.
    for (std::size_t i = states.size(); i < t.nodes.size(); ++i)
      states.push_back(merge_transitions(
          states[static_cast<std::size_t>(t.nodes[i].left)],
          states[static_cast<std::size_t>(t.nodes[i].right)], GateType::kAnd));
    cube_states.push_back(states[static_cast<std::size_t>(t.root)]);
    plan.cube_literals.push_back(std::move(lits));
    plan.cube_trees.push_back(std::move(t));
  }
  if (cover.num_cubes() > 1) {
    plan.or_tree = modified_huffman_transitions(cube_states, GateType::kOr);
    plan.tree_activity +=
        tree_transition_activity(plan.or_tree, cube_states, GateType::kOr);
  } else {
    plan.or_tree = DecompTree::single_leaf(cube_states[0].p1());
  }
  plan.realized_height = HeightCalc{&plan}.total();
  return plan;
}

NodeId emit_node_decomp(Network& net, const std::vector<NodeId>& fanins,
                        const NodeDecomp& plan) {
  Emitter em;
  em.net = &net;
  em.fanins = &fanins;
  em.plan = &plan;
  em.inv_cache.assign(fanins.size(), kNoNode);
  if (plan.cube_trees.size() == 1)
    return em.emit_and(0, em.cube_root(0), false);
  return em.emit_or(plan.or_tree.root, false);
}

double plan_tree_activity(const NodeDecomp& plan,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style) {
  const DecompModel and_model(GateType::kAnd, style);
  const DecompModel or_model(GateType::kOr, style);
  double total = 0.0;
  std::vector<double> cube_probs;
  for (std::size_t c = 0; c < plan.cube_trees.size(); ++c) {
    std::vector<double> lit_probs;
    for (const auto& [var, phase] : plan.cube_literals[c])
      lit_probs.push_back(phase ? fanin_prob1[static_cast<std::size_t>(var)]
                                : 1.0 - fanin_prob1[static_cast<std::size_t>(var)]);
    total += plan.cube_trees[c].internal_cost(and_model, lit_probs);
    DecompTree t = plan.cube_trees[c];
    annotate(t, and_model, lit_probs);
    cube_probs.push_back(t.nodes[static_cast<std::size_t>(t.root)].prob);
  }
  if (plan.cube_trees.size() > 1)
    total += plan.or_tree.internal_cost(or_model, cube_probs);
  return total;
}

}  // namespace minpower
