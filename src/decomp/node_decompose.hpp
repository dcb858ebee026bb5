#pragma once
// Per-node technology decomposition: turn one SOP node into a NAND2/INV
// subnetwork (Section 2.1/2.2 applied to a single node).
//
// The SOP is decomposed in two stages — an AND tree per cube over its
// literals and an OR tree over the cubes — each built by the algorithm
// selected for the circuit style:
//   * balanced (the conventional SIS-style tech_decomp baseline),
//   * MINPOWER  (Huffman when quasi-linear, Modified Huffman otherwise),
//   * MINPOWER with a NAND-level height bound (Section 2.2).
// NAND/INV realization is polarity-aware: a sum of cubes becomes the classic
// NAND-of-NANDs form, so no inverter is spent between the OR level and its
// cubes; inverters appear only for negative literals and for AND-tree
// internal edges, where NAND2-only logic forces them.

#include <utility>
#include <vector>

#include "decomp/huffman.hpp"
#include "decomp/package_merge.hpp"
#include "decomp/transition_model.hpp"
#include "netlist/network.hpp"
#include "prob/pattern_model.hpp"

namespace minpower {

enum class DecompAlgorithm {
  kBalanced,  // conventional: balanced trees, ignores probabilities
  kMinPower,  // Section 2.1 (Huffman / Modified Huffman by style)
};

/// A decomposition plan for one node: the shape of every tree plus the
/// literal bindings, independent of any target network.
struct NodeDecomp {
  /// Literals of cube c: (local fanin index, positive phase).
  std::vector<std::vector<std::pair<int, bool>>> cube_literals;
  /// AND tree per cube (leaf i of the tree = cube_literals[c][i]).
  std::vector<DecompTree> cube_trees;
  /// OR tree over cubes (leaf i = cube i); unused when there is one cube.
  DecompTree or_tree;
  /// Realized NAND/INV height (levels from any fanin to the root).
  int realized_height = 0;
  /// Σ switching activity of the internal tree nodes as computed by the
  /// construction (exact probabilities in the correlated path; independence
  /// assumption otherwise).
  double tree_activity = 0.0;
};

/// Plan the decomposition of `cover` whose local variable i has exact
/// 1-probability `fanin_prob1[i]`. `nand_height_bound` < 0 means unbounded;
/// otherwise the plan's realized height is forced ≤ the bound (which must be
/// ≥ the balanced realization height). The cover must be non-constant.
NodeDecomp decompose_node(const Cover& cover,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style, DecompAlgorithm algorithm,
                          int nand_height_bound = -1);

/// Materialize a plan inside `net`, reading from the given fanin nodes.
/// Returns the root of the emitted NAND2/INV subnetwork (which may be an
/// existing node, e.g. for a single positive-literal cover).
NodeId emit_node_decomp(Network& net, const std::vector<NodeId>& fanins,
                        const NodeDecomp& plan);

/// Correlation-aware MINPOWER decomposition (Eqs. 7–9 with exact pairwise
/// joints from a PatternModel). `node_fanins` are the fanin node ids inside
/// the model's network; literal and cube joints are computed exactly from
/// the pattern set, and the correlated Modified Huffman shapes both tree
/// stages. Height bounds are not supported on this path (the bounded
/// machinery falls back to marginal probabilities).
NodeDecomp decompose_node_correlated(const Cover& cover,
                                     const std::vector<NodeId>& node_fanins,
                                     const PatternModel& model,
                                     CircuitStyle style);

/// Temporal-aware MINPOWER decomposition: leaves carry full lag-one
/// transition states and both tree stages use the Eq. 10/11 merge instead
/// of the 2p(1−p) collapse. `fanin_states` are the fanins' exact transition
/// behaviours (from transition_probabilities). Static CMOS semantics.
NodeDecomp decompose_node_transitions(
    const Cover& cover, const std::vector<SignalTransition>& fanin_states);

/// Height of the balanced (minimum-height) NAND realization of `cover` —
/// the H_n of Section 2.3's depth_surplus.
int balanced_nand_height(const Cover& cover);

/// Total switching activity of the plan's internal AND/OR tree nodes: the
/// objective G the decomposition minimizes (leaf activities excluded — they
/// are decomposition-invariant).
double plan_tree_activity(const NodeDecomp& plan,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style);

}  // namespace minpower
