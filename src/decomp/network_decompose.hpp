#pragma once
// Network-level power-efficient technology decomposition (Section 2.3):
// the `power_efficient_network_decomp(Γ, α, β)` procedure.
//
// Every internal node of the optimized network is NAND-decomposed in
// postorder with exact fanin probabilities. For the bounded-height variant,
// node slacks are computed on the original DAG under the unit-delay model
// (arrival of a node = max fanin arrival + realized NAND height of its own
// decomposition), the network slack is distributed over nodes in proportion
// to their depth_surplus (minpower height − balanced height), and nodes with
// the most negative slack are re-decomposed with tightened height bounds
// until the delay requirement is met or no node can be flattened further.

#include <optional>
#include <vector>

#include "decomp/node_decompose.hpp"
#include "netlist/network.hpp"
#include "prob/probability.hpp"

namespace minpower {

struct NetworkDecompOptions {
  CircuitStyle style = CircuitStyle::kStatic;
  DecompAlgorithm algorithm = DecompAlgorithm::kMinPower;

  /// Enable the Section 2.2/2.3 bounded-height refinement loop.
  bool bounded_height = false;

  /// Arrival time per PI (Network::pis() order); empty → all zero.
  std::vector<double> pi_arrival;

  /// Required time per PO (Network::pos() order). Empty with
  /// bounded_height=true → the conventional (balanced) decomposition depth
  /// is used as the target, i.e. "no performance degradation" mode.
  std::vector<double> po_required;

  /// PI 1-probabilities; empty → 0.5 everywhere. Ignored when
  /// `correlations` is set.
  std::vector<double> pi_prob1;

  /// Correlated-input model (Sec. 2.1.1, Eqs. 7–9): when set, node
  /// probabilities and all pairwise joints come from this pattern model
  /// (which must be built over the same network) and every node is
  /// decomposed with the correlated Modified Huffman. The bounded-height
  /// refinement, when also enabled, re-decomposes flagged nodes with the
  /// marginal-probability machinery.
  const PatternModel* correlations = nullptr;

  /// Lag-one temporal input model (one entry per PI): when non-empty and
  /// style is static, exact node transition probabilities replace the
  /// Eq. 3 temporal-independence collapse and nodes are decomposed with the
  /// full Eq. 10/11 merge. Mutually exclusive with `correlations`.
  std::vector<PiTemporalModel> temporal;

  /// Precomputed per-node 1-probabilities (indexed by NodeId up to
  /// Network::capacity()): when non-empty, the internal BDD probability
  /// pass is skipped entirely. The flow engine computes them once per
  /// circuit (its stage-0 source pass, exact or Monte-Carlo) and hands the
  /// same vector to all three decomposition groups. Ignored when
  /// `correlations` or `temporal` drive the probabilities.
  std::vector<double> node_prob;
};

struct NetworkDecompResult {
  Network network;           // the NAND2/INV-decomposed network
  double tree_activity = 0;  // Σ of per-node decomposition-tree activities
  int unit_depth = 0;        // unit-delay depth of the decomposed network
  int redecomposed_nodes = 0;  // bounded-height loop iterations
};

NetworkDecompResult decompose_network(const Network& net,
                                      const NetworkDecompOptions& options);

}  // namespace minpower
