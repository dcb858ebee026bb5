#pragma once
// Exact signal probabilities and switching activities for Boolean networks.
//
// The paper's model (Sec. 1.2, 1.4): zero gate delay, no glitching,
// spatially independent primary inputs, and — for static CMOS — temporal
// independence of consecutive input vectors. Under that model:
//   * p-type domino:  E(node) = P(node = 1)                       (Eq. 5 ctx)
//   * n-type domino:  E(node) = P(node = 0)
//   * static CMOS:    E(node) = P(0→1) + P(1→0) = 2·p·(1−p)       (Eq. 3)
// Probabilities are computed exactly from the node's *global* function via
// the linear BDD traversal of Eq. 2, exactly as the Ghosh et al. estimator
// the paper uses for evaluation.

#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/network.hpp"

namespace minpower {

/// Circuit design style; selects the switching-activity formula.
enum class CircuitStyle {
  kDynamicP,  // domino, p logic block: switch when output evaluates to 1
  kDynamicN,  // domino, n logic block: switch when output evaluates to 0
  kStatic,    // static CMOS: both transitions count
};

/// Switching activity of a signal with 1-probability `p` under `style`.
inline double switching_activity(double p, CircuitStyle style) {
  switch (style) {
    case CircuitStyle::kDynamicP:
      return p;
    case CircuitStyle::kDynamicN:
      return 1.0 - p;
    case CircuitStyle::kStatic:
      return 2.0 * p * (1.0 - p);
  }
  return 0.0;
}

/// BDD variable index per PI (Network::pis() order), chosen by a depth-first
/// traversal from the primary outputs — the classic ordering heuristic that
/// keeps reconvergent-logic BDDs narrow.
std::vector<int> dfs_pi_variable_order(const Network& net);

/// Compose a local SOP over the BDDs of its inputs (`fanin_refs[i]` is cover
/// variable i): OR over the cubes, in cover order, of the AND of each cube's
/// literals, in variable order. The one SOP-to-BDD routine — every global
/// BDD of a network or a mapped netlist is built through it, so node
/// numbering is the same wherever the same cover is composed.
BddRef compose_cover(BddManager& mgr, const Cover& cover,
                     const std::vector<BddRef>& fanin_refs);

/// Global BDDs for every node of a network. Internal nodes are built in
/// topological order by composing their local SOP over fanin BDDs.
class NetworkBdds {
 public:
  /// PIs get BDD variables in DFS-from-outputs order.
  NetworkBdds(BddManager& mgr, const Network& net);

  /// PI i (Network::pis() order) gets BDD variable `pi_vars[i]` — e.g. a
  /// second network bound to the first one's variables (bind_pis_by_name).
  NetworkBdds(BddManager& mgr, const Network& net, std::vector<int> pi_vars);

  BddRef of(NodeId id) const {
    MP_CHECK(id >= 0 && id < static_cast<NodeId>(refs_.size()));
    return refs_[static_cast<std::size_t>(id)];
  }

  BddManager& manager() const { return mgr_; }

  /// BDD variable of each PI position (Network::pis() order).
  const std::vector<int>& pi_variables() const { return pi_var_order_; }

  /// Permute a PI-position-indexed vector into BDD-variable indexing, as
  /// BddManager::probability expects.
  std::vector<double> to_variable_order(const std::vector<double>& by_pi) const {
    std::vector<double> out(by_pi.size(), 0.0);
    for (std::size_t i = 0; i < by_pi.size(); ++i)
      out[static_cast<std::size_t>(pi_var_order_[i])] = by_pi[i];
    return out;
  }

 private:
  BddManager& mgr_;
  std::vector<BddRef> refs_;
  std::vector<int> pi_var_order_;
};

/// Diagnostics of one BDD probability/activity pass, for the flow-engine
/// phase instrumentation.
struct ActivityPassStats {
  std::size_t bdd_nodes = 0;  // unique-table size after building all BDDs
};

/// Per-node exact signal probabilities P(node = 1).
/// `pi_prob1[i]` is the probability of PI i (Network::pis() order); pass an
/// empty vector for the uniform 0.5 default used throughout the paper.
/// `stats`, when non-null, receives pass diagnostics.
std::vector<double> signal_probabilities(const Network& net,
                                         std::vector<double> pi_prob1 = {},
                                         ActivityPassStats* stats = nullptr);

/// Per-node switching activities under `style` (same indexing as nodes).
std::vector<double> switching_activities(const Network& net,
                                         CircuitStyle style,
                                         std::vector<double> pi_prob1 = {},
                                         ActivityPassStats* stats = nullptr);

/// Monte-Carlo estimate of per-node switching activities: the degradation
/// fallback when exact BDD-based activities blow past their node budget.
/// Deterministic for a fixed seed. Static CMOS samples independent vector
/// pairs and counts value changes (zero-delay model, the same sampling as
/// verify's monte_carlo_power); dynamic styles count evaluate-phase
/// switching directly. Dead-node slots are 0.
std::vector<double> monte_carlo_activities(const Network& net,
                                           CircuitStyle style,
                                           std::vector<double> pi_prob1 = {},
                                           int samples = 4096,
                                           std::uint64_t seed = 0x6d6f6e7465ULL);

/// Sum of switching activities over internal nodes (the decomposition
/// objective of Section 2); optionally also count PI activity, as the
/// Figure 1 example does.
double total_internal_activity(const Network& net, CircuitStyle style,
                               std::vector<double> pi_prob1 = {},
                               bool include_pis = false);

/// BDD variables for `b`'s PIs that bind each to the variable `a_vars` gives
/// `a`'s PI of the same name (`(*b_vars)[i]` for b.pis()[i]). False when a
/// PI of `b` has no namesake in `a`.
bool bind_pis_by_name(const Network& a, const std::vector<int>& a_vars,
                      const Network& b, std::vector<int>* b_vars);

/// Functional equivalence of two networks with identical PI/PO names
/// (order-insensitive), via global BDDs. Used by tests and as a safety net
/// after each synthesis transformation.
bool networks_equivalent(const Network& a, const Network& b);

}  // namespace minpower
