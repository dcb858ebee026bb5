#pragma once
// Tree-construction algorithms of Section 2.1:
//   * Algorithm 2.1 — Huffman: O(n log n); optimal for quasi-linear merge
//     functions (dynamic CMOS, uncorrelated inputs; Theorem 2.2).
//   * Algorithm 2.2 — Modified Huffman: the O(n³) greedy of search.hpp
//     that repeatedly merges the pair with minimum weight-combination value;
//     used for static CMOS and for correlated inputs where F is not
//     quasi-linear.
//   * Exhaustive enumeration over all binary trees: the oracle for Table 1
//     and for the optimality property tests (practical for n ≤ 8).
//   * The correlated-input variant of Modified Huffman using the pairwise
//     conditional-probability heuristic of Eq. 9.

#include <vector>

#include "decomp/tree.hpp"
#include "prob/joint.hpp"

namespace minpower {

/// Algorithm 2.1. `leaf_probs[i]` is the exact 1-probability of leaf i.
DecompTree huffman_tree(const std::vector<double>& leaf_probs,
                        const DecompModel& model);

/// Algorithm 2.2.
DecompTree modified_huffman_tree(const std::vector<double>& leaf_probs,
                                 const DecompModel& model);

/// Exhaustive optimum over all binary trees (merge orders). Aborts for
/// n > 9 leaves. Returns a tree minimizing internal_cost.
DecompTree best_tree_exhaustive(const std::vector<double>& leaf_probs,
                                const DecompModel& model);

/// Modified Huffman for correlated inputs (Eqs. 7–9). AND merges follow the
/// paper (Eq. 7: the pair's exact joint is the output probability); OR
/// merges extend the same idea by inclusion-exclusion. After a merge the
/// joint probability of the new node with the survivors is estimated with
/// the Eq. 9 heuristic (AND) or a pairwise triple-joint estimate (OR) and
/// clamped to its Fréchet bounds.
DecompTree modified_huffman_correlated(const JointProbabilities& joints,
                                       const DecompModel& model);

}  // namespace minpower
