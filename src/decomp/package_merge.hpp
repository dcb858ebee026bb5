#pragma once
// BOUNDED-HEIGHT decomposition (Section 2.2).
//
//   * `length_limited_levels` — the Larmore–Hirschberg package-merge
//     algorithm (Algorithm 2.3): exact O(nL) minimizer of Σ w_i·l_i subject
//     to l_i ≤ L (the BOUNDED-HEIGHT MINSUM problem). The returned level
//     assignment satisfies Kraft equality and converts to a tree with
//     `tree_from_levels`.
//   * `bounded_height_minpower_tree` — the paper's *modified* algorithm for
//     general (non-quasi-linear) merge functions. The paper sketches
//     replacing the PACKAGE step with an Algorithm 2.2-style minimum-F
//     pairing; we realize the same idea as a height-feasible greedy: merge
//     the minimum-F pair whose merge still admits a completion of height ≤ L
//     (feasibility is decided exactly by the max(x,y)+1 Huffman argument the
//     paper itself notes is quasi-linear). For L ≥ height of the unbounded
//     Modified-Huffman tree the result coincides with Algorithm 2.2.

#include <cstddef>
#include <vector>

#include "decomp/tree.hpp"

namespace minpower {

/// Exact BOUNDED-HEIGHT MINSUM level assignment (Larmore–Hirschberg).
/// Requires 2^L >= n. Weights must be non-negative.
std::vector<int> length_limited_levels(const std::vector<double>& weights,
                                       int max_level);

/// Heuristic BOUNDED-HEIGHT MINPOWER for a general merge model
/// (modified Larmore–Hirschberg in the sense of Section 2.2).
DecompTree bounded_height_minpower_tree(const std::vector<double>& leaf_probs,
                                        int max_height,
                                        const DecompModel& model);

/// Smallest achievable height for `n` leaves: ceil(log2 n).
int balanced_height(int n);

/// Number of exact bounded-height searches on the calling thread that
/// overran their step cap (or hit an "exact-overrun" fault injection) and
/// fell back to the heuristic ladder. Thread-local so a flow-engine task can
/// reset before decomposing and read after to attribute fallbacks to itself.
std::size_t bounded_exact_fallbacks();
void reset_bounded_exact_fallbacks();

}  // namespace minpower
