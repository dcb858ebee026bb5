#pragma once
// Decomposition trees: the binary-tree objects produced by the Huffman-style
// algorithms of Section 2, prior to NAND/INV realization.

#include <vector>

#include "decomp/model.hpp"

namespace minpower {

/// A binary tree over `num_leaves` leaves. Leaves are identified by their
/// index in the weight list handed to the construction algorithm.
struct DecompTree {
  struct TNode {
    int leaf = -1;   // >= 0 for leaves
    int left = -1;   // child node indices for internal nodes
    int right = -1;
    double prob = 0.0;  // exact 1-probability under the model used to build
    int height = 0;     // leaf = 0
    bool is_leaf() const { return leaf >= 0; }
  };

  std::vector<TNode> nodes;
  int root = -1;
  int num_leaves = 0;

  int height() const { return root < 0 ? 0 : nodes[static_cast<std::size_t>(root)].height; }
  double prob(int id) const { return nodes[static_cast<std::size_t>(id)].prob; }

  /// Append the parent of nodes a (left) and b (right); returns its id.
  int add_parent(int a, int b, double prob);

  /// Depth of each leaf (root at depth 0).
  std::vector<int> leaf_depths() const;

  /// Sum of internal-node switching activities: the G of Section 2.1,
  /// recomputed from scratch for the given model and leaf probabilities.
  double internal_cost(const DecompModel& model,
                       const std::vector<double>& leaf_probs) const;

  /// The leaves alone, leaf i with 1-probability probs[i]; the root is set
  /// only for a single leaf.
  static DecompTree leaves(const std::vector<double>& probs);
  static DecompTree single_leaf(double prob) { return leaves({prob}); }
};

/// Rebuild node probabilities/heights bottom-up (after structural surgery).
void annotate(DecompTree& tree, const DecompModel& model,
              const std::vector<double>& leaf_probs);

/// Canonical tree for a feasible level assignment (Kraft sum exactly 1):
/// leaf i is placed at depth levels[i]. Aborts if the levels are infeasible.
DecompTree tree_from_levels(const std::vector<int>& levels);

}  // namespace minpower
