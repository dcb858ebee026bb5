#include "decomp/tree.hpp"

#include <algorithm>
#include <numeric>

namespace minpower {

std::vector<int> DecompTree::leaf_depths() const {
  std::vector<int> depth(static_cast<std::size_t>(num_leaves), 0);
  if (root < 0) return depth;
  // DFS with explicit depth.
  std::vector<std::pair<int, int>> stack{{root, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    const TNode& n = nodes[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      depth[static_cast<std::size_t>(n.leaf)] = d;
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return depth;
}

double DecompTree::internal_cost(const DecompModel& model,
                                 const std::vector<double>& leaf_probs) const {
  DecompTree copy = *this;
  annotate(copy, model, leaf_probs);
  double cost = 0.0;
  for (const TNode& n : copy.nodes)
    if (!n.is_leaf()) cost += model.activity(n.prob);
  return cost;
}

int DecompTree::add_parent(int a, int b, double prob) {
  TNode parent;
  parent.left = a;
  parent.right = b;
  parent.prob = prob;
  parent.height = 1 + std::max(nodes[static_cast<std::size_t>(a)].height,
                               nodes[static_cast<std::size_t>(b)].height);
  nodes.push_back(parent);
  return static_cast<int>(nodes.size()) - 1;
}

DecompTree DecompTree::leaves(const std::vector<double>& probs) {
  MP_CHECK(!probs.empty());
  DecompTree t;
  t.num_leaves = static_cast<int>(probs.size());
  for (int i = 0; i < t.num_leaves; ++i) {
    TNode leaf;
    leaf.leaf = i;
    leaf.prob = probs[static_cast<std::size_t>(i)];
    t.nodes.push_back(leaf);
  }
  if (t.num_leaves == 1) t.root = 0;
  return t;
}

void annotate(DecompTree& tree, const DecompModel& model,
              const std::vector<double>& leaf_probs) {
  MP_CHECK(static_cast<int>(leaf_probs.size()) == tree.num_leaves);
  // Nodes are not guaranteed topologically ordered; do a postorder walk.
  std::vector<int> order;
  order.reserve(tree.nodes.size());
  std::vector<std::pair<int, bool>> stack{{tree.root, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    const DecompTree::TNode& n = tree.nodes[static_cast<std::size_t>(id)];
    if (expanded || n.is_leaf()) {
      order.push_back(id);
    } else {
      stack.emplace_back(id, true);
      stack.emplace_back(n.left, false);
      stack.emplace_back(n.right, false);
    }
  }
  for (int id : order) {
    DecompTree::TNode& n = tree.nodes[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      n.prob = leaf_probs[static_cast<std::size_t>(n.leaf)];
      n.height = 0;
    } else {
      const auto& l = tree.nodes[static_cast<std::size_t>(n.left)];
      const auto& r = tree.nodes[static_cast<std::size_t>(n.right)];
      n.prob = model.merge_prob(l.prob, r.prob);
      n.height = 1 + std::max(l.height, r.height);
    }
  }
}

DecompTree tree_from_levels(const std::vector<int>& levels) {
  const int n = static_cast<int>(levels.size());
  DecompTree t = DecompTree::leaves(std::vector<double>(levels.size(), 0.0));
  if (n == 1) {
    MP_CHECK(levels[0] == 0);
    return t;
  }
  // Kraft equality check.
  const int max_level = *std::max_element(levels.begin(), levels.end());
  long long kraft = 0;  // in units of 2^-max_level
  for (int l : levels) {
    MP_CHECK(l >= 1 && l <= max_level);
    kraft += 1LL << (max_level - l);
  }
  MP_CHECK_MSG(kraft == (1LL << max_level),
               "level assignment does not satisfy Kraft equality");

  // Bucket leaves by level, then combine pairwise from the deepest level up.
  std::vector<std::vector<int>> at_level(static_cast<std::size_t>(max_level) + 1);
  for (int i = 0; i < n; ++i)
    at_level[static_cast<std::size_t>(levels[static_cast<std::size_t>(i)])]
        .push_back(i);
  for (int l = max_level; l >= 1; --l) {
    auto& bucket = at_level[static_cast<std::size_t>(l)];
    MP_CHECK(bucket.size() % 2 == 0);
    for (std::size_t i = 0; i + 1 < bucket.size(); i += 2)
      at_level[static_cast<std::size_t>(l) - 1].push_back(
          t.add_parent(bucket[i], bucket[i + 1], 0.0));
    bucket.clear();
  }
  MP_CHECK(at_level[0].size() == 1);
  t.root = at_level[0][0];
  return t;
}

}  // namespace minpower
