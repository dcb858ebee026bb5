#include "decomp/package_merge.hpp"

#include <algorithm>
#include <numeric>

#include "decomp/huffman.hpp"
#include "decomp/search.hpp"

namespace minpower {

int balanced_height(int n) {
  MP_CHECK(n >= 1);
  int h = 0;
  while ((1 << h) < n) ++h;
  return h;
}

std::vector<int> length_limited_levels(const std::vector<double>& weights,
                                       int max_level) {
  const int n = static_cast<int>(weights.size());
  MP_CHECK(n >= 1);
  if (n == 1) return {0};
  MP_CHECK_MSG((max_level < 63) && (1LL << max_level) >= n,
               "height bound below ceil(log2 n)");

  // Package-merge over L denomination levels. An item is either an original
  // leaf at some level (width 2^-level) or a package of two items one level
  // deeper. We carry per-item leaf multisets as count vectors — n is the
  // fanin count of one node, so this stays tiny.
  struct Item {
    double weight = 0.0;
    std::vector<int> leaves;  // leaf indices, duplicates allowed
  };

  // Leaves sorted ascending by weight (stable for determinism).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] <
           weights[static_cast<std::size_t>(b)];
  });

  auto leaf_items = [&]() {
    std::vector<Item> v;
    v.reserve(static_cast<std::size_t>(n));
    for (int i : order)
      v.push_back(Item{weights[static_cast<std::size_t>(i)], {i}});
    return v;
  };

  // list = items at the current level, ascending by weight.
  std::vector<Item> list = leaf_items();
  for (int level = max_level - 1; level >= 1; --level) {
    // PACKAGE: pair consecutive items.
    std::vector<Item> packages;
    for (std::size_t i = 0; i + 1 < list.size(); i += 2) {
      Item p;
      p.weight = list[i].weight + list[i + 1].weight;
      p.leaves = list[i].leaves;
      p.leaves.insert(p.leaves.end(), list[i + 1].leaves.begin(),
                      list[i + 1].leaves.end());
      packages.push_back(std::move(p));
    }
    // MERGE with the fresh leaf items of this level.
    std::vector<Item> fresh = leaf_items();
    std::vector<Item> merged;
    merged.reserve(packages.size() + fresh.size());
    std::merge(fresh.begin(), fresh.end(), packages.begin(), packages.end(),
               std::back_inserter(merged),
               [](const Item& a, const Item& b) { return a.weight < b.weight; });
    list = std::move(merged);
  }

  // Solution: the 2(n-1) cheapest items at level 1; each occurrence of a
  // leaf adds one to its code length.
  MP_CHECK(static_cast<int>(list.size()) >= 2 * (n - 1));
  std::vector<int> levels(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < 2 * (n - 1); ++i)
    for (int leaf : list[static_cast<std::size_t>(i)].leaves)
      ++levels[static_cast<std::size_t>(leaf)];
  for (int l : levels) MP_CHECK(l >= 1 && l <= max_level);
  return levels;
}

namespace {

/// Exact minimum achievable root height when combining subtrees with the
/// given heights into one binary tree: repeatedly merge the two smallest
/// heights (optimal because F(x,y)=max(x,y)+1 is quasi-linear).
int completion_height(std::vector<int> heights) {
  MP_CHECK(!heights.empty());
  std::sort(heights.begin(), heights.end());
  while (heights.size() > 1) {
    const int h = std::max(heights[0], heights[1]) + 1;
    heights.erase(heights.begin(), heights.begin() + 2);
    heights.insert(std::lower_bound(heights.begin(), heights.end(), h), h);
  }
  return heights[0];
}

/// Admissibility at height bound L: after merging the pair at positions
/// i < j, the surviving subtrees must still complete within L.
auto completes_within(int max_height) {
  return [max_height](const DecompTree& t, const std::vector<int>& active,
                      std::size_t i, std::size_t j) {
    auto height = [&](std::size_t k) {
      return t.nodes[static_cast<std::size_t>(active[k])].height;
    };
    std::vector<int> hs{1 + std::max(height(i), height(j))};
    for (std::size_t k = 0; k < active.size(); ++k)
      if (k != i && k != j) hs.push_back(height(k));
    return completion_height(std::move(hs)) <= max_height;
  };
}

/// Per-thread count of exact bounded-height searches that overran their
/// step cap and fell back to the greedy ladder (see package_merge.hpp).
std::size_t& exact_fallback_slot() {
  thread_local std::size_t count = 0;
  return count;
}

}  // namespace

DecompTree bounded_height_minpower_tree(const std::vector<double>& leaf_probs,
                                        int max_height,
                                        const DecompModel& model) {
  const int n = static_cast<int>(leaf_probs.size());
  MP_CHECK(n >= 1);
  MP_CHECK_MSG(max_height >= balanced_height(n),
               "height bound below ceil(log2 n) is infeasible");
  const DecompTree leaves = DecompTree::leaves(leaf_probs);
  IndependentSignals signals{model};
  if (n <= 2) return greedy_tree(leaves, signals, completes_within(max_height));

  if (n <= 6) {
    // Small fanins (the common case after technology-independent
    // optimization): solve exactly. The search is step-capped; an overrun
    // (or an "exact-overrun" fault injection) falls back to the heuristic
    // ladder below instead of aborting.
    std::size_t step_cap = std::size_t{1} << 20;
    if (const Budget* b = Budget::current(); b && b->injected("exact-overrun"))
      step_cap = 0;
    try {
      return exhaustive_tree(leaves, signals, completes_within(max_height),
                             step_cap);
    } catch (const ResourceExhausted&) {
      ++exact_fallback_slot();
    }
  }

  // The feasibility-constrained greedy is myopic and not monotone in the
  // bound: a tighter bound occasionally blocks an early cheap merge that
  // would force expensive merges later. Since any tree of height ≤ L' is
  // also valid for L ≥ L', run the greedy at every bound up to max_height
  // and keep the best. The unbounded Modified Huffman tree is admitted too
  // whenever it fits, making the result coincide with Algorithm 2.2 for
  // loose bounds.
  DecompTree best;
  double best_cost = 0.0;
  bool have = false;
  auto consider = [&](DecompTree t) {
    if (t.height() > max_height) return;
    const double c = t.internal_cost(model, leaf_probs);
    if (!have || c < best_cost) {
      best = std::move(t);
      best_cost = c;
      have = true;
    }
  };
  for (int bound = balanced_height(n); bound <= max_height; ++bound)
    consider(greedy_tree(leaves, signals, completes_within(bound)));
  consider(model.huffman_optimal() ? huffman_tree(leaf_probs, model)
                                   : modified_huffman_tree(leaf_probs, model));
  MP_CHECK(have);
  return best;
}

std::size_t bounded_exact_fallbacks() { return exact_fallback_slot(); }

void reset_bounded_exact_fallbacks() { exact_fallback_slot() = 0; }

}  // namespace minpower
