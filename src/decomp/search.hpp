#pragma once
// The two merge-order searches behind every tree builder of Section 2:
//   * greedy_tree — Algorithm 2.2 (Modified Huffman): repeatedly merge the
//     pair with the smallest weight-combination value F. Each of the n−1
//     merges rescans the O(n²) surviving pairs, so a tree costs O(n³) F
//     evaluations; n is a cube's literal count or a node's cube count
//     (a handful after technology-independent optimization), where that is
//     microseconds and a priority structure would cost more than it saves.
//   * exhaustive_tree — branch and bound over all merge orders: the oracle
//     for Table 1 and the exact bounded-height search. Aborts for n > 9.
// Sections 2.1.1/2.1.2 change only F and the merged state, so both searches
// run over a signal model with three members:
//   double cost(const DecompTree& t, int a, int b) const
//       F of merging tree nodes a and b;
//   double merge(const DecompTree& t, int a, int b, const std::vector<int>& s)
//       record the state of their parent (node t.nodes.size(); `s` lists the
//       surviving nodes) and return its 1-probability;
//   void unmerge()
//       forget the last merge (exhaustive_tree only).
// A bounded-height builder also passes an admissibility test: the pair at
// positions i < j of the active list is merged only if admissible(t,
// active, i, j) holds. Pairs are scanned in (lower node id, higher node id)
// order and the first strictly cheapest admissible one wins, so every tree
// is deterministic.

#include <cstddef>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "decomp/tree.hpp"
#include "trace/metrics.hpp"
#include "util/budget.hpp"

namespace minpower {

/// Spatially independent signals: a node's state is its 1-probability.
struct IndependentSignals {
  const DecompModel& model;
  double cost(const DecompTree& t, int a, int b) const {
    return model.merge_cost(t.prob(a), t.prob(b));
  }
  double merge(const DecompTree& t, int a, int b, const std::vector<int>&) {
    return model.merge_prob(t.prob(a), t.prob(b));
  }
  void unmerge() {}
};

inline bool any_pair(const DecompTree&, const std::vector<int>&, std::size_t,
                     std::size_t) {
  return true;
}

/// Every tree builder adds the merges it makes to huffman.merges once per
/// tree; for exhaustive_tree that is every merge the search explored.
inline void count_merges(std::size_t merges) {
  static metrics::Counter& counter = metrics::counter("huffman.merges");
  counter.add(merges);
}

template <class Signals, class Admissible = decltype(&any_pair)>
DecompTree greedy_tree(DecompTree t, Signals& signals,
                       Admissible admissible = any_pair) {
  std::vector<int> active(static_cast<std::size_t>(t.num_leaves));
  std::iota(active.begin(), active.end(), 0);
  while (active.size() > 1) {
    std::size_t bi = 0;
    std::size_t bj = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i)
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        const double f = signals.cost(t, active[i], active[j]);
        if (f < best && admissible(t, active, i, j)) {
          best = f;
          bi = i;
          bj = j;
        }
      }
    MP_CHECK_MSG(bj > 0, "no admissible merge");
    const int a = active[bi];
    const int b = active[bj];
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(bj));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(bi));
    const double p = signals.merge(t, a, b, active);
    active.push_back(t.add_parent(a, b, p));
  }
  t.root = active.front();
  count_merges(static_cast<std::size_t>(t.num_leaves) - 1);
  return t;
}

/// Exceeding `step_cap` examined pairs throws ResourceExhausted
/// ("exact-overrun") so a caller can fall back to a heuristic.
template <class Signals, class Admissible = decltype(&any_pair)>
DecompTree exhaustive_tree(
    DecompTree t, Signals& signals, Admissible admissible = any_pair,
    std::size_t step_cap = std::numeric_limits<std::size_t>::max()) {
  if (t.num_leaves > 9)
    throw ResourceExhausted(
        "exhaustive-tree", "exhaustive tree search limited to 9 leaves (got " +
                               std::to_string(t.num_leaves) + ")");
  DecompTree best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t steps = 0;
  std::size_t merges = 0;
  auto search = [&](auto& self, const std::vector<int>& active,
                    double acc) -> void {
    if (active.size() == 1) {
      if (acc < best_cost) {
        best_cost = acc;
        best = t;
        best.root = active.front();
      }
      return;
    }
    for (std::size_t i = 0; i < active.size(); ++i)
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        if (++steps > step_cap)
          throw ResourceExhausted(
              "exact-overrun", "exact tree search exceeded " +
                                   std::to_string(step_cap) + " steps");
        const int a = active[i];
        const int b = active[j];
        const double cost = acc + signals.cost(t, a, b);
        if (cost >= best_cost || !admissible(t, active, i, j)) continue;
        std::vector<int> next;
        next.reserve(active.size() - 1);
        for (std::size_t k = 0; k < active.size(); ++k)
          if (k != i && k != j) next.push_back(active[k]);
        const double p = signals.merge(t, a, b, next);
        next.push_back(t.add_parent(a, b, p));
        ++merges;
        self(self, next, cost);
        t.nodes.pop_back();
        signals.unmerge();
      }
  };
  std::vector<int> leaves(static_cast<std::size_t>(t.num_leaves));
  std::iota(leaves.begin(), leaves.end(), 0);
  search(search, leaves, 0.0);
  count_merges(merges);
  return best;
}

}  // namespace minpower
