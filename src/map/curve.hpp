#pragma once
// Power-delay (or area-delay) curves: sets of non-inferior
// (arrival, cost) points per subject node (Sec. 3.1, Lemma 3.1).
//
// A point additionally records how it is realized — the match index at the
// node and the drive resistance of the matched gate — so the preorder pass
// can rebuild the mapping and the unknown-load recalculation (Sec. 3.2.3)
// can shift the point's arrival by Δload × drive. The preorder pass
// re-derives each input's choice from the required times it propagates, so
// a point stores no input indices and stays plain data: merging, pruning
// and thinning a curve move 32-byte values and never allocate per point.

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace minpower {

struct CurvePoint {
  double arrival = 0.0;  // at the node output, under the default load
  double cost = 0.0;     // accumulated power (Method 1) or area
  int match = -1;        // index into the node's match list (-1 for leaves)
  double drive = 0.0;    // max drive resistance R of the matched gate
};
static_assert(std::is_trivially_copyable_v<CurvePoint>);

class Curve {
 public:
  /// One point of a non-inferior staircase to merge: arrival strictly
  /// ascending and cost strictly descending along the staircase. `match`
  /// ranks the step against a curve point it ties exactly on (arrival,
  /// cost): the lower of the step's and the point's match wins. The
  /// default ranks after every point, which is what merging matches in
  /// index order needs.
  struct Step {
    double arrival;
    double cost;
    int match = std::numeric_limits<int>::max();
  };

  const std::vector<CurvePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const CurvePoint& operator[](std::size_t i) const { return points_[i]; }

  /// Insert keeping only non-inferior points; points_ stays sorted by
  /// arrival ascending (hence cost strictly descending).
  void insert(CurvePoint p);

  /// Merge a staircase into the curve in one linear pass. The result equals
  /// inserting the steps one by one: at equal arrival the cheaper point
  /// wins, and on an exact (arrival, cost) tie the point already in the
  /// curve wins unless the step's `match` is lower than the point's.
  /// `realize(j, point)` fills in the realization (match, drive) of each
  /// kept step j. The curve's points faster than the first step all
  /// survive and stay in place; only the rest is merged, through the
  /// caller-owned `scratch` (reused across merges), and appended after
  /// them, so the curve keeps its own buffer.
  template <class Realize>
  void merge(const std::vector<Step>& steps, std::vector<CurvePoint>& scratch,
             Realize&& realize);

  /// Drop points approximated by the previously kept point on both axes:
  /// arrival within `epsilon_t` AND cost saving below `epsilon_c`
  /// (Sec. 3.2.1's ε-pruning). A point that is barely slower but much
  /// cheaper is kept. Endpoints (fastest and cheapest) are always kept;
  /// `epsilon_c == 0` disables pruning entirely.
  void prune(double epsilon_t, double epsilon_c);

  /// Thin the curve to at most `max_points` by keeping evenly spaced
  /// indices (always including the fastest and cheapest endpoints).
  /// Deterministic; a no-op when the curve already fits. The ε-pruning
  /// above bounds *local* redundancy, this bounds the absolute width —
  /// on deep chain-like subjects cumulative cost spread grows with depth,
  /// so unbounded curves make the mapper quadratic in depth.
  void downsample(std::size_t max_points);

  /// Index of the cheapest point with arrival ≤ `required` after shifting
  /// each point by `load_shift × point.drive`; −1 when none qualifies.
  int best_within(double required, double load_shift = 0.0) const;

  /// Index of the minimum-arrival point (−1 when empty).
  int fastest() const;
  /// Index of the minimum-cost point (−1 when empty).
  int cheapest() const;

 private:
  std::vector<CurvePoint> points_;
};

template <class Realize>
void Curve::merge(const std::vector<Step>& steps,
                  std::vector<CurvePoint>& scratch, Realize&& realize) {
  if (steps.empty()) return;
  // Points strictly faster than the first step precede every step in the
  // merge order below, and the curve is a strict staircase, so they all
  // survive: the merge starts after them.
  const std::size_t head = static_cast<std::size_t>(
      std::lower_bound(points_.begin(), points_.end(), steps.front().arrival,
                       [](const CurvePoint& p, double t) {
                         return p.arrival < t;
                       }) -
      points_.begin());
  // Walk both staircases in (arrival, cost, match) order, the curve's point
  // first on an exact tie of all three; a point survives iff it is strictly
  // cheaper than the last survivor, i.e. no point before it in that order
  // dominates it.
  scratch.clear();
  std::size_t i = head;
  std::size_t j = 0;
  while (i < points_.size() || j < steps.size()) {
    const bool from_curve =
        j == steps.size() ||
        (i < points_.size() &&
         (points_[i].arrival < steps[j].arrival ||
          (points_[i].arrival == steps[j].arrival &&
           (points_[i].cost < steps[j].cost ||
            (points_[i].cost == steps[j].cost &&
             points_[i].match <= steps[j].match)))));
    const double cost = from_curve ? points_[i].cost : steps[j].cost;
    const bool keep = scratch.empty()
                          ? head == 0 || cost < points_[head - 1].cost
                          : cost < scratch.back().cost;
    if (from_curve) {
      if (keep) scratch.push_back(points_[i]);
      ++i;
    } else {
      if (keep) {
        CurvePoint& p = scratch.emplace_back();
        p.arrival = steps[j].arrival;
        p.cost = cost;
        realize(j, p);
      }
      ++j;
    }
  }
  points_.resize(head);
  points_.insert(points_.end(), scratch.begin(), scratch.end());
}

}  // namespace minpower
