#include "map/curve.hpp"

#include <algorithm>
#include <limits>

namespace minpower {

void Curve::insert(CurvePoint p) {
  // Position by arrival.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), p.arrival,
      [](const CurvePoint& q, double t) { return q.arrival < t; });
  // Inferior to an existing point (faster-or-equal and cheaper-or-equal)?
  // points_ is sorted by arrival ascending with cost strictly descending,
  // so the immediate predecessor is the cheapest earlier point: one probe
  // decides what a whole prefix scan used to.
  if (it != points_.begin() && std::prev(it)->cost <= p.cost) return;
  if (it != points_.end() && it->arrival == p.arrival && it->cost <= p.cost)
    return;
  // Remove points the new one dominates (slower and not cheaper).
  const auto first_dominated = it;
  auto last_dominated = it;
  while (last_dominated != points_.end() && last_dominated->cost >= p.cost)
    ++last_dominated;
  it = points_.erase(first_dominated, last_dominated);
  points_.insert(it, p);
}

void Curve::prune(double epsilon_t, double epsilon_c) {
  if (points_.size() <= 2) return;
  // Compact in place: points_[0, kept) are the survivors so far, the
  // fastest point first.
  std::size_t kept = 1;
  for (std::size_t i = 1; i + 1 < points_.size(); ++i) {
    const CurvePoint& prev = points_[kept - 1];
    const CurvePoint& cur = points_[i];
    // Drop only when the kept point approximates `cur` on BOTH axes: barely
    // slower AND barely cheaper. A point that is barely slower but much
    // cheaper carries real information and must survive.
    const bool barely_slower = cur.arrival - prev.arrival < epsilon_t;
    const bool barely_cheaper = prev.cost - cur.cost < epsilon_c;
    if (barely_slower && barely_cheaper) continue;
    points_[kept++] = cur;
  }
  points_[kept++] = points_.back();  // cheapest
  points_.resize(kept);
}

void Curve::downsample(std::size_t max_points) {
  if (max_points < 2 || points_.size() <= max_points) return;
  // i-th kept point = round(i · (n−1) / (m−1)): index 0 (fastest) and
  // index n−1 (cheapest) are always selected exactly. Sources only move
  // forward and never fall behind the write position, so compact in place.
  const std::size_t n = points_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < max_points; ++i) {
    const std::size_t src = (i * (n - 1) + (max_points - 1) / 2) /
                            (max_points - 1);
    if (kept > 0 && points_[kept - 1].arrival == points_[src].arrival &&
        points_[kept - 1].cost == points_[src].cost)
      continue;
    points_[kept++] = points_[src];
  }
  points_.resize(kept);
}

int Curve::best_within(double required, double load_shift) const {
  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double t = points_[i].arrival + load_shift * points_[i].drive;
    if (t <= required && points_[i].cost < best_cost) {
      best_cost = points_[i].cost;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int Curve::fastest() const {
  if (points_.empty()) return -1;
  // Shifts are uniform in sign; the unshifted fastest is index 0, but with
  // per-point drives the shifted minimum can move — scan to stay correct.
  int best = 0;
  for (std::size_t i = 1; i < points_.size(); ++i)
    if (points_[i].arrival < points_[static_cast<std::size_t>(best)].arrival)
      best = static_cast<int>(i);
  return best;
}

int Curve::cheapest() const {
  if (points_.empty()) return -1;
  int best = 0;
  for (std::size_t i = 1; i < points_.size(); ++i)
    if (points_[i].cost < points_[static_cast<std::size_t>(best)].cost)
      best = static_cast<int>(i);
  return best;
}

}  // namespace minpower
