#include "prob/transition.hpp"

#include <unordered_map>

#include "prob/probability.hpp"

namespace minpower {

PiTemporalModel PiTemporalModel::independent(double p1) {
  PiTemporalModel m;
  m.p1 = p1;
  m.p01 = (1.0 - p1) * p1;
  return m;
}

PiTemporalModel PiTemporalModel::with_activity(double p1, double activity) {
  PiTemporalModel m;
  m.p1 = p1;
  m.p01 = activity / 2.0;
  MP_CHECK_MSG(m.valid(), "activity infeasible for the given probability");
  return m;
}

bool PiTemporalModel::valid() const {
  const double eps = 1e-12;
  return p1 >= -eps && p1 <= 1.0 + eps && p01 >= -eps &&
         p01 <= std::min(p1, 1.0 - p1) + eps;
}

namespace {

struct PairKey {
  BddRef node;
  int cond;  // -1 unconditioned, 0/1 = value of the pending current-var
  bool operator==(const PairKey&) const = default;
};
struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(k.node) << 2) ^
        static_cast<std::uint64_t>(k.cond + 1));
  }
};

class PairProb {
 public:
  PairProb(const BddManager& mgr, const std::vector<PiTemporalModel>& model)
      : mgr_(mgr), model_(model) {}

  /// `cond` = value taken for x_k when evaluating a subtree whose top
  /// variable might be x'_k (2k+1); −1 when no pair is pending.
  double eval(BddRef f, int pending_pair, int cond) {
    if (f == BddManager::kFalse) return 0.0;
    if (f == BddManager::kTrue) return 1.0;
    const int var = mgr_.top_var(f);
    const int k = var / 2;
    const bool is_next = (var & 1) != 0;

    // A pending condition only matters if this subtree starts exactly at
    // the paired next-variable; anything deeper marginalizes it out.
    const bool conditioned =
        cond >= 0 && is_next && k == pending_pair;

    const PairKey key{f, conditioned ? cond : -1};
    if (!conditioned) {
      const auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    } else {
      const auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }

    const PiTemporalModel& m = model_[static_cast<std::size_t>(k)];
    double result;
    if (!is_next) {
      // Current variable x_k: branch on its stationary probability and pass
      // the taken value down as the pending condition for x'_k.
      const double p_hi = m.p1;
      result = p_hi * eval(mgr_.high(f), k, 1) +
               (1.0 - p_hi) * eval(mgr_.low(f), k, 0);
    } else {
      // Next variable x'_k: conditional when x_k is on the path, marginal
      // (stationary) otherwise.
      const double p_hi =
          conditioned ? m.cond_next1(cond != 0) : m.p1;
      result = p_hi * eval(mgr_.high(f), -1, -1) +
               (1.0 - p_hi) * eval(mgr_.low(f), -1, -1);
    }
    memo_.emplace(key, result);
    return result;
  }

 private:
  const BddManager& mgr_;
  const std::vector<PiTemporalModel>& model_;
  std::unordered_map<PairKey, double, PairKeyHash> memo_;
};

}  // namespace

double pair_probability(const BddManager& mgr, BddRef f,
                        const std::vector<PiTemporalModel>& model) {
  PairProb pp(mgr, model);
  return pp.eval(f, -1, -1);
}

std::vector<NodeTransition> transition_probabilities(
    const Network& net, const std::vector<PiTemporalModel>& model) {
  MP_CHECK(model.size() == net.pis().size());
  for (const PiTemporalModel& m : model) MP_CHECK(m.valid());

  BddManager mgr;
  // Variable pairing follows the DFS PI order used by NetworkBdds so that
  // reconvergent logic stays narrow: PI at DFS position j gets current
  // variable 2j and next variable 2j+1. The model is re-indexed by pair
  // position (DFS order), not PI position.
  const std::vector<int> order = dfs_pi_variable_order(net);
  std::vector<int> cur_vars(order.size());
  std::vector<int> next_vars(order.size());
  std::vector<PiTemporalModel> by_pair(model.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    cur_vars[i] = 2 * order[i];
    next_vars[i] = 2 * order[i] + 1;
    by_pair[static_cast<std::size_t>(order[i])] = model[i];
  }
  const NetworkBdds cur(mgr, net, std::move(cur_vars));
  const NetworkBdds nxt(mgr, net, std::move(next_vars));

  std::vector<NodeTransition> out(net.capacity());
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    const BddRef f = cur.of(id);
    const BddRef fp = nxt.of(id);
    NodeTransition t;
    t.p1 = pair_probability(mgr, f, by_pair);
    t.p01 = pair_probability(mgr, mgr.and_(mgr.not_(f), fp), by_pair);
    t.p10 = pair_probability(mgr, mgr.and_(f, mgr.not_(fp)), by_pair);
    out[static_cast<std::size_t>(id)] = t;
  }
  return out;
}

}  // namespace minpower
