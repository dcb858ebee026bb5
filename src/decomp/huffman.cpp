#include "decomp/huffman.hpp"

#include <algorithm>
#include <queue>

#include "decomp/search.hpp"

namespace minpower {

DecompTree huffman_tree(const std::vector<double>& leaf_probs,
                        const DecompModel& model) {
  DecompTree t = DecompTree::leaves(leaf_probs);
  // Min-heap on the model's ordering key; ties broken on node index so the
  // construction is deterministic.
  using Entry = std::pair<double, int>;  // (key, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < t.num_leaves; ++i)
    heap.emplace(model.huffman_key(t.prob(i)), i);
  while (heap.size() > 1) {
    const int a = heap.top().second;
    heap.pop();
    const int b = heap.top().second;
    heap.pop();
    const int p = t.add_parent(a, b, model.merge_prob(t.prob(a), t.prob(b)));
    heap.emplace(model.huffman_key(t.prob(p)), p);
  }
  t.root = heap.top().second;
  count_merges(static_cast<std::size_t>(t.num_leaves) - 1);
  return t;
}

DecompTree modified_huffman_tree(const std::vector<double>& leaf_probs,
                                 const DecompModel& model) {
  IndependentSignals signals{model};
  return greedy_tree(DecompTree::leaves(leaf_probs), signals);
}

DecompTree best_tree_exhaustive(const std::vector<double>& leaf_probs,
                                const DecompModel& model) {
  IndependentSignals signals{model};
  return exhaustive_tree(DecompTree::leaves(leaf_probs), signals);
}

namespace {

/// Correlated signals (Eqs. 7–9): a pairwise joint table over tree-node ids.
/// A merge's output probability is exact given the pair's joint (Eq. 7 for
/// AND, inclusion-exclusion for OR); its joints with the survivors are
/// estimated (Eq. 9 for AND, a pairwise triple-joint estimate for OR) and
/// clamped to their Fréchet bounds.
class CorrelatedSignals {
 public:
  CorrelatedSignals(const JointProbabilities& joints, const DecompModel& model)
      : model_(model),
        stride_(static_cast<std::size_t>(2 * joints.size() - 1)),
        joint_(stride_ * stride_, 0.0) {
    for (int i = 0; i < joints.size(); ++i)
      for (int j = 0; j < joints.size(); ++j) at(i, j) = joints.joint(i, j);
  }

  double cost(const DecompTree& t, int a, int b) const {
    return model_.activity(merged(t, a, b));
  }

  double merge(const DecompTree& t, int a, int b,
               const std::vector<int>& survivors) {
    const int p = static_cast<int>(t.nodes.size());
    const double pa = merged(t, a, b);
    auto cond = [&](int x, int y) {  // P(x=1 | y=1)
      return t.prob(y) <= 0.0 ? 0.0 : at(x, y) / t.prob(y);
    };
    for (int k : survivors) {
      const double w_ab = at(a, b);
      double est;
      if (model_.gate() == GateType::kAnd) {
        est = ((cond(k, a) + cond(k, b)) * w_ab / 2.0 +
               (cond(b, k) + cond(b, a)) * at(a, k) / 2.0 +
               (cond(a, b) + cond(a, k)) * at(b, k) / 2.0) /
              3.0;
      } else {
        // OR merge: P((a∨b)∧k) = P(a∧k) + P(b∧k) − P(a∧b∧k); estimate the
        // triple joint from the pairwise data.
        const double triple = w_ab * (cond(k, a) + cond(k, b)) / 2.0;
        est = at(a, k) + at(b, k) - triple;
      }
      const double pk = t.prob(k);
      est = std::clamp(est, std::max(0.0, pa + pk - 1.0), std::min(pa, pk));
      at(p, k) = est;
      at(k, p) = est;
    }
    return pa;
  }

 private:
  double merged(const DecompTree& t, int a, int b) const {
    return model_.gate() == GateType::kAnd
               ? at(a, b)
               : t.prob(a) + t.prob(b) - at(a, b);
  }
  double& at(int i, int j) {
    return joint_[static_cast<std::size_t>(i) * stride_ +
                  static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return joint_[static_cast<std::size_t>(i) * stride_ +
                  static_cast<std::size_t>(j)];
  }

  const DecompModel& model_;
  std::size_t stride_;
  std::vector<double> joint_;
};

}  // namespace

DecompTree modified_huffman_correlated(const JointProbabilities& joints,
                                       const DecompModel& model) {
  MP_CHECK(joints.size() >= 1);
  std::vector<double> p1(static_cast<std::size_t>(joints.size()));
  for (int i = 0; i < joints.size(); ++i)
    p1[static_cast<std::size_t>(i)] = joints.prob(i);
  CorrelatedSignals signals(joints, model);
  return greedy_tree(DecompTree::leaves(p1), signals);
}

}  // namespace minpower
