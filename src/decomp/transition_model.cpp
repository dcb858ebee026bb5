#include "decomp/transition_model.hpp"

#include <functional>

#include "decomp/search.hpp"

namespace minpower {

SignalTransition merge_transitions(const SignalTransition& a,
                                   const SignalTransition& b, GateType gate) {
  if (gate == GateType::kOr) {
    // a + b = !( !a · !b )
    return merge_transitions(a.complement(), b.complement(), GateType::kAnd)
        .complement();
  }
  SignalTransition o;
  // Output is 1 at a time step iff both inputs are 1 there; the pair
  // distribution of the output follows from the independent input pairs.
  o.w11 = a.w11 * b.w11;
  o.w01 = a.w01 * b.w01 + a.w11 * b.w01 + a.w01 * b.w11;  // Eq. 10
  o.w10 = a.w11 * b.w10 + a.w10 * b.w11 + a.w10 * b.w10;  // Eq. 11
  o.w00 = 1.0 - o.w11 - o.w01 - o.w10;
  return o;
}

namespace {

/// Lag-one signals (Eqs. 10/11): a node's state is its transition
/// distribution, F its exact activity w01 + w10.
struct TransitionSignals {
  GateType gate;
  std::vector<SignalTransition> state;  // by tree-node id

  SignalTransition merged(int a, int b) const {
    return merge_transitions(state[static_cast<std::size_t>(a)],
                             state[static_cast<std::size_t>(b)], gate);
  }
  double cost(const DecompTree&, int a, int b) const {
    return merged(a, b).activity();
  }
  double merge(const DecompTree&, int a, int b, const std::vector<int>&) {
    state.push_back(merged(a, b));
    return state.back().p1();
  }
  void unmerge() { state.pop_back(); }
};

DecompTree leaf_tree(const std::vector<SignalTransition>& leaves) {
  std::vector<double> p1;
  for (const SignalTransition& s : leaves) p1.push_back(s.p1());
  return DecompTree::leaves(p1);
}

}  // namespace

DecompTree modified_huffman_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate) {
  TransitionSignals signals{gate, leaves};
  return greedy_tree(leaf_tree(leaves), signals);
}

DecompTree best_tree_exhaustive_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate) {
  TransitionSignals signals{gate, leaves};
  return exhaustive_tree(leaf_tree(leaves), signals);
}

double tree_transition_activity(const DecompTree& tree,
                                const std::vector<SignalTransition>& leaves,
                                GateType gate) {
  std::vector<SignalTransition> state(tree.nodes.size());
  double total = 0.0;
  // Postorder accumulate.
  const std::function<void(int)> walk = [&](int id) {
    const DecompTree::TNode& n = tree.nodes[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      state[static_cast<std::size_t>(id)] =
          leaves[static_cast<std::size_t>(n.leaf)];
      return;
    }
    walk(n.left);
    walk(n.right);
    state[static_cast<std::size_t>(id)] =
        merge_transitions(state[static_cast<std::size_t>(n.left)],
                          state[static_cast<std::size_t>(n.right)], gate);
    total += state[static_cast<std::size_t>(id)].activity();
  };
  walk(tree.root);
  return total;
}

}  // namespace minpower
