#include <gtest/gtest.h>

#include "decomp/huffman.hpp"
#include "decomp/network_decompose.hpp"
#include "decomp/transition_model.hpp"
#include "helpers.hpp"
#include "prob/probability.hpp"
#include "prob/transition.hpp"

namespace minpower {
namespace {

TEST(PiTemporalModel, IndependentMatchesEq3) {
  const auto m = PiTemporalModel::independent(0.3);
  EXPECT_DOUBLE_EQ(m.p01, 0.7 * 0.3);  // Eq. 3: w_{0->1} = w_0 · w_1
  EXPECT_DOUBLE_EQ(m.activity(), 2 * 0.3 * 0.7);
  EXPECT_TRUE(m.valid());
  EXPECT_NEAR(m.p00() + m.p01 + m.p10() + m.p11(), 1.0, 1e-12);
}

TEST(PiTemporalModel, WithActivity) {
  const auto m = PiTemporalModel::with_activity(0.5, 0.1);
  EXPECT_DOUBLE_EQ(m.p01, 0.05);
  EXPECT_DOUBLE_EQ(m.p11(), 0.45);
  EXPECT_DOUBLE_EQ(m.cond_next1(true), 0.9);
  EXPECT_DOUBLE_EQ(m.cond_next1(false), 0.1);
}

TEST(PiTemporalModel, ValidityBounds) {
  EXPECT_TRUE(PiTemporalModel::with_activity(0.3, 0.6).valid());  // p01=0.3
  PiTemporalModel bad;
  bad.p1 = 0.3;
  bad.p01 = 0.35;  // exceeds min(p1, 1-p1)
  EXPECT_FALSE(bad.valid());
}

/// Brute-force pair probability: enumerate all (x, x') vectors weighted by
/// the Markov pair distribution.
double brute_pair_probability(const BddManager& mgr, BddRef f,
                              const std::vector<PiTemporalModel>& model) {
  const int n = static_cast<int>(model.size());
  double total = 0.0;
  for (int mx = 0; mx < (1 << n); ++mx) {
    for (int my = 0; my < (1 << n); ++my) {
      double w = 1.0;
      std::vector<bool> assignment(2 * static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        const bool x = (mx >> k) & 1;
        const bool xp = (my >> k) & 1;
        const PiTemporalModel& m = model[static_cast<std::size_t>(k)];
        const double joint = x ? (xp ? m.p11() : m.p10())
                               : (xp ? m.p01 : m.p00());
        w *= joint;
        assignment[static_cast<std::size_t>(2 * k)] = x;
        assignment[static_cast<std::size_t>(2 * k + 1)] = xp;
      }
      if (w > 0.0 && mgr.eval(f, assignment)) total += w;
    }
  }
  return total;
}

TEST(PairProbability, SingleVariable) {
  BddManager mgr;
  const BddRef x = mgr.var(0);
  const BddRef xp = mgr.var(1);
  const auto m = PiTemporalModel::with_activity(0.4, 0.2);
  const std::vector<PiTemporalModel> model{m};
  EXPECT_NEAR(pair_probability(mgr, x, model), 0.4, 1e-12);
  EXPECT_NEAR(pair_probability(mgr, xp, model), 0.4, 1e-12);  // stationary
  // P(x=0 ∧ x'=1) = p01 = 0.1.
  EXPECT_NEAR(pair_probability(mgr, mgr.and_(mgr.not_(x), xp), model), 0.1,
              1e-12);
  // P(x=1 ∧ x'=1) = p11 = 0.3.
  EXPECT_NEAR(pair_probability(mgr, mgr.and_(x, xp), model), 0.3, 1e-12);
}

class PairProbabilityRandom : public ::testing::TestWithParam<int> {};

TEST_P(PairProbabilityRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 17);
  BddManager mgr;
  const int n = 4;
  std::vector<PiTemporalModel> model;
  for (int k = 0; k < n; ++k) {
    const double p = rng.uniform(0.1, 0.9);
    const double max_act = 2.0 * std::min(p, 1.0 - p);
    model.push_back(
        PiTemporalModel::with_activity(p, rng.uniform(0.0, max_act)));
  }
  // Random function over the 2n paired variables.
  std::vector<BddRef> pool;
  for (int v = 0; v < 2 * n; ++v) pool.push_back(mgr.var(v));
  for (int step = 0; step < 10; ++step) {
    const BddRef a = pool[rng.below(pool.size())];
    const BddRef b = pool[rng.below(pool.size())];
    switch (rng.below(3)) {
      case 0: pool.push_back(mgr.and_(a, b)); break;
      case 1: pool.push_back(mgr.or_(a, b)); break;
      default: pool.push_back(mgr.xor_(a, b)); break;
    }
  }
  const BddRef f = pool.back();
  EXPECT_NEAR(pair_probability(mgr, f, model),
              brute_pair_probability(mgr, f, model), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Random, PairProbabilityRandom,
                         ::testing::Range(0, 30));

TEST(TransitionProbabilities, TemporalIndependenceMatchesStaticModel) {
  // With p01 = p0·p1 at every PI, node activity must equal 2p(1−p) of the
  // exact signal probability — the Sec. 1.4 collapse.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Network net = testing::random_network(seed, 5, 10, 2);
    std::vector<PiTemporalModel> model;
    Rng rng(seed * 7);
    std::vector<double> pi_p;
    for (std::size_t i = 0; i < net.pis().size(); ++i) {
      pi_p.push_back(rng.uniform(0.1, 0.9));
      model.push_back(PiTemporalModel::independent(pi_p.back()));
    }
    const auto trans = transition_probabilities(net, model);
    const auto p = signal_probabilities(net, pi_p);
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (net.node(id).is_dead()) continue;
      const double pe = p[static_cast<std::size_t>(id)];
      EXPECT_NEAR(trans[static_cast<std::size_t>(id)].p1, pe, 1e-9);
      EXPECT_NEAR(trans[static_cast<std::size_t>(id)].activity(),
                  2.0 * pe * (1.0 - pe), 1e-9)
          << net.node(id).name;
    }
  }
}

TEST(TransitionProbabilities, FrozenInputsNeverSwitch) {
  // Activity 0 at every PI → activity 0 everywhere.
  Network net = testing::random_network(9, 5, 10, 2);
  std::vector<PiTemporalModel> model;
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    model.push_back(PiTemporalModel::with_activity(0.5, 0.0));
  const auto trans = transition_probabilities(net, model);
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    EXPECT_NEAR(trans[static_cast<std::size_t>(id)].activity(), 0.0, 1e-12);
  }
}

TEST(TransitionProbabilities, InverterPreservesActivity) {
  Network net("inv");
  const NodeId a = net.add_pi("a");
  const NodeId i = net.add_inv(a);
  net.add_po("f", i);
  const auto m = PiTemporalModel::with_activity(0.7, 0.25);
  const auto trans = transition_probabilities(net, {m});
  EXPECT_NEAR(trans[static_cast<std::size_t>(i)].activity(), 0.25, 1e-12);
  EXPECT_NEAR(trans[static_cast<std::size_t>(i)].p1, 0.3, 1e-12);
  // Transitions swap: output 0→1 when input 1→0.
  EXPECT_NEAR(trans[static_cast<std::size_t>(i)].p01, m.p10(), 1e-12);
}

// ---- transition-state decomposition (Eqs. 10/11 in full) ------------------

TEST(SignalTransition, Constructors) {
  const auto s = SignalTransition::independent(0.3);
  EXPECT_NEAR(s.p1(), 0.3, 1e-12);
  EXPECT_NEAR(s.activity(), 2 * 0.3 * 0.7, 1e-12);
  const auto c = s.complement();
  EXPECT_NEAR(c.p1(), 0.7, 1e-12);
  EXPECT_NEAR(c.activity(), s.activity(), 1e-12);
}

TEST(MergeTransitions, Eq10And11ForAnd) {
  const SignalTransition a{0.1, 0.2, 0.3, 0.4};
  const SignalTransition b{0.25, 0.25, 0.25, 0.25};
  const SignalTransition o = merge_transitions(a, b, GateType::kAnd);
  EXPECT_NEAR(o.w01, a.w01 * b.w01 + a.w11 * b.w01 + a.w01 * b.w11, 1e-12);
  EXPECT_NEAR(o.w10, a.w11 * b.w10 + a.w10 * b.w11 + a.w10 * b.w10, 1e-12);
  EXPECT_NEAR(o.w11, a.w11 * b.w11, 1e-12);
  EXPECT_NEAR(o.w00 + o.w01 + o.w10 + o.w11, 1.0, 1e-12);
}

TEST(MergeTransitions, MatchesJointEnumeration) {
  // Oracle: enumerate the 16 joint input-pair combinations.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto rand_state = [&]() {
      double w[4];
      double sum = 0;
      for (double& x : w) {
        x = rng.uniform(0.01, 1.0);
        sum += x;
      }
      return SignalTransition{w[0] / sum, w[1] / sum, w[2] / sum, w[3] / sum};
    };
    const SignalTransition a = rand_state();
    const SignalTransition b = rand_state();
    for (const GateType g : {GateType::kAnd, GateType::kOr}) {
      double w[2][2] = {{0, 0}, {0, 0}};
      const double aw[2][2] = {{a.w00, a.w01}, {a.w10, a.w11}};
      const double bw[2][2] = {{b.w00, b.w01}, {b.w10, b.w11}};
      for (int at = 0; at < 2; ++at)
        for (int an = 0; an < 2; ++an)
          for (int bt = 0; bt < 2; ++bt)
            for (int bn = 0; bn < 2; ++bn) {
              const bool ot = g == GateType::kAnd ? (at && bt) : (at || bt);
              const bool on = g == GateType::kAnd ? (an && bn) : (an || bn);
              w[ot][on] += aw[at][an] * bw[bt][bn];
            }
      const SignalTransition o = merge_transitions(a, b, g);
      EXPECT_NEAR(o.w00, w[0][0], 1e-12);
      EXPECT_NEAR(o.w01, w[0][1], 1e-12);
      EXPECT_NEAR(o.w10, w[1][0], 1e-12);
      EXPECT_NEAR(o.w11, w[1][1], 1e-12);
    }
  }
}

TEST(TransitionDecomp, ReducesToStaticModelUnderTemporalIndependence) {
  // Under temporal independence the transition Modified Huffman and the
  // collapsed static Modified Huffman must agree on cost.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.range(3, 7));
    std::vector<double> p(static_cast<std::size_t>(n));
    std::vector<SignalTransition> states;
    for (double& x : p) {
      x = rng.uniform(0.05, 0.95);
      states.push_back(SignalTransition::independent(x));
    }
    const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
    const double c_static =
        modified_huffman_tree(p, model).internal_cost(model, p);
    const DecompTree t = modified_huffman_transitions(states, GateType::kAnd);
    const double c_trans =
        tree_transition_activity(t, states, GateType::kAnd);
    EXPECT_NEAR(c_static, c_trans, 1e-9);
  }
}

TEST(TransitionDecomp, NearOptimalAgainstExhaustive) {
  Rng rng(13);
  int optimal = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const int n = 5;
    std::vector<SignalTransition> states;
    for (int i = 0; i < n; ++i) {
      const double p = rng.uniform(0.1, 0.9);
      const double act = rng.uniform(0.0, 2.0 * std::min(p, 1.0 - p));
      states.push_back(
          SignalTransition::from(PiTemporalModel::with_activity(p, act)));
    }
    const DecompTree h = modified_huffman_transitions(states, GateType::kAnd);
    const DecompTree o =
        best_tree_exhaustive_transitions(states, GateType::kAnd);
    const double ch = tree_transition_activity(h, states, GateType::kAnd);
    const double co = tree_transition_activity(o, states, GateType::kAnd);
    EXPECT_GE(ch, co - 1e-9);
    if (ch <= co + 1e-9) ++optimal;
  }
  EXPECT_GE(optimal * 100 / trials, 70);  // Table-1-like rate
}

TEST(TransitionDecomp, LowActivityInputsChangeTheTree) {
  // One input almost never switches but sits at p = 0.5; the collapsed
  // static model (activity 0.5) wants it merged late, while the transition
  // model knows merging it early freezes the whole subtree.
  std::vector<SignalTransition> states = {
      SignalTransition::from(PiTemporalModel::with_activity(0.5, 0.01)),
      SignalTransition::independent(0.5),
      SignalTransition::independent(0.5),
      SignalTransition::independent(0.5),
  };
  const DecompTree t = modified_huffman_transitions(states, GateType::kAnd);
  const double c_trans = tree_transition_activity(t, states, GateType::kAnd);

  // Static-collapsed tree built on marginals only:
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  const std::vector<double> marginals{0.5, 0.5, 0.5, 0.5};
  const DecompTree ts = modified_huffman_tree(marginals, model);
  const double c_static_scored =
      tree_transition_activity(ts, states, GateType::kAnd);
  EXPECT_LE(c_trans, c_static_scored + 1e-9);
}

// ---- temporal-aware network decomposition ----------------------------------

TEST(TemporalNetworkDecomp, PreservesFunction) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    Network net = testing::random_network(seed, 6, 12, 3);
    Rng rng(seed + 2);
    NetworkDecompOptions o;
    for (std::size_t i = 0; i < net.pis().size(); ++i) {
      const double p = rng.uniform(0.2, 0.8);
      const double amax = 2.0 * std::min(p, 1.0 - p);
      o.temporal.push_back(
          PiTemporalModel::with_activity(p, rng.uniform(0.05, amax)));
    }
    const auto r = decompose_network(net, o);
    EXPECT_TRUE(networks_equivalent(net, r.network)) << seed;
    EXPECT_TRUE(r.network.is_nand_network());
  }
}

TEST(TemporalNetworkDecomp, IndependentModelMatchesDefaultActivity) {
  // With temporally independent PIs the temporal path must report the same
  // tree activity as the default static path (both reduce to 2p(1−p)).
  Network net = testing::random_network(47, 6, 12, 3);
  std::vector<double> pi_p;
  NetworkDecompOptions temporal;
  Rng rng(3);
  for (std::size_t i = 0; i < net.pis().size(); ++i) {
    pi_p.push_back(rng.uniform(0.2, 0.8));
    temporal.temporal.push_back(PiTemporalModel::independent(pi_p.back()));
  }
  NetworkDecompOptions plain;
  plain.pi_prob1 = pi_p;
  const auto rt = decompose_network(net, temporal);
  const auto rp = decompose_network(net, plain);
  EXPECT_NEAR(rt.tree_activity, rp.tree_activity, 1e-6);
}

TEST(TemporalNetworkDecomp, SlowInputsLowerTreeActivity) {
  // Halving every input's activity must not increase the decomposition
  // objective (activities propagate monotonically through Eq. 10/11).
  Network net = testing::random_network(48, 6, 14, 3);
  NetworkDecompOptions fast;
  NetworkDecompOptions slow;
  for (std::size_t i = 0; i < net.pis().size(); ++i) {
    fast.temporal.push_back(PiTemporalModel::with_activity(0.5, 0.5));
    slow.temporal.push_back(PiTemporalModel::with_activity(0.5, 0.1));
  }
  const auto rf = decompose_network(net, fast);
  const auto rs = decompose_network(net, slow);
  EXPECT_LT(rs.tree_activity, rf.tree_activity);
}

TEST(DecomposeNodeTransitions, RealizesFunction) {
  Rng rng(21);
  for (int trial = 0; trial < 15; ++trial) {
    const int k = static_cast<int>(rng.range(2, 6));
    Cover f;
    const int cubes = static_cast<int>(rng.range(1, 4));
    for (int cu = 0; cu < cubes; ++cu) {
      Cube c;
      for (int v = 0; v < k; ++v)
        if (rng.coin(0.6)) c = c & Cube::literal(v, rng.coin());
      if (c.is_one()) c = Cube::literal(0, true);
      f.add(c);
    }
    f.normalize();
    if (f.is_zero() || f.is_one()) continue;
    std::vector<SignalTransition> states;
    for (int v = 0; v < k; ++v)
      states.push_back(
          SignalTransition::independent(rng.uniform(0.1, 0.9)));
    const NodeDecomp plan = decompose_node_transitions(f, states);

    Network net("r");
    std::vector<NodeId> pis;
    for (int i = 0; i < k; ++i)
      pis.push_back(net.add_pi("x" + std::to_string(i)));
    const NodeId root = emit_node_decomp(net, pis, plan);
    net.add_po("f", root);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << k); ++m) {
      std::vector<bool> in(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i)
        in[static_cast<std::size_t>(i)] = (m >> i) & 1;
      EXPECT_EQ(net.eval(in)[0], f.eval(m)) << f.to_string();
    }
  }
}

}  // namespace
}  // namespace minpower
