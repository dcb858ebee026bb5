#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "decomp/huffman.hpp"
#include "decomp/node_decompose.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

double cost(const DecompTree& t, const DecompModel& m,
            const std::vector<double>& p) {
  return t.internal_cost(m, p);
}

TEST(DecompModel, MergeProb) {
  const DecompModel and_p(GateType::kAnd, CircuitStyle::kDynamicP);
  const DecompModel or_p(GateType::kOr, CircuitStyle::kDynamicP);
  EXPECT_DOUBLE_EQ(and_p.merge_prob(0.3, 0.4), 0.12);
  EXPECT_DOUBLE_EQ(or_p.merge_prob(0.3, 0.4), 1.0 - 0.7 * 0.6);
}

TEST(DecompModel, MergeCostByStyle) {
  const DecompModel and_p(GateType::kAnd, CircuitStyle::kDynamicP);
  const DecompModel and_n(GateType::kAnd, CircuitStyle::kDynamicN);
  const DecompModel and_s(GateType::kAnd, CircuitStyle::kStatic);
  EXPECT_DOUBLE_EQ(and_p.merge_cost(0.3, 0.4), 0.12);
  EXPECT_DOUBLE_EQ(and_n.merge_cost(0.3, 0.4), 0.88);
  EXPECT_DOUBLE_EQ(and_s.merge_cost(0.3, 0.4), 2 * 0.12 * 0.88);
  EXPECT_TRUE(and_p.huffman_optimal());
  EXPECT_FALSE(and_s.huffman_optimal());
}

TEST(Huffman, Figure1Example) {
  // The paper's Figure 1: P(a)=0.3 P(b)=0.4 P(c)=0.7 P(d)=0.5, p-type
  // domino AND decomposition. Configuration A sums to 0.246 internal
  // activity; configuration B to 0.512−… — the figure reports totals with
  // leaves included: 2.146 vs 2.412 (leaves contribute 1.9).
  const std::vector<double> p{0.3, 0.4, 0.7, 0.5};
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);

  // Configuration A: ((a·b)·c)·d — internal sum 0.12+0.084+0.042 = 0.246.
  DecompTree a;
  a.num_leaves = 4;
  for (int i = 0; i < 4; ++i) {
    DecompTree::TNode leaf;
    leaf.leaf = i;
    a.nodes.push_back(leaf);
  }
  auto add = [&](int l, int r) {
    DecompTree::TNode n;
    n.left = l;
    n.right = r;
    a.nodes.push_back(n);
    return static_cast<int>(a.nodes.size()) - 1;
  };
  a.root = add(add(add(0, 1), 2), 3);
  EXPECT_NEAR(cost(a, model, p) + 1.9, 2.146, 1e-9);

  // Configuration B: (a·b)·(c·d) — internal 0.12+0.35+0.042 = 0.512.
  DecompTree b;
  b.num_leaves = 4;
  for (int i = 0; i < 4; ++i) {
    DecompTree::TNode leaf;
    leaf.leaf = i;
    b.nodes.push_back(leaf);
  }
  auto addb = [&](int l, int r) {
    DecompTree::TNode n;
    n.left = l;
    n.right = r;
    b.nodes.push_back(n);
    return static_cast<int>(b.nodes.size()) - 1;
  };
  b.root = addb(addb(0, 1), addb(2, 3));
  EXPECT_NEAR(cost(b, model, p) + 1.9, 2.412, 1e-9);

  // Huffman finds a tree at least as good as A.
  const DecompTree h = huffman_tree(p, model);
  EXPECT_LE(cost(h, model, p), cost(a, model, p) + 1e-12);
}

TEST(Huffman, SingleAndTwoLeaves) {
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  const DecompTree one = huffman_tree({0.4}, model);
  EXPECT_EQ(one.height(), 0);
  EXPECT_EQ(cost(one, model, {0.4}), 0.0);
  const DecompTree two = huffman_tree({0.4, 0.6}, model);
  EXPECT_EQ(two.height(), 1);
  EXPECT_NEAR(cost(two, model, {0.4, 0.6}), 0.24, 1e-12);
}

TEST(ModifiedHuffman, MatchesHuffmanOnQuasiLinear) {
  Rng rng(2024);
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p(6);
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    const double ch = cost(huffman_tree(p, model), model, p);
    const double cm = cost(modified_huffman_tree(p, model), model, p);
    EXPECT_NEAR(ch, cm, 1e-9);
  }
}

// Theorem 2.2: Huffman is optimal for dynamic styles — verified against
// exhaustive enumeration over random instances and both gate types/styles.
struct DynCase {
  GateType gate;
  CircuitStyle style;
  int n;
};

class HuffmanOptimality : public ::testing::TestWithParam<DynCase> {};

TEST_P(HuffmanOptimality, MatchesExhaustiveOptimum) {
  const DynCase c = GetParam();
  const DecompModel model(c.gate, c.style);
  Rng rng(static_cast<std::uint64_t>(c.n) * 1000 +
          static_cast<std::uint64_t>(c.gate) * 10 +
          static_cast<std::uint64_t>(c.style));
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> p(static_cast<std::size_t>(c.n));
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    const double ch = cost(huffman_tree(p, model), model, p);
    const double co = cost(best_tree_exhaustive(p, model), model, p);
    EXPECT_LE(ch, co + 1e-9) << "gate=" << static_cast<int>(c.gate)
                             << " style=" << static_cast<int>(c.style)
                             << " n=" << c.n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DynamicStyles, HuffmanOptimality,
    ::testing::Values(DynCase{GateType::kAnd, CircuitStyle::kDynamicP, 4},
                      DynCase{GateType::kAnd, CircuitStyle::kDynamicP, 6},
                      DynCase{GateType::kAnd, CircuitStyle::kDynamicN, 5},
                      DynCase{GateType::kOr, CircuitStyle::kDynamicP, 5},
                      DynCase{GateType::kOr, CircuitStyle::kDynamicN, 6}));

// Table 1's experiment in miniature: Modified Huffman vs exhaustive optimum
// for the static model; it should be optimal in a large fraction of trials
// and never worse than the exhaustive optimum by construction of the test.
class ModifiedHuffmanRate : public ::testing::TestWithParam<int> {};

TEST_P(ModifiedHuffmanRate, NearOptimalForStatic) {
  const int n = GetParam();
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  Rng rng(static_cast<std::uint64_t>(n) * 31337);
  int optimal = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> p(static_cast<std::size_t>(n));
    for (double& x : p) x = rng.uniform(0.0, 1.0);
    const double cm = cost(modified_huffman_tree(p, model), model, p);
    const double co = cost(best_tree_exhaustive(p, model), model, p);
    EXPECT_GE(cm, co - 1e-9);
    if (cm <= co + 1e-9) ++optimal;
  }
  // The paper's Table 1 reports 88–100% for n = 3..6; allow slack.
  EXPECT_GE(optimal * 100 / trials, 70) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(TableOneSizes, ModifiedHuffmanRate,
                         ::testing::Values(3, 4, 5, 6));

TEST(Exhaustive, ExactlyEnumeratesSmallCases) {
  // For n=3 there are 3 distinct trees; brute check one known optimum.
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  const std::vector<double> p{0.9, 0.1, 0.5};
  const DecompTree t = best_tree_exhaustive(p, model);
  // Optimal merges the two smallest first: (0.1,0.5) → 0.05, then 0.045.
  EXPECT_NEAR(cost(t, model, p), 0.05 + 0.045, 1e-12);
}

TEST(LeafDepths, ConsistentWithHeight) {
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  Rng rng(99);
  std::vector<double> p(7);
  for (double& x : p) x = rng.uniform(0.1, 0.9);
  const DecompTree t = huffman_tree(p, model);
  const auto depths = t.leaf_depths();
  int maxd = 0;
  for (int d : depths) maxd = std::max(maxd, d);
  EXPECT_EQ(maxd, t.height());
  // Kraft equality for a full binary tree.
  double kraft = 0.0;
  for (int d : depths) kraft += std::pow(2.0, -d);
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(CorrelatedHuffman, IndependentJointsReduceToModified) {
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  Rng rng(7);
  std::vector<double> p(5);
  for (double& x : p) x = rng.uniform(0.1, 0.9);
  const auto joints = JointProbabilities::independent(p);
  const DecompTree tc = modified_huffman_correlated(joints, model);
  const DecompTree tm = modified_huffman_tree(p, model);
  EXPECT_NEAR(cost(tc, model, p), cost(tm, model, p), 1e-9);
}

TEST(CorrelatedHuffman, ExploitsStrongCorrelation) {
  // Signals 0 and 1 are strongly anti-correlated: P(0∧1) = 0.05 even though
  // each is 0.5 alone. A p-type domino AND of the pair almost never fires,
  // so the correlation-aware algorithm must merge (0,1) first; an
  // independence-assuming model would see every pair as 0.25 and have no
  // reason to prefer it.
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  std::vector<double> p{0.5, 0.5, 0.5};
  JointProbabilities j(p);
  j.set(0, 1, 0.05);  // anti-correlated
  j.set(0, 2, 0.25);  // independent
  j.set(1, 2, 0.25);
  const DecompTree t = modified_huffman_correlated(j, model);
  // The first internal node created must be the (0,1) merge with its exact
  // joint probability.
  const DecompTree::TNode& first_internal =
      t.nodes[static_cast<std::size_t>(t.num_leaves)];
  ASSERT_FALSE(first_internal.is_leaf());
  EXPECT_NEAR(first_internal.prob, 0.05, 1e-12);
  const bool leaves01 =
      (first_internal.left == 0 && first_internal.right == 1) ||
      (first_internal.left == 1 && first_internal.right == 0);
  EXPECT_TRUE(leaves01);
}

TEST(Huffman, DynamicNMergesLargestProbabilities) {
  // n-type domino: activity = 1−p; the cheapest merge pairs the two LARGEST
  // 1-probabilities (their AND has the smallest 0-probability... verify by
  // direct cost comparison against exhaustive).
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicN);
  const std::vector<double> p{0.1, 0.2, 0.85, 0.9};
  const DecompTree h = huffman_tree(p, model);
  const DecompTree o = best_tree_exhaustive(p, model);
  EXPECT_NEAR(h.internal_cost(model, p), o.internal_cost(model, p), 1e-12);
  // The first merge must combine leaves 2 and 3 (p = 0.85, 0.9).
  const DecompTree::TNode& first =
      h.nodes[static_cast<std::size_t>(h.num_leaves)];
  const bool top_pair = (first.left == 2 && first.right == 3) ||
                        (first.left == 3 && first.right == 2);
  EXPECT_TRUE(top_pair);
}

TEST(Huffman, DegenerateProbabilitiesAreStable) {
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  // Zeros and ones must not break anything.
  const std::vector<double> p{0.0, 1.0, 0.5, 0.0};
  const DecompTree t = huffman_tree(p, model);
  EXPECT_EQ(t.num_leaves, 4);
  EXPECT_GE(t.internal_cost(model, p), 0.0);
  const DecompTree m = modified_huffman_tree(p, model);
  EXPECT_GE(m.internal_cost(model, p), 0.0);
}

TEST(Huffman, EqualProbabilitiesFavorTheChain) {
  // For p-type AND with identical leaves the optimal tree is the maximally
  // skewed chain: each merge multiplies the running product down, so deep
  // internal nodes are nearly free, whereas a balanced tree keeps several
  // expensive mid-level products alive. Huffman naturally produces the
  // chain (the merged node is always among the two smallest).
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  const std::vector<double> p(8, 0.5);
  const DecompTree h = huffman_tree(p, model);
  EXPECT_EQ(h.height(), 7);  // chain
  const DecompTree o = best_tree_exhaustive(p, model);
  EXPECT_NEAR(h.internal_cost(model, p), o.internal_cost(model, p), 1e-12);
}

TEST(JointProbabilities, CondAndBounds) {
  JointProbabilities j({0.5, 0.4});
  j.set(0, 1, 0.2);
  EXPECT_DOUBLE_EQ(j.prob(0), 0.5);
  EXPECT_DOUBLE_EQ(j.joint(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(j.cond(0, 1), 0.5);  // P(0|1) = 0.2/0.4
  EXPECT_DOUBLE_EQ(j.cond(1, 0), 0.4);  // P(1|0) = 0.2/0.5
}


// Every tree builder's output is pinned: seeded leaf sets of 1..14 leaves,
// drawn four ways (uniform, a coarse grid that forces cost ties, near the
// rails, all equal), go through each builder, and a digest of every tree
// (each node's leaf, children, height and the bits of its probability, then
// the root) is compared with a committed constant per builder. A change to
// the builders' bookkeeping must leave every digest unchanged; a moved
// digest means the change altered a tree. Never regenerate a row to make
// this test pass.
enum class LeafKind { kUniform, kGrid, kRails, kEqual };
constexpr LeafKind kLeafKinds[] = {LeafKind::kUniform, LeafKind::kGrid,
                                   LeafKind::kRails, LeafKind::kEqual};

/// One value in [0, 1] drawn the `kind` way.
double draw(Rng& rng, LeafKind kind) {
  switch (kind) {
    case LeafKind::kUniform: return rng.uniform();
    case LeafKind::kGrid: return 0.25 * static_cast<double>(rng.range(1, 3));
    case LeafKind::kRails: {
      const double eps = 1e-9 * rng.uniform();
      return rng.coin() ? eps : 1.0 - eps;
    }
    case LeafKind::kEqual: break;
  }
  return 0.5;
}

std::vector<double> leaf_probs(Rng& rng, LeafKind kind, int n) {
  std::vector<double> p(static_cast<std::size_t>(n));
  const double same = rng.uniform();
  for (double& x : p) x = kind == LeafKind::kEqual ? same : draw(rng, kind);
  return p;
}

/// A joint table whose every pair sits at a drawn point of its Fréchet
/// interval [max(0, pi + pj − 1), min(pi, pj)].
JointProbabilities leaf_joints(Rng& rng, LeafKind kind, int n) {
  const std::vector<double> p = leaf_probs(rng, kind, n);
  JointProbabilities j(p);
  const double same = rng.uniform();
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b) {
      const double pa = p[static_cast<std::size_t>(a)];
      const double pb = p[static_cast<std::size_t>(b)];
      const double lo = std::max(0.0, pa + pb - 1.0);
      const double hi = std::min(pa, pb);
      const double t = kind == LeafKind::kEqual ? same
                       : kind == LeafKind::kRails
                           ? static_cast<double>(rng.coin())
                           : draw(rng, kind);
      j.set(a, b, lo + t * (hi - lo));
    }
  return j;
}

SignalTransition leaf_state(Rng& rng, LeafKind kind) {
  double w[4];
  double sum = 0.0;
  for (double& x : w) {
    x = kind == LeafKind::kGrid ? static_cast<double>(rng.range(0, 2))
                                : rng.uniform();
    sum += x;
  }
  if (kind == LeafKind::kRails) {
    const double eps = 1e-9;
    const bool high = rng.coin();
    return {high ? eps * w[0] : 1.0 - 3 * eps, eps * w[1], eps * w[2],
            high ? 1.0 - 3 * eps : eps * w[3]};
  }
  if (sum == 0.0) return {};
  return {w[0] / sum, w[1] / sum, w[2] / sum, w[3] / sum};
}

std::vector<SignalTransition> leaf_states(Rng& rng, LeafKind kind, int n) {
  const SignalTransition same = leaf_state(rng, LeafKind::kUniform);
  std::vector<SignalTransition> s(static_cast<std::size_t>(n));
  for (SignalTransition& x : s)
    x = kind == LeafKind::kEqual ? same : leaf_state(rng, kind);
  return s;
}

void digest_tree(StreamHash& h, const DecompTree& t) {
  h.u64(t.nodes.size());
  for (const DecompTree::TNode& n : t.nodes) {
    h.u64(static_cast<std::uint64_t>(n.leaf));
    h.u64(static_cast<std::uint64_t>(n.left));
    h.u64(static_cast<std::uint64_t>(n.right));
    h.u64(static_cast<std::uint64_t>(n.height));
    h.u64(std::bit_cast<std::uint64_t>(n.prob));
  }
  h.u64(static_cast<std::uint64_t>(t.root));
}

void digest_plan(StreamHash& h, const NodeDecomp& plan) {
  for (const auto& lits : plan.cube_literals)
    for (const auto& [var, phase] : lits) h.u64(var * 2u + phase);
  for (const DecompTree& t : plan.cube_trees) digest_tree(h, t);
  digest_tree(h, plan.or_tree);
  h.u64(static_cast<std::uint64_t>(plan.realized_height));
  h.u64(std::bit_cast<std::uint64_t>(plan.tree_activity));
}

/// A random non-constant SOP over `k` variables.
Cover random_cover(Rng& rng, int k) {
  for (;;) {
    Cover f;
    const int cubes = static_cast<int>(rng.range(1, 5));
    for (int cu = 0; cu < cubes; ++cu) {
      Cube c;
      for (int v = 0; v < k; ++v)
        if (rng.coin(0.6)) c = c & Cube::literal(v, rng.coin());
      if (c.is_one()) c = Cube::literal(static_cast<int>(rng.below(k)), true);
      f.add(c);
    }
    f.normalize();
    if (!f.is_zero() && !f.is_one()) return f;
  }
}

constexpr CircuitStyle kStyles[] = {CircuitStyle::kStatic,
                                    CircuitStyle::kDynamicP,
                                    CircuitStyle::kDynamicN};
constexpr GateType kGates[] = {GateType::kAnd, GateType::kOr};

struct PinnedBuilder {
  const char* name;
  std::uint64_t digest;
};

const std::vector<PinnedBuilder> kPinnedBuilders = {
    {"huffman", 0x1194281ea50e6a81ULL},
    {"modified_huffman", 0x2ea1bb1f17057f69ULL},
    {"correlated", 0x53f5af96bfe5d9cfULL},
    {"transitions", 0x07c92e0683fb4c49ULL},
    {"bounded_exact", 0x8ace118f2e0ad023ULL},
    {"bounded_overrun", 0x851def22475b8812ULL},
    {"bounded_ladder", 0xaed7f1c592fbe52aULL},
    {"exhaustive", 0xdae4affc22693810ULL},
    {"exhaustive_transitions", 0x01f90c070ec5671cULL},
    {"decompose_node", 0xeabd886f113c2749ULL},
    {"decompose_node_correlated", 0x8aadfe2f7cf55eafULL},
    {"decompose_node_transitions", 0x32217bacfab06e58ULL},
};

TEST(DecompTree, BuildersArePinned) {
  std::vector<StreamHash> h(kPinnedBuilders.size());
  Rng rng(20260);
  for (int n = 1; n <= 14; ++n)
    for (const LeafKind kind : kLeafKinds)
      for (int rep = 0; rep < 2; ++rep) {
        for (const CircuitStyle style : kStyles)
          for (const GateType gate : kGates) {
            const DecompModel model(gate, style);
            const std::vector<double> p = leaf_probs(rng, kind, n);
            digest_tree(h[0], huffman_tree(p, model));
            digest_tree(h[1], modified_huffman_tree(p, model));
            digest_tree(h[2], modified_huffman_correlated(
                                  leaf_joints(rng, kind, n), model));
            const int lo = balanced_height(n);
            for (int bound = lo; bound <= std::max(lo, n - 1); ++bound) {
              if (n > 6 && bound > lo + 2 && bound < n - 1) continue;
              auto bounded = [&] {
                return bounded_height_minpower_tree(p, bound, model);
              };
              if (n > 6) {
                digest_tree(h[6], bounded());
                continue;
              }
              digest_tree(h[4], bounded());
              Budget b;
              b.ordinal = 0;
              b.arm({{"exact-overrun", 0}});
              BudgetScope scope(b);
              digest_tree(h[5], bounded());
            }
            if (n <= 8) digest_tree(h[7], best_tree_exhaustive(p, model));
          }
        for (const GateType gate : kGates) {
          const std::vector<SignalTransition> s = leaf_states(rng, kind, n);
          digest_tree(h[3], modified_huffman_transitions(s, gate));
          if (n <= 8)
            digest_tree(h[8], best_tree_exhaustive_transitions(s, gate));
        }
      }

  // Node plans over random covers of 2..8 variables.
  for (int trial = 0; trial < 120; ++trial) {
    const int k = static_cast<int>(rng.range(2, 8));
    const Cover f = random_cover(rng, k);
    const LeafKind kind = kLeafKinds[trial % 4];
    const std::vector<double> p = leaf_probs(rng, kind, k);
    for (const CircuitStyle style : kStyles) {
      digest_plan(h[9],
                  decompose_node(f, p, style, DecompAlgorithm::kBalanced));
      const int floor = balanced_nand_height(f);
      for (const int bound : {-1, floor, floor + 1, floor + 2})
        digest_plan(h[9], decompose_node(f, p, style,
                                         DecompAlgorithm::kMinPower, bound));
    }
    Network net("pins");
    std::vector<NodeId> pis;
    for (int i = 0; i < k; ++i)
      pis.push_back(net.add_pi("x" + std::to_string(i)));
    std::vector<InputPattern> patterns(
        static_cast<std::size_t>(rng.range(2, 12)));
    for (InputPattern& pat : patterns) {
      for (int i = 0; i < k; ++i)
        pat.values.push_back(rng.coin(draw(rng, kind)));
      pat.weight = 0.1 + rng.uniform();
    }
    const PatternModel pm(net, std::move(patterns));
    for (const CircuitStyle style : kStyles)
      digest_plan(h[10], decompose_node_correlated(f, pis, pm, style));
    digest_plan(h[11],
                decompose_node_transitions(f, leaf_states(rng, kind, k)));
  }

  for (std::size_t i = 0; i < kPinnedBuilders.size(); ++i)
    EXPECT_EQ(h[i].digest().fold(), kPinnedBuilders[i].digest)
        << kPinnedBuilders[i].name << " digest 0x" << std::hex
        << h[i].digest().fold();
}

}  // namespace
}  // namespace minpower
