#include <gtest/gtest.h>

#include "helpers.hpp"
#include "io/blif.hpp"
#include "prob/probability.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

TEST(Activity, Formulas) {
  EXPECT_DOUBLE_EQ(switching_activity(0.3, CircuitStyle::kDynamicP), 0.3);
  EXPECT_DOUBLE_EQ(switching_activity(0.3, CircuitStyle::kDynamicN), 0.7);
  EXPECT_DOUBLE_EQ(switching_activity(0.3, CircuitStyle::kStatic),
                   2.0 * 0.3 * 0.7);
  // Static activity peaks at p = 0.5 and vanishes at the rails.
  EXPECT_DOUBLE_EQ(switching_activity(0.5, CircuitStyle::kStatic), 0.5);
  EXPECT_DOUBLE_EQ(switching_activity(0.0, CircuitStyle::kStatic), 0.0);
  EXPECT_DOUBLE_EQ(switching_activity(1.0, CircuitStyle::kStatic), 0.0);
}

TEST(Activity, StaticInvariantUnderComplement) {
  for (double p : {0.1, 0.25, 0.6, 0.9})
    EXPECT_DOUBLE_EQ(switching_activity(p, CircuitStyle::kStatic),
                     switching_activity(1.0 - p, CircuitStyle::kStatic));
}

TEST(SignalProbabilities, HandComputedExample) {
  // Figure-1-like: f = a·b·c·d with given input probabilities.
  Network net("and4");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId d = net.add_pi("d");
  const NodeId ab = net.add_and2(a, b);
  const NodeId abc = net.add_and2(ab, c);
  const NodeId abcd = net.add_and2(abc, d);
  net.add_po("f", abcd);
  const auto p = signal_probabilities(net, {0.3, 0.4, 0.7, 0.5});
  EXPECT_NEAR(p[static_cast<std::size_t>(ab)], 0.12, 1e-12);
  EXPECT_NEAR(p[static_cast<std::size_t>(abc)], 0.084, 1e-12);
  EXPECT_NEAR(p[static_cast<std::size_t>(abcd)], 0.042, 1e-12);
}

TEST(SignalProbabilities, DefaultIsHalf) {
  Network net("xor");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  // xor = a!b + !ab
  Cover c{{Cube::literal(0, true) & Cube::literal(1, false),
           Cube::literal(0, false) & Cube::literal(1, true)}};
  const NodeId x = net.add_node({a, b}, c, "x");
  net.add_po("f", x);
  const auto p = signal_probabilities(net);
  EXPECT_NEAR(p[static_cast<std::size_t>(x)], 0.5, 1e-12);
}

TEST(SignalProbabilities, ConstantsAreExact) {
  Network net("konst");
  net.add_pi("a");
  const NodeId one = net.add_constant(true, "one");
  const NodeId zero = net.add_constant(false, "zero");
  net.add_po("o1", one);
  net.add_po("o0", zero);
  const auto p = signal_probabilities(net);
  EXPECT_EQ(p[static_cast<std::size_t>(one)], 1.0);
  EXPECT_EQ(p[static_cast<std::size_t>(zero)], 0.0);
}

// Property: BDD-based probabilities equal the weighted-minterm oracle on
// random networks with random PI probabilities.
class ProbabilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProbabilityProperty, ExactOnRandomNetworks) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Network net = testing::random_network(seed + 100, 6, 12, 3);
  Rng rng(seed * 17 + 3);
  const auto pi_p =
      testing::random_probs(rng, static_cast<int>(net.pis().size()));
  const auto fast = signal_probabilities(net, pi_p);
  const auto slow = testing::brute_force_probabilities(net, pi_p);
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    EXPECT_NEAR(fast[static_cast<std::size_t>(id)],
                slow[static_cast<std::size_t>(id)], 1e-9)
        << "node " << net.node(id).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ProbabilityProperty, ::testing::Range(0, 25));

TEST(TotalActivity, SumsInternalNodes) {
  Network net("sum");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and2(a, b, "g");
  net.add_po("f", g);
  // p(g) = 0.25; static activity = 2·0.25·0.75 = 0.375.
  EXPECT_NEAR(total_internal_activity(net, CircuitStyle::kStatic), 0.375,
              1e-12);
  // Including PIs adds 2 × 0.5.
  EXPECT_NEAR(total_internal_activity(net, CircuitStyle::kStatic, {}, true),
              0.375 + 1.0, 1e-12);
  // Dynamic p-type: activity = p.
  EXPECT_NEAR(total_internal_activity(net, CircuitStyle::kDynamicP), 0.25,
              1e-12);
}

TEST(Equivalence, DetectsEqualAndUnequal) {
  Network a = testing::random_network(7, 5, 10, 2);
  Network b = a.duplicate();
  EXPECT_TRUE(networks_equivalent(a, b));

  // Tamper with one PO.
  Network c = a.duplicate();
  const NodeId d0 = c.pos()[0].driver;
  const NodeId inv = c.add_inv(d0, "tamper");
  c.set_po_driver(0, inv);
  EXPECT_FALSE(networks_equivalent(a, c));
}

TEST(Equivalence, PiNameMismatchFails) {
  Network a("a");
  const NodeId x = a.add_pi("x");
  a.add_po("f", x);
  Network b("b");
  const NodeId y = b.add_pi("y");
  b.add_po("f", y);
  EXPECT_FALSE(networks_equivalent(a, b));
}

/// f = a·!b + c and a second output `g` = !a·c: neither is symmetric in its
/// inputs, so a positional (rather than by-name) PI binding changes them.
std::string asymmetric_blif(const std::string& inputs,
                            const std::string& g = "g") {
  return ".model t\n.inputs " + inputs + "\n.outputs f " + g +
         "\n.names a b c f\n10- 1\n--1 1\n.names a c " + g +
         "\n01 1\n.end\n";
}

TEST(Equivalence, PoNameMismatchFails) {
  const Network a = read_blif_string(asymmetric_blif("a b c"));
  const Network b = read_blif_string(asymmetric_blif("a b c", "h"));
  EXPECT_FALSE(networks_equivalent(a, b));
}

TEST(Equivalence, PermutedPiDeclarationOrderBindsByName) {
  const Network a = read_blif_string(asymmetric_blif("a b c"));
  const Network b = read_blif_string(asymmetric_blif("c a b"));
  ASSERT_NE(a.node(a.pis()[0]).name, b.node(b.pis()[0]).name);
  EXPECT_TRUE(networks_equivalent(a, b));
  EXPECT_TRUE(networks_equivalent(b, a));
}

TEST(Equivalence, InsensitiveToStructure) {
  // (a·b)·c vs a·(b·c)
  Network l("l");
  {
    const NodeId a = l.add_pi("a");
    const NodeId b = l.add_pi("b");
    const NodeId c = l.add_pi("c");
    l.add_po("f", l.add_and2(l.add_and2(a, b), c));
  }
  Network r("r");
  {
    const NodeId a = r.add_pi("a");
    const NodeId b = r.add_pi("b");
    const NodeId c = r.add_pi("c");
    r.add_po("f", r.add_and2(a, r.add_and2(b, c)));
  }
  EXPECT_TRUE(networks_equivalent(l, r));
}

}  // namespace
}  // namespace minpower
