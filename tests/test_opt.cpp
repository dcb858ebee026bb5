#include <gtest/gtest.h>

#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "opt/optimize.hpp"
#include "prob/probability.hpp"
#include "util/hash.hpp"

namespace minpower {
namespace {

Cube lit(int v, bool pos = true) { return Cube::literal(v, pos); }

TEST(Eliminate, CollapsesSingleLiteralNode) {
  Network net("elim");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId t = net.add_inv(a, "t");     // value ≤ 0 node
  const NodeId f = net.add_and2(t, b, "f");
  net.add_po("out", f);
  Network orig = net.duplicate();
  const int n = eliminate(net, 0);
  EXPECT_GE(n, 1);
  net.check();
  EXPECT_TRUE(networks_equivalent(orig, net));
  // t is gone; f computes !a·b directly.
  EXPECT_EQ(net.find("t"), kNoNode);
}

TEST(Eliminate, KeepsPoDrivers) {
  Network net("podriver");
  const NodeId a = net.add_pi("a");
  const NodeId t = net.add_inv(a, "t");
  net.add_po("out", t);
  eliminate(net, 100);
  EXPECT_NE(net.find("t"), kNoNode);
}

TEST(Eliminate, RespectsValueThreshold) {
  // t = a·b + c·d feeding two AND readers. Substituting t duplicates its
  // 4 literals at both readers: value = 2·(6−2) − 4 = +4 — kept at
  // threshold 0, collapsed once the threshold admits the growth.
  auto build = [] {
    Network net("thresh");
    const NodeId a = net.add_pi("a");
    const NodeId b = net.add_pi("b");
    const NodeId c = net.add_pi("c");
    const NodeId d = net.add_pi("d");
    const NodeId e = net.add_pi("e");
    const NodeId f = net.add_pi("f");
    Cover tc{{lit(0) & lit(1), lit(2) & lit(3)}};
    const NodeId t = net.add_node({a, b, c, d}, tc, "t");
    net.add_po("o1", net.add_and2(t, e, "f1"));
    net.add_po("o2", net.add_and2(t, f, "f2"));
    return net;
  };
  Network keep = build();
  eliminate(keep, 0);
  EXPECT_NE(keep.find("t"), kNoNode);  // above threshold: kept
  Network gone = build();
  eliminate(gone, 4);
  EXPECT_EQ(gone.find("t"), kNoNode);  // now collapsed
  gone.check();
}

TEST(Eliminate, ReopensANodeWhoseReaderChanged) {
  // x = a·b + c has readers r1 = x·e and r2 = x·f·g + y. Collapsing x adds
  // 2 literals at r1 and 5 at r2 and retires 3: value +4, rejected on the
  // first sweep. y = f·g (a later id) is then collapsed into r2, which
  // becomes f·g: x no longer counts there. On the next sweep x's value is
  // 2 − 3 = −1, so it must be evaluated again and eliminated.
  Network net("reopen");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId e = net.add_pi("e");
  const NodeId f = net.add_pi("f");
  const NodeId g = net.add_pi("g");
  const NodeId x =
      net.add_node({a, b, c}, Cover{{lit(0) & lit(1), lit(2)}}, "x");
  const NodeId y = net.add_node({f, g}, Cover{{lit(0) & lit(1)}}, "y");
  net.add_po("o1", net.add_and2(x, e, "r1"));
  net.add_po("o2", net.add_node({x, f, g, y},
                                Cover{{lit(0) & lit(1) & lit(2), lit(3)}},
                                "r2"));
  Network orig = net.duplicate();
  EXPECT_EQ(eliminate(net, 0), 2);
  net.check();
  EXPECT_EQ(net.find("x"), kNoNode);
  EXPECT_EQ(net.find("y"), kNoNode);
  EXPECT_TRUE(networks_equivalent(orig, net));
}

TEST(CubeExtract, TiedPairsGoToTheSmallestPair) {
  // Two pairs occur three times each; the divisor must be the smaller pair
  // in (driver, phase) order. The larger pair's readers come first in id
  // order, so the winner is decided by pair order, not by the order in
  // which the pairs are met. Drivers: c·d loses to a·b. Phases: a·b loses
  // to !a·b.
  for (const bool by_phase : {false, true}) {
    Network net("tie");
    const NodeId a = net.add_pi("a");
    const NodeId b = net.add_pi("b");
    const NodeId c = net.add_pi("c");
    const NodeId d = net.add_pi("d");
    const Cube winner = lit(0, !by_phase) & lit(1);
    for (int k = 0; k < 3; ++k) {
      const std::string i = std::to_string(k);
      const std::vector<NodeId> fanins =
          by_phase ? std::vector<NodeId>{a, b} : std::vector<NodeId>{c, d};
      net.add_po("p" + i,
                 net.add_node(fanins, Cover{{lit(0) & lit(1)}}, "p" + i));
    }
    for (int k = 0; k < 3; ++k) {
      const std::string i = std::to_string(k);
      net.add_po("q" + i, net.add_node({a, b}, Cover{{winner}}, "q" + i));
    }
    Network orig = net.duplicate();
    EXPECT_EQ(extract_cube_divisors(net, 1), 1);
    EXPECT_TRUE(networks_equivalent(orig, net));
    const NodeId fx = net.find("fx_0");
    ASSERT_NE(fx, kNoNode);
    EXPECT_EQ(net.node(fx).fanins, (std::vector<NodeId>{a, b}));
    EXPECT_EQ(net.node(fx).cover, Cover{{winner}})
        << "by_phase " << by_phase << ": " << net.node(fx).cover.to_string();
  }
}

TEST(CubeExtract, FindsSharedCube) {
  Network net("fx");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId d = net.add_pi("d");
  // Three nodes all containing the cube a·b.
  const NodeId f1 = net.add_node({a, b, c}, Cover{{lit(0) & lit(1) & lit(2)}}, "f1");
  const NodeId f2 = net.add_node({a, b, d}, Cover{{lit(0) & lit(1) & lit(2)}}, "f2");
  const NodeId f3 = net.add_node({a, b}, Cover{{lit(0) & lit(1)}}, "f3");
  net.add_po("o1", f1);
  net.add_po("o2", f2);
  net.add_po("o3", f3);
  Network orig = net.duplicate();
  const int created = extract_cube_divisors(net);
  EXPECT_GE(created, 1);
  net.check();
  EXPECT_TRUE(networks_equivalent(orig, net));
}

TEST(KernelExtract, FindsSharedKernel) {
  Network net("kx");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId d = net.add_pi("d");
  const NodeId e = net.add_pi("e");
  // f1 = (a+b)·c·d, f2 = (a+b)·e — kernel (a+b) shared.
  Cover f1c{{lit(0) & lit(2) & lit(3), lit(1) & lit(2) & lit(3)}};
  Cover f2c{{lit(0) & lit(2), lit(1) & lit(2)}};
  const NodeId f1 = net.add_node({a, b, c, d}, f1c, "f1");
  const NodeId f2 = net.add_node({a, b, e}, f2c, "f2");
  net.add_po("o1", f1);
  net.add_po("o2", f2);
  Network orig = net.duplicate();
  const int created = extract_kernel_divisors(net);
  EXPECT_GE(created, 1);
  net.check();
  EXPECT_TRUE(networks_equivalent(orig, net));
  // Literal count must not have grown.
  EXPECT_LE(net.num_literals(), orig.num_literals());
}

TEST(QuickDecompose, SplitsWideNodes) {
  Network net("wide");
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(net.add_pi("p" + std::to_string(i)));
  Cover wide;
  for (int i = 0; i < 6; ++i) wide.add(lit(i));
  const NodeId f = net.add_node(pis, wide, "f");
  net.add_po("out", f);
  Network orig = net.duplicate();
  const int split = quick_decompose(net, 3);
  EXPECT_GE(split, 1);
  net.check();
  EXPECT_TRUE(networks_equivalent(orig, net));
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
    if (net.node(id).is_internal())
      EXPECT_LE(net.node(id).cover.num_cubes(), 3u);
}

// Property: the whole rugged-lite script preserves function on random nets.
class RuggedProperty : public ::testing::TestWithParam<int> {};

TEST_P(RuggedProperty, PreservesFunction) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Network net = testing::random_network(seed + 500, 7, 18, 4);
  Network orig = net.duplicate();
  const OptStats stats = rugged_lite(net);
  (void)stats;
  net.check();
  EXPECT_TRUE(networks_equivalent(orig, net)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Random, RuggedProperty, ::testing::Range(0, 30));

TEST(PowerExtract, PrefersLowActivityDivisors) {
  // Two divisor candidates with equal share counts: (a·b) with skewed
  // probabilities (low activity when exposed) and (c·d) with p=0.5 inputs
  // (maximum activity). The power-aware extractor must pick the former
  // first.
  Network net("px");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId d = net.add_pi("d");
  const NodeId e = net.add_pi("e");
  auto three_users = [&](NodeId x, NodeId y, const char* prefix) {
    for (int k = 0; k < 3; ++k) {
      Cover cover{{lit(0) & lit(1) & lit(2)}};
      net.add_po(std::string(prefix) + std::to_string(k),
                 net.add_node({x, y, e}, cover,
                              std::string(prefix) + "n" + std::to_string(k)));
    }
  };
  three_users(a, b, "ab");
  three_users(c, d, "cd");

  PowerOptOptions o;
  o.pi_prob1 = {0.95, 0.9, 0.5, 0.5, 0.5};  // a·b is a quiet net; c·d is not
  o.beta = 2.0;
  o.max_rounds = 1;  // only the single best divisor
  Network orig = net.duplicate();
  const int created = extract_cube_divisors_power(net, o);
  ASSERT_EQ(created, 1);
  EXPECT_TRUE(networks_equivalent(orig, net));
  // The created divisor reads a and b.
  const NodeId px = net.find("px_0") != kNoNode ? net.find("px_0") : kNoNode;
  ASSERT_NE(px, kNoNode);
  const auto& fi = net.node(px).fanins;
  EXPECT_TRUE((fi[0] == a && fi[1] == b) || (fi[0] == b && fi[1] == a));
}

TEST(PowerExtract, RuggedPowerPreservesFunction) {
  for (std::uint64_t seed = 600; seed < 610; ++seed) {
    Network net = testing::random_network(seed, 7, 18, 4);
    Network orig = net.duplicate();
    rugged_lite_power(net);
    net.check();
    EXPECT_TRUE(networks_equivalent(orig, net)) << seed;
  }
}

TEST(PowerExtract, BetaZeroActsLikeCountGreedy) {
  // With beta = 0 the score reduces to occurrences − 2, the same ordering
  // the plain extractor uses; both must find a divisor on a shareable net.
  Network net("beta0");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  for (int k = 0; k < 3; ++k) {
    Cover cover{{lit(0) & lit(1) & lit(2)}};
    net.add_po("o" + std::to_string(k),
               net.add_node({a, b, c}, cover, "u" + std::to_string(k)));
  }
  PowerOptOptions o;
  o.beta = 0.0;
  EXPECT_GE(extract_cube_divisors_power(net, o), 1);
  net.check();
}

TEST(Rugged, TendsToReduceLiterals) {
  // Aggregate over seeds: optimization should not systematically grow the
  // networks it claims to optimize.
  long before = 0;
  long after = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Network net = testing::random_network(seed + 900, 7, 20, 4);
    before += net.num_literals();
    rugged_lite(net);
    after += net.num_literals();
  }
  EXPECT_LE(after, before);
}

// Rugged-lite's output is pinned: the prepared network of each circuit
// below, as BLIF text, hashes to a fixed digest, and its OptStats are fixed.
// A change to the passes' bookkeeping (worklists, incremental counts, caches)
// must leave every row unchanged. A moved digest means the change altered
// the network; never regenerate a row to make this test pass.
struct PinnedRow {
  const char* name;
  std::uint64_t digest;
  OptStats stats;
};

std::uint64_t blif_digest(const Network& net) {
  StreamHash h;
  h.str(write_blif_string(net));
  return h.digest().fold();
}

std::vector<std::pair<std::string, Network>> pinned_inputs() {
  std::vector<std::pair<std::string, Network>> out;
  for (const BenchProfile& p : paper_suite())
    out.emplace_back(p.name, generate_benchmark(p));
  for (const std::string& family : scale_families())
    for (const std::size_t gates : {100, 316}) {
      const Network net = generate_scale_benchmark({family, gates, 7});
      out.emplace_back(net.name(), net);
    }
  for (int i = 0; i < 3; ++i) {
    PlaProfile p;
    p.name = "pla" + std::to_string(i);
    p.num_pi = 10 + 2 * i;
    p.num_outputs = 8 + 4 * i;
    p.cubes_per_output = 6 + 2 * i;
    p.literal_density = 0.45;
    p.seed = 1000 + static_cast<std::uint64_t>(i);
    out.emplace_back(p.name, generate_pla(p));
  }
  return out;
}

// {name, digest, {eliminated, cube_divisors, kernel_divisors, split_nodes,
//  simplified, swept}}
const std::vector<PinnedRow> kPinned = {
  {"s208", 0x6460e3f24e8383c6ULL, {17, 5, 2, 0, 6, 0}},
  {"s344", 0x126699e446542e00ULL, {13, 4, 0, 0, 15, 0}},
  {"s382", 0x1f7465fb211a8062ULL, {13, 2, 2, 0, 13, 0}},
  {"s444", 0xb86b197535d93efcULL, {7, 0, 1, 0, 19, 0}},
  {"s510", 0x3cb894840fe24403ULL, {44, 8, 3, 0, 32, 0}},
  {"s526", 0xc60d1738c5ffe803ULL, {14, 5, 2, 0, 30, 0}},
  {"s641", 0xbcda14d2668ebe93ULL, {16, 2, 0, 0, 17, 0}},
  {"s713", 0xc144367a9bcdcef6ULL, {23, 4, 3, 0, 21, 0}},
  {"s820", 0x54b0b1bcb7095b27ULL, {31, 5, 2, 0, 29, 0}},
  {"cm42a", 0xed928686724468f6ULL, {1, 0, 0, 0, 0, 0}},
  {"x1", 0xee9f89b986a06780ULL, {31, 6, 3, 0, 33, 0}},
  {"x2", 0x191877651c31fa64ULL, {11, 4, 0, 0, 4, 0}},
  {"x3", 0x9ae2bb82b6898811ULL, {53, 12, 2, 0, 34, 0}},
  {"ttt2", 0x5b795fd6a235bcdaULL, {20, 3, 1, 0, 17, 0}},
  {"apex7", 0x69e11ff506bc6ad4ULL, {18, 5, 2, 0, 21, 0}},
  {"alu2", 0x8a8253b75eab1ba3ULL, {52, 12, 2, 0, 30, 0}},
  {"ex2", 0x2481ff7f76b4a3ceULL, {12, 3, 1, 0, 29, 0}},
  {"chain-100", 0x42ca0d2b19ce7fd9ULL, {44, 0, 0, 0, 0, 0}},
  {"chain-316", 0x13cbedec708969a5ULL, {139, 0, 0, 0, 0, 0}},
  {"cone-100", 0xb5b9d00b86311e0cULL, {82, 27, 1, 0, 26, 0}},
  {"cone-316", 0x279dbf01e68ebb72ULL, {246, 99, 2, 0, 93, 0}},
  {"mesh-100", 0xe5fac29fe8925beeULL, {28, 12, 3, 0, 36, 0}},
  {"mesh-316", 0x8162735fab779170ULL, {120, 43, 10, 0, 117, 0}},
  {"pla0", 0x36a69a1a8f8af40bULL, {11, 12, 0, 0, 2, 0}},
  {"pla1", 0xf925584ff77988acULL, {36, 38, 0, 0, 2, 0}},
  {"pla2", 0x5dff763b0f419726ULL, {57, 68, 0, 0, 2, 0}},
};

TEST(Rugged, PreparedNetworksArePinned) {
  const auto inputs = pinned_inputs();
  ASSERT_EQ(inputs.size(), kPinned.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, source] = inputs[i];
    const PinnedRow& want = kPinned[i];
    Network prepared = source.duplicate();
    prepare_network(prepared);
    Network net = source.duplicate();
    const OptStats s = rugged_lite(net);
    const std::uint64_t digest = blif_digest(prepared);
    EXPECT_EQ(write_blif_string(net), write_blif_string(prepared)) << name;
    EXPECT_EQ(name, want.name);
    EXPECT_EQ(digest, want.digest) << name;
    EXPECT_EQ(s.eliminated, want.stats.eliminated) << name;
    EXPECT_EQ(s.cube_divisors, want.stats.cube_divisors) << name;
    EXPECT_EQ(s.kernel_divisors, want.stats.kernel_divisors) << name;
    EXPECT_EQ(s.split_nodes, want.stats.split_nodes) << name;
    EXPECT_EQ(s.simplified, want.stats.simplified) << name;
    EXPECT_EQ(s.swept, want.stats.swept) << name;
  }
}

}  // namespace
}  // namespace minpower
