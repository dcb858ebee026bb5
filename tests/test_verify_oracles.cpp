// Unit tests of the verification oracles themselves: each oracle must both
// accept the genuine pipeline output (positive cases) and catch an injected
// defect (negative cases), so a silently-vacuous oracle cannot pass CI.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "decomp/huffman.hpp"
#include "decomp/network_decompose.hpp"
#include "decomp/package_merge.hpp"
#include "flow/flow.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "map/mapper.hpp"
#include "power/report.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace minpower {
namespace {

using verify::VerifyOptions;
using verify::VerifyReport;

MapResult map_random_circuit(std::uint64_t seed, Network& subject_out) {
  Network net = testing::random_network(seed);
  prepare_network(net);
  NetworkDecompOptions d;
  d.algorithm = DecompAlgorithm::kMinPower;
  subject_out = decompose_network(net, d).network;
  MapOptions m;
  m.objective = MapObjective::kPower;
  return map_network(subject_out, standard_library(), m);
}

TEST(MappedEquivalence, AcceptsGenuineMapping) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Network net = testing::random_network(seed);
    Network optimized = net.duplicate();
    prepare_network(optimized);
    Network subject;
    const MapResult r = map_random_circuit(seed, subject);
    EXPECT_TRUE(verify::mapped_network_equivalent(optimized, r.mapped))
        << "seed " << seed;
    // Also against the pre-optimization source: same functions.
    EXPECT_TRUE(verify::mapped_network_equivalent(net, r.mapped))
        << "seed " << seed;
  }
}

TEST(MappedEquivalence, BindsSourcePisByName) {
  // The same asymmetric functions with the source's PIs declared in another
  // order: only a by-name binding of the mapped subject's PIs accepts it.
  const std::string body =
      "\n.outputs f g\n.names a b c f\n10- 1\n--1 1\n"
      ".names a c g\n01 1\n.end\n";
  Network source = read_blif_string(".model t\n.inputs a b c" + body);
  const Network permuted = read_blif_string(".model t\n.inputs c a b" + body);
  prepare_network(source);
  const Network subject = decompose_network(source, {}).network;
  const MapResult r = map_network(subject, standard_library(), {});
  EXPECT_TRUE(verify::mapped_network_equivalent(source, r.mapped));
  EXPECT_TRUE(verify::mapped_network_equivalent(permuted, r.mapped));
}

TEST(MappedEquivalence, RejectsCorruptedPoBinding) {
  Network subject;
  MapResult r = map_random_circuit(7, subject);
  Network net = testing::random_network(7);
  ASSERT_TRUE(verify::mapped_network_equivalent(net, r.mapped));
  // Swap two PO drivers — must be caught unless they coincide.
  ASSERT_GE(r.mapped.po_signal.size(), 2u);
  if (r.mapped.po_signal[0] == r.mapped.po_signal[1]) GTEST_SKIP();
  std::swap(r.mapped.po_signal[0], r.mapped.po_signal[1]);
  EXPECT_FALSE(verify::mapped_network_equivalent(net, r.mapped));
}

TEST(MappedEquivalence, RejectsCorruptedGateChoice) {
  Network subject;
  MapResult r = map_random_circuit(9, subject);
  Network net = testing::random_network(9);
  ASSERT_TRUE(verify::mapped_network_equivalent(net, r.mapped));
  // Swap some single-input gate's cell between inverter and buffer: the
  // opposite polarity flips that signal.
  const Library& lib = standard_library();
  for (MappedGateInst& g : r.mapped.gates) {
    if (g.gate->num_inputs() != 1) continue;
    g.gate = g.gate->name == "buf2" ? &lib.inverter() : lib.find("buf2");
    ASSERT_NE(g.gate, nullptr);
    EXPECT_FALSE(verify::mapped_network_equivalent(net, r.mapped));
    return;
  }
  GTEST_SKIP() << "mapping used no single-input cells";
}

TEST(ExhaustiveProbabilities, MatchesHelperOracle) {
  Rng rng(5);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Network net = testing::random_network(seed);
    const std::vector<double> pi_p1 =
        testing::random_probs(rng, static_cast<int>(net.pis().size()));
    const auto a = verify::exhaustive_signal_probabilities(net, pi_p1);
    const auto b = testing::brute_force_probabilities(net, pi_p1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_NEAR(a[i], b[i], 1e-12) << "node " << i << " seed " << seed;
  }
}

TEST(MonteCarloPower, IsDeterministicInSeed) {
  Network subject;
  const MapResult r = map_random_circuit(13, subject);
  const PowerParams params = PowerParams::from(MapOptions{});
  const auto a = verify::monte_carlo_power(r.mapped, params, 500, 99);
  const auto b = verify::monte_carlo_power(r.mapped, params, 500, 99);
  EXPECT_EQ(a.power_uw, b.power_uw);
  EXPECT_EQ(a.stderr_uw, b.stderr_uw);
  const auto c = verify::monte_carlo_power(r.mapped, params, 500, 100);
  EXPECT_NE(a.power_uw, c.power_uw);
}

TEST(MonteCarloPower, ConvergesToAnalyticPower) {
  for (const CircuitStyle style :
       {CircuitStyle::kStatic, CircuitStyle::kDynamicP,
        CircuitStyle::kDynamicN}) {
    Network net = testing::random_network(17);
    prepare_network(net);
    NetworkDecompOptions d;
    d.style = style;
    const Network subject = decompose_network(net, d).network;
    MapOptions m;
    m.style = style;
    const MapResult r = map_network(subject, standard_library(), m);
    const PowerParams params = PowerParams::from(m);
    const MappedReport analytic = evaluate_mapped(r.mapped, params);
    const auto mc = verify::monte_carlo_power(r.mapped, params, 4000, 31);
    EXPECT_GT(mc.stderr_uw, 0.0);
    EXPECT_NEAR(mc.power_uw, analytic.power_uw, 6.0 * mc.stderr_uw + 1e-9)
        << "style " << static_cast<int>(style);
  }
}

TEST(ReferenceCosts, LengthLimitedMatchesKnownValues) {
  // Uniform weights at the balanced bound: every leaf at depth ceil(log2 n).
  EXPECT_NEAR(verify::reference_length_limited_cost({1, 1, 1, 1}, 2), 8.0,
              1e-12);
  // Skewed weights, generous bound: plain Huffman depths {1,2,3,3}.
  EXPECT_NEAR(
      verify::reference_length_limited_cost({0.5, 0.25, 0.15, 0.1}, 3),
      0.5 * 1 + 0.25 * 2 + 0.15 * 3 + 0.1 * 3, 1e-12);
  // Same weights squeezed to L=2: forced balanced, cost 2.
  EXPECT_NEAR(
      verify::reference_length_limited_cost({0.5, 0.25, 0.15, 0.1}, 2), 2.0,
      1e-12);
}

TEST(ReferenceCosts, PlainTreeEnumerationAgreesWithBranchAndBound) {
  Rng rng(23);
  for (int n = 2; n <= 6; ++n) {
    const std::vector<double> probs = testing::random_probs(rng, n);
    for (const GateType gate : {GateType::kAnd, GateType::kOr}) {
      for (const CircuitStyle style :
           {CircuitStyle::kStatic, CircuitStyle::kDynamicP,
            CircuitStyle::kDynamicN}) {
        const DecompModel model(gate, style);
        const double bb =
            best_tree_exhaustive(probs, model).internal_cost(model, probs);
        const double plain = verify::reference_best_tree_cost(probs, model);
        EXPECT_NEAR(bb, plain, 1e-9) << "n=" << n;
      }
    }
  }
}

TEST(ReferenceCosts, HeightBoundTightensTheOptimum) {
  const std::vector<double> probs{0.9, 0.8, 0.2, 0.1, 0.5};
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  const double unbounded = verify::reference_best_tree_cost(probs, model);
  const double bounded =
      verify::reference_best_tree_cost(probs, model, balanced_height(5));
  EXPECT_GE(bounded, unbounded - 1e-12);
}

TEST(VerifyHarness, SeededRunIsCleanAndDeterministic) {
  VerifyOptions o;
  o.seed = 77;
  o.count = 10;
  o.mc_samples = 400;
  const VerifyReport a = verify::run_verification(o);
  EXPECT_TRUE(a.ok()) << (a.failures.empty() ? ""
                                             : a.failures.front().detail);
  EXPECT_EQ(a.circuits, 10);
  EXPECT_GT(a.equivalence_checks, 0);
  EXPECT_GT(a.activity_checks, 0);
  EXPECT_GT(a.monte_carlo_checks, 0);
  EXPECT_GT(a.tree_checks, 0);
  EXPECT_GT(a.curve_checks, 0);

  const VerifyReport b = verify::run_verification(o);
  EXPECT_EQ(a.equivalence_checks, b.equivalence_checks);
  EXPECT_EQ(a.tree_checks, b.tree_checks);
  EXPECT_EQ(a.modified_huffman_optimal, b.modified_huffman_optimal);
}

TEST(VerifyHarness, CheckTogglesLimitScope) {
  VerifyOptions o;
  o.seed = 5;
  o.count = 3;
  o.check_circuits = false;
  o.check_curves = false;
  const VerifyReport r = verify::run_verification(o);
  EXPECT_EQ(r.circuits, 0);
  EXPECT_EQ(r.curve_checks, 0);
  EXPECT_GT(r.tree_checks, 0);
}

TEST(VerifyHarness, JsonReportRoundTripsTheCounters) {
  VerifyOptions o;
  o.seed = 3;
  o.count = 2;
  o.mc_samples = 200;
  VerifyReport r = verify::run_verification(o);
  r.failures.push_back({"demo-check", 42, "synthetic failure for the test"});
  std::ostringstream os;
  verify::write_verify_json(os, o, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"minpower.verify.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"demo-check\""), std::string::npos);
  EXPECT_NE(json.find("minpower verify --seed 42 --count 1"),
            std::string::npos);
}

}  // namespace
}  // namespace minpower
