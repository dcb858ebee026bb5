#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "helpers.hpp"
#include "io/mapped_blif.hpp"
#include "map/mapper.hpp"
#include "match_reference.hpp"
#include "power/report.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

Network decomposed(std::uint64_t seed, int pi = 6, int nodes = 12, int po = 3) {
  Network raw = testing::random_network(seed, pi, nodes, po);
  NetworkDecompOptions d;
  return decompose_network(raw, d).network;
}

// MapResult::mapped points into the subject, so map_network must reject a
// temporary one: `map_network(make_subject(seed), lib, o)` once compiled and
// left the result dangling.
template <class Subject>
concept Mappable = requires(Subject&& s, const Library& lib,
                            const MapOptions& o) {
  map_network(std::forward<Subject>(s), lib, o);
};
template <class Subject>
concept MappableWithMatches = requires(Subject&& s, const Library& lib,
                                       const MapOptions& o,
                                       const SubjectMatches& m) {
  map_network(std::forward<Subject>(s), lib, o, m);
};

TEST(Mapper, TemporarySubjectDoesNotCompile) {
  static_assert(Mappable<Network&> && Mappable<const Network&>);
  static_assert(MappableWithMatches<Network&> &&
                MappableWithMatches<const Network&>);
  static_assert(!Mappable<Network> && !Mappable<const Network>);
  static_assert(!MappableWithMatches<Network> &&
                !MappableWithMatches<const Network>);
}

TEST(Mapper, MapsTinyAnd) {
  Network net("tiny");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  const NodeId i = net.add_inv(n);
  net.add_po("f", i);

  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_GE(r.mapped.num_gates(), 1u);
  // The and2 single-gate cover should win on power (fewest exposed nets).
  EXPECT_LE(r.mapped.num_gates(), 2u);
  EXPECT_TRUE(r.mapped.eval({true, true})[0]);
  EXPECT_FALSE(r.mapped.eval({true, false})[0]);
}

TEST(Mapper, PoDrivenByPiNeedsNoGate) {
  Network net("wirepo");
  const NodeId a = net.add_pi("a");
  net.add_po("f", a);
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_EQ(r.mapped.num_gates(), 0u);
  EXPECT_TRUE(r.mapped.eval({true})[0]);
}

// Property: mapping preserves function for both objectives and both DAG
// heuristics, on random decomposed networks.
struct MapCase {
  MapObjective objective;
  DagHeuristic dag;
};

class MapperFunction
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MapperFunction, PreservesFunction) {
  const auto [seed_int, mode] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_int);
  Network net = decomposed(seed + 40, 6, 10, 3);
  MapOptions o;
  o.objective = (mode & 1) ? MapObjective::kArea : MapObjective::kPower;
  o.dag = (mode & 2) ? DagHeuristic::kTreePartition
                     : DagHeuristic::kFanoutDivision;
  const MapResult r = map_network(net, standard_library(), o);
  r.mapped.check();

  // Compare on random vectors.
  Rng rng(seed * 3 + 7);
  const std::size_t npis = net.pis().size();
  for (int t = 0; t < 60; ++t) {
    std::vector<bool> pi(npis);
    for (std::size_t i = 0; i < npis; ++i) pi[i] = rng.coin();
    EXPECT_EQ(r.mapped.eval(pi), net.eval(pi)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MapperFunction,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Range(0, 4)));

TEST(Mapper, AreaObjectiveGivesSmallerOrEqualArea) {
  double area_obj = 0.0;
  double power_obj = 0.0;
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    Network net = decomposed(seed, 7, 14, 3);
    MapOptions oa;
    oa.objective = MapObjective::kArea;
    MapOptions op;
    op.objective = MapObjective::kPower;
    const MapResult ra = map_network(net, standard_library(), oa);
    const MapResult rp = map_network(net, standard_library(), op);
    area_obj += ra.mapped.total_area();
    power_obj += rp.mapped.total_area();
  }
  EXPECT_LE(area_obj, power_obj * 1.02);
}

TEST(Mapper, PowerObjectiveGivesLowerOrEqualPower) {
  double p_area_mapped = 0.0;
  double p_power_mapped = 0.0;
  for (std::uint64_t seed = 80; seed < 92; ++seed) {
    Network net = decomposed(seed, 7, 14, 3);
    MapOptions oa;
    oa.objective = MapObjective::kArea;
    MapOptions op;
    op.objective = MapObjective::kPower;
    const MapResult ra = map_network(net, standard_library(), oa);
    const MapResult rp = map_network(net, standard_library(), op);
    p_area_mapped += evaluate_mapped(ra.mapped, PowerParams::from(oa)).power_uw;
    p_power_mapped += evaluate_mapped(rp.mapped, PowerParams::from(op)).power_uw;
  }
  EXPECT_LE(p_power_mapped, p_area_mapped * 1.01);
}

TEST(Mapper, UnconstrainedIsCheapestPolicy) {
  Network net = decomposed(99, 7, 14, 3);
  MapOptions tight;
  tight.policy = RequiredTimePolicy::kMinDelay;
  MapOptions loose;
  loose.policy = RequiredTimePolicy::kUnconstrained;
  const MapResult rt = map_network(net, standard_library(), tight);
  const MapResult rl = map_network(net, standard_library(), loose);
  const double pt_uw =
      evaluate_mapped(rt.mapped, PowerParams::from(tight)).power_uw;
  const double pl_uw =
      evaluate_mapped(rl.mapped, PowerParams::from(loose)).power_uw;
  EXPECT_LE(pl_uw, pt_uw * 1.001);
  // And the tight mapping should be at least as fast.
  const double dt = evaluate_mapped(rt.mapped, PowerParams::from(tight)).delay;
  const double dl = evaluate_mapped(rl.mapped, PowerParams::from(loose)).delay;
  EXPECT_LE(dt, dl * 1.10 + 0.5);
}

TEST(Mapper, EpsilonPruningTradesCurveSizeForQuality) {
  Network net = decomposed(123, 7, 16, 3);
  MapOptions fine;
  fine.epsilon_t = 0.0;
  MapOptions coarse;
  coarse.epsilon_t = 1.0;
  const MapResult rf = map_network(net, standard_library(), fine);
  const MapResult rc = map_network(net, standard_library(), coarse);
  EXPECT_GE(rf.total_curve_points, rc.total_curve_points);
  const double pf = evaluate_mapped(rf.mapped, PowerParams::from(fine)).power_uw;
  const double pc =
      evaluate_mapped(rc.mapped, PowerParams::from(coarse)).power_uw;
  EXPECT_LE(pf, pc * 1.25);  // coarse pruning cannot be drastically better
}

TEST(Mapper, ExplicitRequiredTimesAreUsed) {
  Network net = decomposed(321, 6, 10, 2);
  MapOptions o;
  o.po_required.assign(net.pos().size(), 1000.0);  // hopelessly loose
  const MapResult r = map_network(net, standard_library(), o);
  for (double x : r.po_required_used) EXPECT_DOUBLE_EQ(x, 1000.0);
}

TEST(Mapper, EveryPoIsDriven) {
  Network net = decomposed(555, 6, 12, 4);
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  ASSERT_EQ(r.mapped.po_signal.size(), net.pos().size());
  for (std::size_t i = 0; i < net.pos().size(); ++i)
    EXPECT_EQ(r.mapped.po_signal[i], net.pos()[i].driver);
}

TEST(Mapper, ConstantPoNeedsNoGate) {
  Network net("constpo");
  net.add_pi("a");
  const NodeId one = net.add_constant(true, "one");
  net.add_po("f", one);
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_EQ(r.mapped.num_gates(), 0u);
  EXPECT_TRUE(r.mapped.eval({false})[0]);
  const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(o));
  EXPECT_DOUBLE_EQ(rep.power_uw, 0.0);  // constant net: zero activity
  EXPECT_DOUBLE_EQ(rep.delay, 0.0);
}

TEST(Mapper, SharedLogicMappedOnceInDagMode) {
  // A NAND read by two POs must be emitted as one gate, not duplicated.
  Network net("shared");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  net.add_po("f", n);
  net.add_po("g", n);
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_EQ(r.mapped.num_gates(), 1u);
  EXPECT_EQ(r.mapped.po_signal[0], r.mapped.po_signal[1]);
}

TEST(Mapper, DeepInverterChainsMapAsInverters) {
  // Odd-length INV chains cannot be collapsed; the mapper must still cover
  // them (possibly pairing into buffers is not available — inv only).
  Network net("chain");
  NodeId x = net.add_pi("a");
  for (int i = 0; i < 7; ++i) x = net.add_inv(x);
  net.add_po("f", x);
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_GE(r.mapped.num_gates(), 1u);
  EXPECT_TRUE(r.mapped.eval({true})[0] == false);  // odd inversions
}

TEST(Mapper, MatchesAndCurvesAccumulate) {
  Network net = decomposed(778, 6, 12, 3);
  ASSERT_GT(net.num_internal(), 0u) << "degenerate circuit; pick another seed";
  MapOptions o;
  const MapResult r = map_network(net, standard_library(), o);
  EXPECT_GT(r.total_matches, net.num_internal());
  EXPECT_GT(r.total_curve_points, 0u);
}


// Mapper output pinned on seeded subjects. The values were recorded from
// the breakpoint-by-breakpoint curve DP (one upper_bound per pin and one
// insert per point); the monotone sweep with one envelope merge per match
// must reproduce every bit of them, ties included.
struct PinnedMapping {
  std::uint64_t seed;
  int variant;  // 0-5: Methods I-VI; 6-9: Method IV with one option changed
  std::size_t curve_points;
  std::size_t matches;
  double area;
  double delay;
  double power_uw;
};

constexpr PinnedMapping kPinnedMappings[] = {
    {3, 0, 2079, 831, 203, 29.968000000000004, 221.90988159179688},
    {3, 1, 1661, 1132, 192, 32.662000000000006, 207.44161987304688},
    {3, 2, 1683, 912, 202, 29.873000000000005, 221.26083374023438},
    {3, 3, 2811, 831, 220, 30.495000000000005, 215.73383331298828},
    {3, 4, 3702, 1132, 216, 33.757000000000005, 197.79339599609375},
    {3, 5, 2928, 912, 223, 33.546000000000006, 210.27458190917969},
    {3, 6, 2519, 831, 220, 30.495000000000005, 215.73383331298828},
    {3, 7, 2982, 831, 220, 30.495000000000005, 215.73383331298828},
    {3, 8, 2439, 831, 228, 30.497, 234.14523315429688},
    {3, 9, 2312, 831, 220, 30.495000000000005, 215.73383331298828},
    {17, 0, 2539, 919, 261, 54.533000000000001, 249.98648071289062},
    {17, 1, 1314, 1110, 260, 54.708999999999982, 249.10525512695312},
    {17, 2, 2405, 1000, 262, 54.772999999999989, 249.7991943359375},
    {17, 3, 6284, 919, 278, 55.531999999999989, 239.09521484375},
    {17, 4, 10610, 1110, 279, 57.650999999999982, 239.63629150390625},
    {17, 5, 5576, 1000, 281, 55.887999999999998, 237.97793579101562},
    {17, 6, 6103, 919, 278, 55.531999999999989, 239.09521484375},
    {17, 7, 16874, 919, 278, 55.531999999999989, 239.09521484375},
    {17, 8, 7034, 919, 274, 56.04399999999999, 240.3548583984375},
    {17, 9, 5518, 919, 278, 55.531999999999989, 239.09521484375},
    {42, 0, 1888, 735, 252, 43.350000000000001, 269.25569534301758},
    {42, 1, 2620, 819, 250, 43.984000000000009, 267.0228271484375},
    {42, 2, 2184, 806, 249, 44.041000000000004, 266.658935546875},
    {42, 3, 3638, 735, 261, 43.860000000000007, 258.55160140991211},
    {42, 4, 3492, 819, 267, 43.462000000000003, 253.38687705993652},
    {42, 5, 4039, 806, 269, 44.660000000000011, 258.49903678894043},
    {42, 6, 4676, 735, 261, 43.860000000000007, 258.55160140991211},
    {42, 7, 6309, 735, 261, 43.860000000000007, 258.55160140991211},
    {42, 8, 1382, 735, 263, 43.551000000000002, 262.78134155273438},
    {42, 9, 2745, 735, 261, 43.620000000000005, 260.57384872436523},
};

TEST(Mapper, OutputMatchesPinnedValues) {
  for (const PinnedMapping& want : kPinnedMappings) {
    Network net = testing::random_network(want.seed, 12, 60, 5);
    prepare_network(net);
    const Method method =
        static_cast<Method>(want.variant < 6 ? want.variant : 3);
    const FlowOptions fo;
    const Network subject =
        decompose_network(net, decomp_options_for(method, fo)).network;
    MapOptions o = map_options_for(method, fo);
    if (want.variant == 6) {
      o.epsilon_t = 0.0;
      o.epsilon_c = 0.0;
      o.max_curve_points = 64;
    }
    if (want.variant == 7) o.epsilon_c = 0.0;
    if (want.variant == 8) o.accounting = PowerAccounting::kMethod2;
    if (want.variant == 9) o.dag = DagHeuristic::kTreePartition;
    const MapResult r = map_network(subject, standard_library(), o);
    const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(o));
    SCOPED_TRACE("seed " + std::to_string(want.seed) + " variant " +
                 std::to_string(want.variant));
    EXPECT_EQ(r.total_curve_points, want.curve_points);
    EXPECT_EQ(r.total_matches, want.matches);
    EXPECT_EQ(rep.area, want.area);
    EXPECT_EQ(rep.delay, want.delay);
    EXPECT_EQ(rep.power_uw, want.power_uw);
  }
}

// The mapper's output is pinned netlist by netlist: each row holds the
// digests of the six methods' mapped BLIF (write_mapped_blif_string, so the
// realised gates, their pin orders and the netlist order all count) for
// one prepared circuit: the 17-circuit suite with exact curves, and the
// 100-gate chain/cone/mesh points (seed 7) with the scale sweeps' curve
// cap of 64. A change to the curve DP's bookkeeping (match storage, sweep
// order, tie handling) must leave every digest unchanged; a moved digest
// means the change altered a mapping. Never regenerate a row to make this
// test pass.
struct PinnedNetlists {
  const char* name;
  std::uint64_t digest[6];  // Methods I-VI
};

const std::vector<PinnedNetlists> kPinnedNetlists = {
    {"s208",
     {0x5475dbccdad86b92ULL, 0x8ecbb2835e1bfc9dULL,
      0x020a2ffb4cbee5d4ULL, 0xec11a07a4f02c209ULL,
      0x721fa3ff08d8a636ULL, 0xafe4710b4a98814bULL}},
    {"s344",
     {0xee138daf903ff689ULL, 0xacc76468c9884a56ULL,
      0xbc2da6ce7422f2dbULL, 0xe05276c2a9050f6fULL,
      0xedce261026f68c55ULL, 0x7bbc45e391e82634ULL}},
    {"s382",
     {0x35dc6b389a6b26f7ULL, 0x0fc294b2789959deULL,
      0xa95d76e8eb5ca3d6ULL, 0xb85f5ac344343bedULL,
      0x103f986399a2d4e1ULL, 0xa589fe3e104a164aULL}},
    {"s444",
     {0x7d8eb3dadadda9abULL, 0x3e848e44092a4590ULL,
      0xde2ee8c0f650f1f8ULL, 0x9ede5a49361b800bULL,
      0x83a1d4b9c41ea67bULL, 0x08e91ac0330c8a57ULL}},
    {"s510",
     {0x0fa32e497a90152fULL, 0x3f3281640f8a9718ULL,
      0x4aba97b6312b2630ULL, 0x813d002311e8dd22ULL,
      0x89a23bda6ea9245aULL, 0x080e3031e54f554dULL}},
    {"s526",
     {0x6dd1ca085d54caf4ULL, 0xa65ec056cb9e5d93ULL,
      0x6be3ad1e76d15de6ULL, 0xcc38bdb20edd07e9ULL,
      0xfd3dd541ffbce313ULL, 0xd0e6d02034dc31acULL}},
    {"s641",
     {0xcbfd941ecc7daddcULL, 0xce8e672eb3051fb4ULL,
      0x13986883eaaa6cb8ULL, 0x62b063c9a0b178faULL,
      0xc7376d8064722f8aULL, 0x9e5ad9c16c50ffe9ULL}},
    {"s713",
     {0x5e6459dc1d29455dULL, 0xd639e34c54ab3eeaULL,
      0x4c7fd0c006ff1ccaULL, 0x6a4e7a58e67a2699ULL,
      0x3e9506bb85c0f580ULL, 0x21418aeb6110472cULL}},
    {"s820",
     {0xdf88f79cdf27ad90ULL, 0x3279d68e87fc0413ULL,
      0xc5776c1490e22dadULL, 0x2f7de7e5699c9ae5ULL,
      0xe38125914a80941eULL, 0xe8339af8bfe1e016ULL}},
    {"cm42a",
     {0xcd54f18b89be2128ULL, 0x235adfa082bd98b5ULL,
      0x235adfa082bd98b5ULL, 0x0b0c8504cd7e1faeULL,
      0xe07f40ac962f111bULL, 0xe07f40ac962f111bULL}},
    {"x1",
     {0x7ed1d97d604d8432ULL, 0x386da8fb3d68200eULL,
      0xeeed5075389bede6ULL, 0x3a3ded5966d9ae6aULL,
      0x1bd53e3b7d2362cfULL, 0xca5b8b6745696432ULL}},
    {"x2",
     {0x99958f13521f6073ULL, 0xee66a0c29c429ab7ULL,
      0x2984d0af9c80c44aULL, 0xc5af7bd3bdf1fc58ULL,
      0x9ac1fa0d117cce7aULL, 0xcf3d6d2441711219ULL}},
    {"x3",
     {0x532afdeb0013f4a6ULL, 0x9ba7b83a85af45a5ULL,
      0xd318045309e53a48ULL, 0x942c75ff22870a58ULL,
      0xe6c710242e5c0ee4ULL, 0x258a4e22e789844fULL}},
    {"ttt2",
     {0x483e024e797d20ccULL, 0xd5bb3acf6e1457fcULL,
      0xcea6b523020121f9ULL, 0x3634d8a479bbbb8cULL,
      0xb8f528c7a7887aa3ULL, 0x6f1637b86099247cULL}},
    {"apex7",
     {0x6ba3a12c50ae1702ULL, 0x104c41da04c394fbULL,
      0x6fb26b80a6abc398ULL, 0xcd2a1911568f29b6ULL,
      0x713b42da957668d9ULL, 0x485128ca6f8486ecULL}},
    {"alu2",
     {0x561090b5c1c43c23ULL, 0x95a1ab056730437eULL,
      0x2452f1ea89679a5bULL, 0x34b1ddc49803e7c4ULL,
      0xf6feba9f62c95657ULL, 0x3b37516585b3ee91ULL}},
    {"ex2",
     {0xf178c003acd1dea5ULL, 0x0defb5af665cd07dULL,
      0x5e7d6fba4110bb1dULL, 0x0b0556cf864248d6ULL,
      0x53ac8527408fcc2bULL, 0x7b7d6dcd528a5d31ULL}},
    {"chain-100",
     {0x062dfeaa0756738dULL, 0x062dfeaa0756738dULL,
      0x062dfeaa0756738dULL, 0x2b7598f4f5a4e394ULL,
      0x2b7598f4f5a4e394ULL, 0x2b7598f4f5a4e394ULL}},
    {"cone-100",
     {0x7c180112a3a0cbb9ULL, 0xe4419d880f454c44ULL,
      0x335a3a13c1c59755ULL, 0xb1d4036daccc3c49ULL,
      0xea14b3d1148c274eULL, 0xfebfb98d1f808d9eULL}},
    {"mesh-100",
     {0x71211954133932adULL, 0x4643e8a19954991cULL,
      0xcdb406692ed0f7afULL, 0x1c1bbf993bd1d1d6ULL,
      0xa2aac1a63c7c74f3ULL, 0x3f780a55015b2f92ULL}},
};

TEST(Mapper, MappedNetlistsArePinned) {
  std::vector<std::pair<Network, std::size_t>> inputs;  // (circuit, cap)
  for (const BenchProfile& p : paper_suite())
    inputs.emplace_back(generate_benchmark(p), 0);
  for (const std::string& family : scale_families())
    inputs.emplace_back(generate_scale_benchmark({family, 100, 7}), 64);
  ASSERT_EQ(inputs.size(), kPinnedNetlists.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Network& net = inputs[i].first;
    prepare_network(net);
    FlowOptions fo;
    fo.max_curve_points = inputs[i].second;
    const PinnedNetlists& want = kPinnedNetlists[i];
    EXPECT_EQ(net.name(), want.name);
    // Methods m and m + 3 share a decomposition and its activities.
    for (int m = 0; m < 3; ++m) {
      const Network subject =
          decompose_network(net, decomp_options_for(static_cast<Method>(m),
                                                    fo))
              .network;
      const SubjectMatches matches =
          enumerate_matches(subject, standard_library());
      const std::vector<double> activities =
          switching_activities(subject, fo.style, fo.pi_prob1);
      for (const int method : {m, m + 3}) {
        MapOptions o = map_options_for(static_cast<Method>(method), fo);
        o.activities = activities;
        const MapResult r =
            map_network(subject, standard_library(), o, matches);
        StreamHash h;
        h.str(write_mapped_blif_string(r.mapped));
        EXPECT_EQ(h.digest().fold(), want.digest[method])
            << net.name() << " method "
            << method_name(static_cast<Method>(method));
      }
    }
  }
}

/// The subject and options of one kPinnedMappings row.
struct PinnedCase {
  Network subject;
  MapOptions options;
};

PinnedCase pinned_case(const PinnedMapping& want) {
  Network net = testing::random_network(want.seed, 12, 60, 5);
  prepare_network(net);
  const Method method =
      static_cast<Method>(want.variant < 6 ? want.variant : 3);
  const FlowOptions fo;
  PinnedCase c{decompose_network(net, decomp_options_for(method, fo)).network,
               map_options_for(method, fo)};
  if (want.variant == 6) {
    c.options.epsilon_t = 0.0;
    c.options.epsilon_c = 0.0;
    c.options.max_curve_points = 64;
  }
  if (want.variant == 7) c.options.epsilon_c = 0.0;
  if (want.variant == 8) c.options.accounting = PowerAccounting::kMethod2;
  if (want.variant == 9) c.options.dag = DagHeuristic::kTreePartition;
  return c;
}

// Matches depend only on the subject: one enumerate_matches list, shared by
// every mapping of a subject as the flow engine shares it between a
// method pair, maps exactly as the enumerating form does.
TEST(Mapper, SharedMatchesMapLikeTheEnumeratingForm) {
  for (const PinnedMapping& want : kPinnedMappings) {
    const PinnedCase c = pinned_case(want);
    SCOPED_TRACE("seed " + std::to_string(want.seed) + " variant " +
                 std::to_string(want.variant));
    const SubjectMatches shared =
        enumerate_matches(c.subject, standard_library());
    const MapResult a = map_network(c.subject, standard_library(), c.options);
    const MapResult b =
        map_network(c.subject, standard_library(), c.options, shared);
    EXPECT_EQ(b.total_matches, want.matches);
    EXPECT_EQ(b.total_matches, a.total_matches);
    EXPECT_EQ(b.total_curve_points, a.total_curve_points);
    EXPECT_EQ(b.max_curve_points, a.max_curve_points);
    EXPECT_EQ(b.po_required_used, a.po_required_used);
    ASSERT_EQ(b.mapped.gates.size(), a.mapped.gates.size());
    for (std::size_t i = 0; i < a.mapped.gates.size(); ++i) {
      EXPECT_EQ(b.mapped.gates[i].gate, a.mapped.gates[i].gate) << i;
      EXPECT_EQ(b.mapped.gates[i].root, a.mapped.gates[i].root) << i;
      EXPECT_EQ(b.mapped.gates[i].pin_nodes, a.mapped.gates[i].pin_nodes)
          << i;
    }
    EXPECT_EQ(b.mapped.po_signal, a.mapped.po_signal);
  }
}

// The mapper builds one candidate list per (input node, pin timing) and
// reuses it for every pin with the same (intrinsic, drive, cap). In this
// library nand2_fast/nand2_slow differ only in pin intrinsic delay,
// and2_strong/and2_weak only in pin drive and nor2/nor2_light only in pin
// capacitance (areas differ so both stay on the curves), so a memo key
// missing any field hands one gate the other's pin timing. Values recorded
// before the memo existed.
constexpr const char* kTimingPairsGenlib =
    "GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.3 0.5 0.3 0.5\n"
    "GATE nand2_fast 3.0 O=!(a*b); PIN * INV 1.0 999 0.4 0.6 0.4 0.6\n"
    "GATE nand2_slow 2.0 O=!(a*b); PIN * INV 1.0 999 1.1 0.6 1.1 0.6\n"
    "GATE and2_strong 4.0 O=a*b; PIN * NONINV 1.0 999 0.7 0.3 0.7 0.3\n"
    "GATE and2_weak 3.0 O=a*b; PIN * NONINV 1.0 999 0.7 1.2 0.7 1.2\n"
    "GATE nor2 2.5 O=!(a+b); PIN * INV 1.2 999 0.6 0.8 0.6 0.8\n"
    "GATE nor2_light 3.5 O=!(a+b); PIN * INV 0.7 999 0.6 0.8 0.6 0.8\n";

struct PinnedTimingPairs {
  MapObjective objective;
  std::size_t curve_points;
  std::size_t matches;
  double area;
  double delay;
  double power_uw;
};

constexpr PinnedTimingPairs kPinnedTimingPairs[] = {
    {MapObjective::kPower, 40, 78, 72.5, 14.459999999999999, 51.8125},
    {MapObjective::kArea, 236, 78, 61.5, 16.460000000000001, 54.1171875},
};

TEST(Mapper, CandidateListMemoKeysOnPinTiming) {
  const Library lib = Library::parse_genlib(kTimingPairsGenlib, "pairs");
  const Network net = decomposed(91, 6, 14, 3);
  for (const PinnedTimingPairs& want : kPinnedTimingPairs) {
    MapOptions o;
    o.objective = want.objective;
    o.epsilon_c = 0.0;  // keep every non-inferior point
    const MapResult r = map_network(net, lib, o);
    const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(o));
    SCOPED_TRACE(want.objective == MapObjective::kPower ? "power" : "area");
    EXPECT_EQ(r.total_curve_points, want.curve_points);
    EXPECT_EQ(r.total_matches, want.matches);
    EXPECT_EQ(rep.area, want.area);
    EXPECT_EQ(rep.delay, want.delay);
    EXPECT_EQ(rep.power_uw, want.power_uw);
  }
}

// ---- the breakpoint sweep ---------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_steps(const std::vector<Curve::Step>& a,
                const std::vector<Curve::Step>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].arrival, b[i].arrival) ||
        !same_bits(a[i].cost, b[i].cost))
      return false;
  return true;
}

bool same_points(const Curve& a, const Curve& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].arrival, b[i].arrival) ||
        !same_bits(a[i].cost, b[i].cost) || a[i].match != b[i].match ||
        !same_bits(a[i].drive, b[i].drive))
      return false;
  return true;
}

/// A candidate list kept the way the mapper keeps one: sorted by t, cost
/// made a prefix minimum. t and cost come from coarse grids, so entries tie
/// in t and in cost, with steps and with curve points; `offset` makes the
/// pin reachable late. Some lists have a single entry. A `cost_unit` that
/// binary fractions cannot represent makes sums depend on their order.
std::vector<InputCand> random_cand_list(Rng& rng, double offset,
                                        double cost_unit) {
  std::vector<InputCand> l(1 + rng() % 9);
  for (InputCand& c : l) {
    c.t = offset + 0.5 * static_cast<double>(rng() % 12);
    c.cost = cost_unit * static_cast<double>(rng() % 8);
  }
  std::stable_sort(l.begin(), l.end(),
                   [](const InputCand& a, const InputCand& b) {
                     return a.t < b.t;
                   });
  for (std::size_t j = 1; j < l.size(); ++j)
    l[j].cost = std::min(l[j].cost, l[j - 1].cost);
  return l;
}

/// Oracle: at every distinct t where each pin has a candidate, base plus
/// each pin's cheapest candidate no later than t, summed in pin order; the
/// envelope keeps the t where that sum strictly drops.
std::vector<Curve::Step> brute_force_envelope(
    const std::vector<std::vector<InputCand>>& lists, double base) {
  std::vector<double> ts;
  for (const auto& l : lists)
    for (const InputCand& c : l) ts.push_back(c.t);
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  std::vector<Curve::Step> steps;
  for (const double t : ts) {
    double cost = base;
    bool reachable = true;
    for (const auto& l : lists) {
      double best = std::numeric_limits<double>::infinity();
      for (const InputCand& c : l)
        if (c.t <= t) best = std::min(best, c.cost);
      reachable = reachable && best < std::numeric_limits<double>::infinity();
      cost += best;
    }
    if (reachable && (steps.empty() || cost < steps.back().cost))
      steps.push_back({t, cost});
  }
  return steps;
}

/// The sweep of a single match whose pin i reads `pins[i]`: a one-member
/// class whose steps rank after every point of `curve`, as when matches
/// are swept and merged one by one in index order.
void sweep_match(std::span<const std::vector<InputCand>* const> pins,
                 double base, const Curve* curve,
                 std::vector<Curve::Step>& steps) {
  std::vector<std::uint32_t> order(pins.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  const int member = std::numeric_limits<int>::max();
  sweep_class({pins, {&member, 1}, order}, base, curve, steps);
}

// A one-member class sweep must reproduce the brute-force envelope bit for
// bit on every pin count, and the dominance filter must drop only steps Curve::merge
// drops: merging the filtered steps gives the curve that merging all of them
// does.
TEST(MapSweep, MatchesBruteForceEnvelope) {
  Rng rng(20261017);
  std::size_t filtered = 0;
  std::size_t late_pins = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t k = 1 + static_cast<std::size_t>(round) % 4;
    const double cost_unit = round / 4 % 2 == 0 ? 0.25 : 0.1;
    std::vector<std::vector<InputCand>> lists;
    for (std::size_t i = 0; i < k; ++i) {
      const bool late = k > 1 && rng() % 4 == 0;
      if (late) ++late_pins;
      lists.push_back(random_cand_list(rng, late ? 5.0 : 0.0, cost_unit));
    }
    std::vector<const std::vector<InputCand>*> pins;
    for (const auto& l : lists) pins.push_back(&l);
    const double base = cost_unit * static_cast<double>(rng() % 3);

    Curve curve;  // the node's curve before this match's merge
    for (std::uint64_t n = rng() % 8; n > 0; --n) {
      CurvePoint p;
      p.arrival = 0.5 * static_cast<double>(rng() % 24);
      p.cost = cost_unit * static_cast<double>(rng() % 40);
      p.match = static_cast<int>(n);
      p.drive = 0.125 * static_cast<double>(n);
      curve.insert(p);
    }

    SCOPED_TRACE("round " + std::to_string(round) + ", " + std::to_string(k) +
                 " pins");
    std::vector<Curve::Step> all;
    sweep_match(pins, base, nullptr, all);
    ASSERT_TRUE(same_steps(all, brute_force_envelope(lists, base)));

    std::vector<Curve::Step> kept;
    sweep_match(pins, base, &curve, kept);
    filtered += all.size() - kept.size();

    std::vector<CurvePoint> scratch;
    const auto realize = [](std::size_t, CurvePoint& p) {
      p.match = 100;
      p.drive = 2.5;
    };
    Curve plain = curve;
    plain.merge(all, scratch, realize);
    Curve filtered_merge = curve;
    filtered_merge.merge(kept, scratch, realize);
    ASSERT_TRUE(same_points(filtered_merge, plain));
  }
  // The cases above exercise the filter and the late pins.
  EXPECT_GT(filtered, 1000u);
  EXPECT_GT(late_pins, 500u);
}

// ---- duplicate-class sweeps --------------------------------------------------

/// `l` with each cost nudged one ULP down, one up or not at all, then made
/// a prefix minimum again.
void nudge_costs(Rng& rng, std::vector<InputCand>& l) {
  for (InputCand& c : l) {
    const std::uint64_t way = rng() % 3;
    if (way == 0) c.cost = std::nextafter(c.cost, -1.0);
    if (way == 1) c.cost = std::nextafter(c.cost, 1e9);
  }
  for (std::size_t j = 1; j < l.size(); ++j)
    l[j].cost = std::min(l[j].cost, l[j - 1].cost);
}

/// One node's matches as the curve DP meets them: match i reads
/// `lists[order[i][p]]` at pin p and realizes with drive `drive[i]`.
/// Matches with `cls[i] == c` form a duplicate class, c being its first
/// member; the rest are classes of their own.
struct NodeMatches {
  std::vector<std::vector<InputCand>> lists;
  std::vector<std::vector<std::uint32_t>> order;
  std::vector<double> drive;
  std::vector<std::size_t> cls;
};

/// Merges every match's brute-force envelope in index order, each ranking
/// after the points already on the curve: the reference, which shares no
/// code with the sweep.
Curve sweep_members(const NodeMatches& node, double base) {
  Curve curve;
  std::vector<CurvePoint> scratch;
  for (std::size_t i = 0; i < node.order.size(); ++i) {
    std::vector<std::vector<InputCand>> pins;
    for (const std::uint32_t l : node.order[i]) pins.push_back(node.lists[l]);
    const std::vector<Curve::Step> steps = brute_force_envelope(pins, base);
    curve.merge(steps, scratch, [&](std::size_t, CurvePoint& p) {
      p.match = static_cast<int>(i);
      p.drive = node.drive[i];
    });
  }
  return curve;
}

/// Sweeps each class once, at its first member, as build_curves does;
/// `leader_only` sums every breakpoint in the first member's order alone.
Curve sweep_classes(const NodeMatches& node, double base, bool leader_only) {
  Curve curve;
  std::vector<Curve::Step> steps;
  std::vector<CurvePoint> scratch;
  for (std::size_t i = 0; i < node.order.size(); ++i) {
    if (node.cls[i] != i) continue;
    // The class's distinct lists, in the order its members first read them.
    std::vector<const std::vector<InputCand>*> lists;
    std::vector<int> members;
    std::vector<std::uint32_t> order;
    for (std::size_t j = i; j < node.order.size(); ++j) {
      if (node.cls[j] != i || (leader_only && j != i)) continue;
      members.push_back(static_cast<int>(j));
      for (const std::uint32_t l : node.order[j]) {
        const auto at = std::find(lists.begin(), lists.end(), &node.lists[l]);
        order.push_back(static_cast<std::uint32_t>(at - lists.begin()));
        if (at == lists.end()) lists.push_back(&node.lists[l]);
      }
    }
    sweep_class({lists, members, order}, base, &curve, steps);
    curve.merge(steps, scratch, [&](std::size_t j, CurvePoint& p) {
      p.match = steps[j].match;
      p.drive = node.drive[static_cast<std::size_t>(p.match)];
    });
  }
  return curve;
}

// A duplicate class swept once must give the node the curve that sweeping
// and merging each of its members in index order gives, bit for bit:
// arrival, cost, match and drive. The lists' costs are nudged by an ULP,
// so the members' pin-order sums differ in the last bit and the cheapest
// member varies from breakpoint to breakpoint. Matches outside the class
// sit between its members; some are "twins" that read the lists in a
// member's order at the same base, so their points tie the class's
// exactly, and the lower match must win the tie as it does in index order.
TEST(Mapper, ClassSweepEqualsMemberSweeps) {
  Rng rng(20261018);
  int leader_differs = 0;  // rounds the leader's order alone gets wrong
  int twin_wins = 0;       // rounds where a twin keeps a point of its own
  for (int round = 0; round < 3000; ++round) {
    const std::size_t k = 2 + static_cast<std::size_t>(round) % 3;
    const double unit = round % 2 == 0 ? 0.1 : 0.3;
    NodeMatches node;
    for (std::size_t p = 0; p < k; ++p) {
      node.lists.push_back(random_cand_list(rng, 0.0, unit));
      nudge_costs(rng, node.lists.back());
    }
    // Two to four members in distinct pin orders over the class's lists.
    std::vector<std::vector<std::uint32_t>> orders;
    std::vector<std::uint32_t> perm(k);
    for (std::size_t p = 0; p < k; ++p) perm[p] = static_cast<std::uint32_t>(p);
    const std::size_t members = 2 + rng() % 3;
    for (int tries = 0; orders.size() < members && tries < 50; ++tries) {
      for (std::size_t p = k - 1; p > 0; --p)
        std::swap(perm[p], perm[rng() % (p + 1)]);
      if (std::find(orders.begin(), orders.end(), perm) == orders.end())
        orders.push_back(perm);
    }
    // One to three matches outside the class: twins of a member, or
    // matches over lists of their own.
    std::vector<std::vector<std::uint32_t>> others;
    std::vector<bool> twin;
    for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) {
      twin.push_back(rng() % 2 == 0);
      if (twin.back()) {
        others.push_back(orders[rng() % orders.size()]);
        continue;
      }
      std::vector<std::uint32_t> own;
      for (std::size_t p = 0; p < k; ++p) {
        own.push_back(static_cast<std::uint32_t>(node.lists.size()));
        node.lists.push_back(random_cand_list(rng, 0.0, unit));
        nudge_costs(rng, node.lists.back());
      }
      others.push_back(own);
    }
    // Interleave: a random position for every match; the class's first
    // member is wherever the earliest of its members lands.
    std::vector<int> role(orders.size() + others.size());
    for (std::size_t i = 0; i < role.size(); ++i)
      role[i] = static_cast<int>(i);
    for (std::size_t i = role.size() - 1; i > 0; --i)
      std::swap(role[i], role[rng() % (i + 1)]);
    std::size_t first = role.size();
    for (std::size_t i = 0; i < role.size(); ++i)
      if (static_cast<std::size_t>(role[i]) < orders.size()) {
        first = std::min(first, i);
      }
    for (std::size_t i = 0; i < role.size(); ++i) {
      const auto r = static_cast<std::size_t>(role[i]);
      const bool in_class = r < orders.size();
      node.order.push_back(in_class ? orders[r] : others[r - orders.size()]);
      node.drive.push_back(in_class ? 0.5 : 0.75 + 0.25 * static_cast<double>(i));
      node.cls.push_back(in_class ? first : i);
    }
    const double base = unit * static_cast<double>(rng() % 3);

    SCOPED_TRACE("round " + std::to_string(round));
    const Curve want = sweep_members(node, base);
    ASSERT_TRUE(same_points(sweep_classes(node, base, false), want));
    if (!same_points(sweep_classes(node, base, true), want)) ++leader_differs;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto m = static_cast<std::size_t>(want[i].match);
      const auto r = static_cast<std::size_t>(role[m]);
      if (r >= orders.size() && twin[r - orders.size()]) {
        ++twin_wins;
        break;
      }
    }
  }
  // The rounds exercise both hazards: summing in one order only, and
  // twins that must win exact ties against the class.
  EXPECT_GT(leader_differs, 150);
  EXPECT_GT(twin_wins, 300);
}

// ---- the floor stop ----------------------------------------------------------

/// Every breakpoint of a class, as a sweep that never stops visits them: at
/// each distinct t where every list has a candidate, member m's cost is
/// base plus each pin's cheapest candidate meeting t, summed in its own pin
/// order `orders[m]`; the first smallest member wins.
std::vector<Curve::Step> class_breakpoints(
    const std::vector<std::vector<InputCand>>& lists,
    const std::vector<std::vector<std::uint32_t>>& orders,
    const std::vector<int>& members, double base) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ts;
  for (const auto& l : lists)
    for (const InputCand& c : l) ts.push_back(c.t);
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  std::vector<Curve::Step> out;
  for (const double t : ts) {
    std::vector<double> pick(lists.size(), inf);
    for (std::size_t i = 0; i < lists.size(); ++i)
      for (const InputCand& c : lists[i])
        if (c.t <= t) pick[i] = std::min(pick[i], c.cost);
    if (std::find(pick.begin(), pick.end(), inf) != pick.end()) continue;
    Curve::Step b{t, inf, -1};
    for (std::size_t m = 0; m < orders.size(); ++m) {
      double s = base;
      for (const std::uint32_t p : orders[m]) s += pick[p];
      if (s < b.cost) b = {t, s, members[m]};
    }
    out.push_back(b);
  }
  return out;
}

/// Whether a point of `curve` beats breakpoint `b`: no slower and no
/// dearer, and of a lower match on an exact tie.
bool curve_beats(const Curve& curve, const Curve::Step& b) {
  for (const CurvePoint& p : curve.points())
    if (p.arrival <= b.arrival &&
        (p.cost < b.cost ||
         (p.cost == b.cost && (p.arrival < b.arrival || p.match <= b.match))))
      return true;
  return false;
}

/// One random duplicate class: k candidate lists of multiples of `unit`
/// lifted off zero and ULP-nudged, one to four members in distinct pin
/// permutations at ascending match indices, and a base.
struct RandomClass {
  std::vector<std::vector<InputCand>> lists;
  std::vector<std::vector<std::uint32_t>> orders;  // member m's pin order
  std::vector<int> members;
  std::vector<std::uint32_t> order;  // `orders` end to end
  double base = 0.0;
};

RandomClass random_class(Rng& rng, std::size_t k, double unit) {
  RandomClass c;
  for (std::size_t p = 0; p < k; ++p) {
    // Lifted off zero, so the cheapest entries are multiples of unit too.
    c.lists.push_back(random_cand_list(rng, 0.0, unit));
    const double lift = unit * static_cast<double>(1 + rng() % 3);
    for (InputCand& e : c.lists.back()) e.cost += lift;
    nudge_costs(rng, c.lists.back());
  }
  std::vector<std::uint32_t> perm(k);
  for (std::size_t p = 0; p < k; ++p) perm[p] = static_cast<std::uint32_t>(p);
  const std::size_t want_members = 1 + rng() % 4;
  for (int tries = 0; c.orders.size() < want_members && tries < 50; ++tries) {
    for (std::size_t p = k - 1; p > 0; --p)
      std::swap(perm[p], perm[rng() % (p + 1)]);
    if (std::find(c.orders.begin(), c.orders.end(), perm) == c.orders.end())
      c.orders.push_back(perm);
  }
  for (int m = static_cast<int>(rng() % 3); const auto& o : c.orders) {
    c.members.push_back(m);
    m += 1 + static_cast<int>(rng() % 3);
    c.order.insert(c.order.end(), o.begin(), o.end());
  }
  c.base = unit * static_cast<double>(rng() % 3);
  return c;
}

// A class sweep stops at its cost floor, and the stop must drop no step:
// its steps equal, bit for bit, the steps filtered from every breakpoint.
// Costs are tenths, some nudged by an ULP, so the members' permuted
// pin-order sums, their floors included, differ in the last bit. The stop must come exactly at the first
// breakpoint after which the last step, or the cheapest curve point no
// slower than it, costs no more than the floor: a floor summed in the
// first member's order alone, or a stop that skips either test, moves it.
TEST(MapSweep, FloorStopKeepsEveryStep) {
  Rng rng(20261019);
  int floor_differs = 0;   // rounds whose first member's floor is not the least
  int closed_by_step = 0;  // sweeps stopped by the last step alone
  int closed_by_curve = 0;  // sweeps stopped by a curve point alone
  std::size_t unvisited = 0;  // breakpoints the stops skipped
  for (int round = 0; round < 4000; ++round) {
    const std::size_t k = 1 + static_cast<std::size_t>(round) % 4;
    const double unit = round / 4 % 2 == 0 ? 0.1 : 0.3;
    const RandomClass rc = random_class(rng, k, unit);
    const auto& [lists, orders, members, order, base] = rc;
    std::vector<const std::vector<InputCand>*> pins;
    for (const auto& l : lists) pins.push_back(&l);

    // The floor: each member's sum over the lists' last entries.
    std::vector<double> sums;
    for (const auto& o : orders) {
      double s = base;
      for (const std::uint32_t p : o) s += lists[p].back().cost;
      sums.push_back(s);
    }
    const double floor = *std::min_element(sums.begin(), sums.end());
    if (sums.front() != floor) ++floor_differs;

    const std::vector<Curve::Step> all =
        class_breakpoints(lists, orders, members, base);
    // The node's curve: random points, and copies of breakpoints (the
    // last one costs exactly the floor) at their own or an earlier
    // arrival, so exact ties with the steps and the floor are common.
    Curve curve;
    for (std::uint64_t n = rng() % 6; n > 0; --n) {
      CurvePoint p;
      if (!all.empty() && rng() % 2 == 0) {
        const Curve::Step& b = all[rng() % all.size()];
        p.arrival = b.arrival - 0.5 * static_cast<double>(rng() % 3);
        p.cost = b.cost;
      } else {
        p.arrival = 0.5 * static_cast<double>(rng() % 24);
        p.cost = unit * static_cast<double>(rng() % 40);
      }
      p.match = static_cast<int>(rng() % 12);
      curve.insert(p);
    }

    const Curve* const against[] = {nullptr, &curve};
    for (const Curve* c : against) {
      SCOPED_TRACE("round " + std::to_string(round) + ", " +
                   std::to_string(k) + " pins, " +
                   std::to_string(orders.size()) + " members" +
                   (c ? ", against a curve" : ""));
      // The reference filters every breakpoint, and finds the first after
      // which no later one can become a step.
      std::vector<Curve::Step> want;
      std::size_t visits = all.size();
      for (std::size_t b = 0; b < all.size(); ++b) {
        if ((want.empty() || all[b].cost < want.back().cost) &&
            (c == nullptr || !curve_beats(*c, all[b])))
          want.push_back(all[b]);
        if (visits < all.size() || b + 1 == all.size()) continue;
        const bool by_step = !want.empty() && want.back().cost <= floor;
        bool by_curve = false;
        if (c != nullptr)
          for (const CurvePoint& p : c->points())
            by_curve = by_curve || (p.arrival <= all[b].arrival &&
                                    p.cost <= floor);
        if (!by_step && !by_curve) continue;
        visits = b + 1;
        if (!by_curve) ++closed_by_step;
        if (!by_step) ++closed_by_curve;
      }
      unvisited += all.size() - visits;

      std::vector<Curve::Step> got;
      const SweepStats stats = sweep_class({pins, members, order}, base, c, got);
      ASSERT_TRUE(same_steps(got, want));
      for (std::size_t j = 0; j < got.size(); ++j)
        ASSERT_EQ(got[j].match, want[j].match) << "step " << j;
      ASSERT_EQ(stats.breakpoints, visits);
      ASSERT_EQ(stats.closed, visits < all.size());
    }
  }
  // The rounds exercise the ULP-distinct floors and both ways to stop.
  EXPECT_GT(floor_differs, 150);
  EXPECT_GT(closed_by_step, 1500);
  EXPECT_GT(closed_by_curve, 400);
  EXPECT_GT(unvisited, 5000u);
}

/// Sweeps the node's classes in the order `sequence` names them, each
/// against the curve merged so far, as build_curves does; class c's points
/// realize with drive `drive[c]`. Adds the breakpoints visited to `visits`.
Curve sweep_node(const std::vector<RandomClass>& classes,
                 const std::vector<double>& drive,
                 const std::vector<std::size_t>& sequence,
                 std::size_t& visits) {
  Curve curve;
  std::vector<Curve::Step> steps;
  std::vector<CurvePoint> scratch;
  for (const std::size_t c : sequence) {
    std::vector<const std::vector<InputCand>*> pins;
    for (const auto& l : classes[c].lists) pins.push_back(&l);
    visits += sweep_class({pins, classes[c].members, classes[c].order},
                          classes[c].base, &curve, steps)
                  .breakpoints;
    curve.merge(steps, scratch, [&](std::size_t j, CurvePoint& p) {
      p.match = steps[j].match;
      p.drive = drive[c];
    });
  }
  return curve;
}

// A node's curve must not depend on the order its classes are swept in:
// match-index order (by first member) and build_curves's order, cheapest
// class_floor first, must give the same curve bit for bit, match and drive
// included. Some classes are kin of an earlier one: its lists, orders and
// base with one list cut short or run on to a cheaper entry, so the two
// staircases tie exactly up to a point while their floors differ. The
// lower match must win those ties whichever class is swept first.
TEST(MapSweep, ClassOrderLeavesCurveUnchanged) {
  Rng rng(20261020);
  int reordered = 0;     // nodes whose floor order is not index order
  int kin_first = 0;     // ... where a kin of higher index goes first
  std::size_t index_visits = 0;
  std::size_t floor_visits = 0;
  for (int round = 0; round < 3000; ++round) {
    const double unit = round % 2 == 0 ? 0.1 : 0.3;
    std::vector<RandomClass> classes;
    std::vector<std::size_t> source;  // the class a kin copies, else itself
    for (std::size_t c = 0, n = 2 + rng() % 5; c < n; ++c) {
      if (c == 0 || rng() % 2 == 0) {
        classes.push_back(random_class(rng, 1 + rng() % 4, unit));
        source.push_back(c);
        continue;
      }
      source.push_back(rng() % c);
      RandomClass kin = classes[source.back()];
      std::vector<InputCand>& l = kin.lists[rng() % kin.lists.size()];
      if (l.size() > 1 && rng() % 2 == 0)
        l.pop_back();
      else
        l.push_back({l.back().t + 0.5, l.back().cost - unit});
      classes.push_back(std::move(kin));
    }
    // Interleave the classes' match indices: deal a shuffled 0..M-1 out
    // to the member slots, ascending within each class.
    std::vector<int> index;
    for (const RandomClass& c : classes)
      for (std::size_t m = 0; m < c.members.size(); ++m)
        index.push_back(static_cast<int>(index.size()));
    for (std::size_t i = index.size() - 1; i > 0; --i)
      std::swap(index[i], index[rng() % (i + 1)]);
    std::vector<double> drive;
    for (auto dealt = index.begin(); RandomClass& c : classes) {
      std::copy_n(dealt, c.members.size(), c.members.begin());
      std::sort(c.members.begin(), c.members.end());
      dealt += static_cast<std::ptrdiff_t>(c.members.size());
      drive.push_back(0.25 * static_cast<double>(1 + rng() % 8));
    }

    std::vector<std::size_t> by_index(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) by_index[c] = c;
    std::sort(by_index.begin(), by_index.end(),
              [&](std::size_t a, std::size_t b) {
                return classes[a].members[0] < classes[b].members[0];
              });
    std::vector<double> floor;
    for (const RandomClass& c : classes) {
      std::vector<const std::vector<InputCand>*> pins;
      for (const auto& l : c.lists) pins.push_back(&l);
      floor.push_back(class_floor({pins, c.members, c.order}, c.base));
    }
    std::vector<std::size_t> by_floor = by_index;
    std::sort(by_floor.begin(), by_floor.end(),
              [&](std::size_t a, std::size_t b) {
                return floor[a] != floor[b]
                           ? floor[a] < floor[b]
                           : classes[a].members[0] < classes[b].members[0];
              });
    if (by_floor != by_index) ++reordered;
    for (std::size_t i = 0; i < by_floor.size(); ++i) {
      const std::size_t c = by_floor[i];
      const std::size_t s = source[c];
      if (s != c && classes[c].members[0] > classes[s].members[0] &&
          std::find(by_floor.begin() + static_cast<std::ptrdiff_t>(i),
                    by_floor.end(), s) != by_floor.end()) {
        ++kin_first;
        break;
      }
    }

    SCOPED_TRACE("round " + std::to_string(round) + ", " +
                 std::to_string(classes.size()) + " classes");
    const Curve want = sweep_node(classes, drive, by_index, index_visits);
    ASSERT_TRUE(same_points(sweep_node(classes, drive, by_floor, floor_visits),
                            want));
  }
  // The rounds reorder often, sweep kin ahead of the class they tie, and
  // the floor order stops more sweeps early.
  EXPECT_GT(reordered, 1500);
  EXPECT_GT(kin_first, 600);
  EXPECT_LT(floor_visits, index_visits);
}

// A class key holds each pin's timing, not only its node. In this library
// nand3's three pins have distinct timings, so matches that bind its pins
// to the same nodes in another order are different matches and fall into
// different classes; and3's pins share one timing, so its permuted
// bindings share a class. Mapping with it must give the netlists and QoR
// that sweeping every match on its own gave (values recorded that way).
constexpr const char* kAsymmetricGenlib =
    "GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.40 0.45 0.40 0.45\n"
    "GATE nand2 2.0 O=!(a*b); PIN * INV 1.0 999 0.50 0.50 0.50 0.50\n"
    "GATE nand3 3.0 O=!(a*b*c);\n"
    "  PIN a INV 1.0 999 0.60 0.50 0.60 0.50\n"
    "  PIN b INV 1.1 999 0.70 0.55 0.70 0.55\n"
    "  PIN c INV 1.2 999 0.80 0.60 0.80 0.60\n"
    "GATE and3 4.0 O=a*b*c; PIN * NONINV 1.1 999 1.12 0.38 1.12 0.38\n"
    "GATE nor2 2.0 O=!(a+b); PIN * INV 1.0 999 0.58 0.58 0.58 0.58\n"
    "GATE aoi21 3.0 O=!(a*b+c); PIN * INV 1.1 999 0.68 0.62 0.68 0.62\n";

struct PinnedAsymmetric {
  std::uint64_t seed;
  MapObjective objective;
  std::size_t curve_points;
  std::size_t matches;
  double area;
  double delay;
  double power_uw;
  std::uint64_t blif_digest;
};

constexpr PinnedAsymmetric kPinnedAsymmetric[] = {
    {5, MapObjective::kPower, 3051, 459, 341, 66.534999999999997, 368.51896524429321,
     0x7cb836c8bce9c8d0ULL},
    {5, MapObjective::kArea, 1550, 459, 340, 66.379999999999995, 367.6105637550354,
     0x9a4d566e13678977ULL},
    {23, MapObjective::kPower, 873, 274, 210, 42.888000000000005, 228.58551025390625,
     0xf2a173d254f2c610ULL},
    {23, MapObjective::kArea, 215, 274, 208, 43.469999999999999, 230.23331069946289,
     0x7bc31827ecbb64e4ULL},
    {61, MapObjective::kPower, 5477, 372, 308, 64.340000000000003, 330.08591651916504,
     0xc50fc78421b5486dULL},
    {61, MapObjective::kArea, 1280, 372, 306, 64.63000000000001, 328.37940788269043,
     0x195acac243efe7abULL},
};

Network asymmetric_subject(std::uint64_t seed) {
  Network net = testing::random_network(seed, 12, 60, 5);
  prepare_network(net);
  return decompose_network(net, decomp_options_for(Method::kI, FlowOptions{}))
      .network;
}

TEST(Mapper, AsymmetricPinTimingsSplitClasses) {
  const Library lib = Library::parse_genlib(kAsymmetricGenlib, "asym");
  std::size_t split = 0;   // permuted nand3 pairs, in different classes
  std::size_t joined = 0;  // permuted and3 pairs, in one class
  for (const std::uint64_t seed : {5, 23, 61}) {
    const Network subject = asymmetric_subject(seed);
    const SubjectMatches store = enumerate_matches(subject, lib);
    for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id) {
      std::vector<testing::Match> ms = testing::find_matches(subject, id, lib);
      std::erase_if(ms, [](const testing::Match& m) {
        return m.covered.empty();
      });
      const auto entries = store.at(id);
      ASSERT_EQ(entries.size(), ms.size());
      for (std::size_t j = 0; j < ms.size(); ++j)
        for (std::size_t i = 0; i < j; ++i) {
          if (ms[i].gate != ms[j].gate || ms[i].covered != ms[j].covered)
            continue;
          std::vector<NodeId> a = ms[i].pin_binding;
          std::vector<NodeId> b = ms[j].pin_binding;
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          if (a != b) continue;
          if (ms[j].gate->name == "nand3") {
            EXPECT_NE(entries[i].cls, entries[j].cls);
            ++split;
          } else if (ms[j].gate->name == "and3") {
            EXPECT_EQ(entries[i].cls, entries[j].cls);
            ++joined;
          }
        }
    }
  }
  EXPECT_GT(split, 0u);
  EXPECT_GT(joined, 0u);

  for (const PinnedAsymmetric& want : kPinnedAsymmetric) {
    MapOptions o;
    o.objective = want.objective;
    const Network subject = asymmetric_subject(want.seed);
    const MapResult r = map_network(subject, lib, o);
    const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(o));
    StreamHash h;
    h.str(write_mapped_blif_string(r.mapped));
    SCOPED_TRACE("seed " + std::to_string(want.seed) +
                 (want.objective == MapObjective::kPower ? " power" : " area"));
    EXPECT_EQ(r.total_curve_points, want.curve_points);
    EXPECT_EQ(r.total_matches, want.matches);
    EXPECT_EQ(rep.area, want.area);
    EXPECT_EQ(rep.delay, want.delay);
    EXPECT_EQ(rep.power_uw, want.power_uw);
    EXPECT_EQ(h.digest().fold(), want.blif_digest);
  }
}

}  // namespace
}  // namespace minpower
