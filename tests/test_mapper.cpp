#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "helpers.hpp"
#include "map/mapper.hpp"
#include "power/report.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

Network decomposed(std::uint64_t seed, int pi = 6, int nodes = 12, int po = 3) {
  Network raw = testing::random_network(seed, pi, nodes, po);
  NetworkDecompOptions d;
  return decompose_network(raw, d).network;
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

// sweep_match must reproduce the brute-force envelope bit for bit on every
// pin count, and the dominance filter must drop only steps Curve::merge
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

}  // namespace
}  // namespace minpower
