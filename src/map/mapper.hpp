#pragma once
// Power-efficient technology mapping (Section 3).
//
// Curves of non-inferior (arrival, cost) points are computed for every
// subject node in postorder (Sec. 3.2.1), where cost is either accumulated
// average power (pd-map, Method 1 of Sec. 3.1) or accumulated area (the
// ad-map baseline of Chaudhary–Pedram that Methods I–III use). A preorder
// pass (Sec. 3.2.2) then selects, for each primary output's required time,
// the minimum-cost realization, applying the unknown-load timing
// recalculation of Sec. 3.2.3 (arrival shift = Δload × drive).
//
// DAG handling (Sec. 3.3): matches never swallow multi-fanout nodes; the
// two published heuristics differ in how a multi-fanout input's accumulated
// cost is charged — once per reader (tree partition, DAGON-style) or
// divided by its fanout count (the MIS-style heuristic the paper adopts).
// Under Method 1 the fanout edge's own load power is never divided.

#include <cstdint>
#include <span>
#include <vector>

#include "map/curve.hpp"
#include "map/mapped.hpp"
#include "map/match.hpp"
#include "prob/probability.hpp"

namespace minpower {

enum class MapObjective {
  kPower,  // pd-map: minimize average power under timing constraints
  kArea,   // ad-map: minimize area under timing constraints (baseline)
};

enum class DagHeuristic {
  kTreePartition,   // charge shared cones fully at every reader
  kFanoutDivision,  // divide shared cone cost by fanout count (paper's pick)
};

/// The two ways of accumulating power during curve construction (Sec. 3.1).
/// Method 1 (Eq. 15) charges each input's output-net power at the consuming
/// match — exact under the zero-delay model, and the fanout-edge power is
/// never divided in DAG mode. Method 2 (Eq. 16) charges the node's own
/// output power with the default ("unknown") load — less accurate, and its
/// fanout-edge power gets divided by the fanout count. The paper adopts
/// Method 1; Method 2 is kept for the ablation.
enum class PowerAccounting { kMethod1, kMethod2 };

enum class RequiredTimePolicy {
  kUnconstrained,    // pick the cheapest point everywhere
  kMinDelay,         // required = fastest achievable arrival per PO
  kRelaxedMinDelay,  // required = fastest · relax_factor (default flow)
};

struct MapOptions {
  MapObjective objective = MapObjective::kPower;
  DagHeuristic dag = DagHeuristic::kFanoutDivision;
  CircuitStyle style = CircuitStyle::kStatic;
  PowerAccounting accounting = PowerAccounting::kMethod1;

  double vdd = 5.0;           // volts
  double t_cycle = 50e-9;     // seconds (20 MHz)
  double po_load = 2.0;       // unit loads hanging on each primary output

  // Curve ε-pruning: a point is dropped only when it is within epsilon_t of
  // the kept neighbor on the time axis AND saves less than epsilon_c on the
  // cost axis. epsilon_c = 0 keeps every non-inferior point.
  double epsilon_t = 0.02;    // time axis (ns)
  double epsilon_c = 1e-3;    // cost axis (µW or area units)

  // Hard cap on per-node curve width (0 = unlimited). ε-pruning only bounds
  // local redundancy: on deep chain-like subjects the cumulative cost spread
  // grows with depth, curves widen linearly, and the mapper goes quadratic.
  // When set, curves wider than the cap are thinned to evenly spaced points
  // (endpoints always kept) after each node's pruning pass.
  std::size_t max_curve_points = 0;

  RequiredTimePolicy policy = RequiredTimePolicy::kRelaxedMinDelay;
  double relax_factor = 1.15;
  std::vector<double> po_required;  // explicit required times (overrides)
  std::vector<double> pi_arrival;   // per-PI arrival; empty → 0
  std::vector<double> pi_prob1;     // per-PI 1-probability; empty → 0.5

  /// Precomputed per-subject-node switching activities (indexed by NodeId).
  /// Empty → computed internally from the BDDs; callers that score several
  /// mappings of one subject should compute once and share.
  std::vector<double> activities;
};

struct MapResult {
  MappedNetwork mapped;
  std::vector<double> po_required_used;  // constraint actually applied
  std::size_t total_curve_points = 0;    // post-pruning, for the ε ablation
  std::size_t total_matches = 0;
  std::size_t max_curve_points = 0;      // widest per-node curve seen
};

/// Map a NAND2/INV subject network onto `lib`, given its match lists
/// `matches` = enumerate_matches(subject, lib). Callers that map one subject
/// several times (the flow engine's method pairs) enumerate once and share.
/// Three phases follow, each under its own trace span below `map`:
/// `map.curves` (the postorder curve DP), `map.select` (required times and
/// the preorder gate selection) and `map.emit` (the mapped netlist).
MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options,
                      const SubjectMatches& matches);

/// The same, enumerating the matches first. The subject must satisfy
/// Network::is_nand_network(); every PO must be reachable from gates or PIs.
MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options);

/// MapResult::mapped points into `subject`, so a temporary subject would
/// leave it dangling: both forms take an lvalue only.
MapResult map_network(const Network&& subject, const Library& lib,
                      const MapOptions& options,
                      const SubjectMatches& matches) = delete;
MapResult map_network(const Network&& subject, const Library& lib,
                      const MapOptions& options) = delete;

/// One candidate of a gate pin's input: through that pin, the input
/// contributes arrival `t` to the gate's output at accumulated cost `cost`.
/// The curve DP keeps one list per (input node, pin timing), sorted by t
/// with prefix-minimum cost, so `cost` is the cheapest way to meet `t`.
struct InputCand {
  double t;
  double cost;
};

/// One duplicate class of a node's matches, as the curve DP sweeps it:
/// the distinct candidate lists its members read (each sorted,
/// prefix-minimum) and, for each of its one or more members, its match
/// index at the node (ascending) and which list each of its gate pins
/// reads. Member m's pin p reads `lists[order[m * k + p]]`, k being the
/// gate's pin count.
struct MatchClass {
  std::span<const std::vector<InputCand>* const> lists;
  std::span<const int> members;
  std::span<const std::uint32_t> order;
};

/// The breakpoint sweep of one duplicate class (Sec. 3.2.1, Lemma 3.1).
/// Every distinct t at which all lists are reachable is a breakpoint; a
/// member's cost there is `base` (the gate's own cost) plus each pin's
/// cheapest candidate meeting t, summed in the member's pin order. Members
/// meet the same lists, so their sums differ at most in rounding; the
/// breakpoint offers the smallest, the earliest member's on a tie, as the
/// step's `match`. `steps` receives the breakpoints where that cost
/// strictly drops, except those that a point of `curve` (null: none)
/// already beats: no slower and no dearer, and on an exact tie of a lower
/// match. Curve::merge would drop exactly those, so merging the filtered
/// steps into `curve` gives the same curve as merging all of them, and
/// the same curve as sweeping and merging every member in index order.
///
/// The sweep stops at the class's cost floor (class_floor). Rounded
/// addition is monotone, so no later breakpoint costs less than the floor;
/// once the last step, or the cheapest point of `curve` no slower than t,
/// costs no more than the floor, no later breakpoint can become a step,
/// and the sweep ends.
struct SweepStats {
  std::size_t breakpoints = 0;  // breakpoints visited
  bool closed = false;  // stopped at the floor before the last breakpoint
};
SweepStats sweep_class(const MatchClass& c, double base, const Curve* curve,
                       std::vector<Curve::Step>& steps);

/// A class's cost floor: the smallest member sum of `base` plus each pin's
/// last (cheapest) candidate, each member summed in its own pin order. No
/// breakpoint of the class costs less. Every list must be non-empty.
double class_floor(const MatchClass& c, double base);

/// Per-µW scaling of Eq. 1 for a load in capacitance units:
/// 0.5 · C · Vdd² / Tcycle · E, reported in micro-Watts.
inline double load_power_uw(double cap_units, double activity, double vdd,
                            double t_cycle) {
  return 0.5 * cap_units * kUnitCapFarads * vdd * vdd / t_cycle * activity *
         1e6;
}

}  // namespace minpower
