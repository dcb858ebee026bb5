#include "verify/verify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "benchgen/benchgen.hpp"
#include "decomp/huffman.hpp"
#include "decomp/network_decompose.hpp"
#include "decomp/package_merge.hpp"
#include "flow/flow.hpp"
#include "library/library.hpp"
#include "map/curve.hpp"
#include "map/mapper.hpp"
#include "prob/probability.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace minpower::verify {

namespace {

/// SplitMix64 finalizer: derives independent sub-seeds from (seed, salt)
/// so the oracles consume disjoint random streams.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fail(VerifyReport& report, const char* check, std::uint64_t seed,
          std::string detail) {
  report.failures.push_back(VerifyFailure{check, seed, std::move(detail)});
}

CircuitStyle style_for(std::uint64_t seed) {
  switch (mix(seed, 0x57) % 3) {
    case 0:
      return CircuitStyle::kStatic;
    case 1:
      return CircuitStyle::kDynamicP;
    default:
      return CircuitStyle::kDynamicN;
  }
}

const char* style_name(CircuitStyle s) {
  switch (s) {
    case CircuitStyle::kStatic:
      return "static";
    case CircuitStyle::kDynamicP:
      return "dynp";
    case CircuitStyle::kDynamicN:
      return "dynn";
  }
  return "?";
}

/// Local SOP of a library gate over its pin order, cached per Gate.
const Cover& gate_cover(const Gate* gate,
                        std::unordered_map<const Gate*, Cover>& cache) {
  const auto it = cache.find(gate);
  if (it != cache.end()) return it->second;
  std::vector<std::string> pin_names;
  pin_names.reserve(gate->pins.size());
  for (const GatePin& p : gate->pins) pin_names.push_back(p.name);
  return cache.emplace(gate, cover_from_expr(*gate->function, pin_names))
      .first->second;
}

}  // namespace

bool mapped_network_equivalent(const Network& source,
                               const MappedNetwork& mapped) {
  const Network& subject = *mapped.subject;
  if (source.pis().size() != subject.pis().size()) return false;
  if (source.pos().size() != mapped.po_signal.size()) return false;

  BddManager mgr;
  const NetworkBdds src(mgr, source);
  std::vector<int> var_of;
  if (!bind_pis_by_name(source, src.pi_variables(), subject, &var_of))
    return false;

  // Signal BDDs over the subject node ids, against source variables.
  std::vector<BddRef> sig(subject.capacity(), BddManager::kFalse);
  for (std::size_t i = 0; i < subject.pis().size(); ++i)
    sig[static_cast<std::size_t>(subject.pis()[i])] = mgr.var(var_of[i]);
  for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id)
    if (subject.node(id).kind == NodeKind::kConstant1)
      sig[static_cast<std::size_t>(id)] = BddManager::kTrue;

  std::unordered_map<const Gate*, Cover> covers;
  std::vector<BddRef> pins;  // reused across gates
  for (const MappedGateInst& g : mapped.gates) {
    pins.clear();
    for (NodeId s : g.pin_nodes) pins.push_back(sig[static_cast<std::size_t>(s)]);
    sig[static_cast<std::size_t>(g.root)] =
        compose_cover(mgr, gate_cover(g.gate, covers), pins);
  }

  std::unordered_map<std::string, BddRef> mapped_po;
  for (std::size_t j = 0; j < subject.pos().size(); ++j)
    mapped_po[subject.pos()[j].name] =
        sig[static_cast<std::size_t>(mapped.po_signal[j])];
  for (const PrimaryOutput& po : source.pos()) {
    const auto it = mapped_po.find(po.name);
    if (it == mapped_po.end()) return false;
    if (src.of(po.driver) != it->second) return false;
  }
  return true;
}

std::vector<double> exhaustive_signal_probabilities(
    const Network& net, const std::vector<double>& pi_prob1) {
  const std::size_t n = net.pis().size();
  MP_CHECK(pi_prob1.size() == n);
  MP_CHECK_MSG(n <= 24, "exhaustive probability oracle limited to 24 PIs");
  const std::vector<NodeId> order = net.topo_order();
  std::vector<double> p(net.capacity(), 0.0);
  std::vector<char> value(net.capacity(), 0);
  for (std::size_t m = 0; m < (std::size_t{1} << n); ++m) {
    double weight = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool v = (m >> i) & 1;
      value[static_cast<std::size_t>(net.pis()[i])] = v;
      weight *= v ? pi_prob1[i] : 1.0 - pi_prob1[i];
    }
    for (NodeId id : order) {
      const Node& node = net.node(id);
      if (node.kind == NodeKind::kConstant1) value[static_cast<std::size_t>(id)] = 1;
      if (!node.is_internal()) continue;
      std::uint64_t assignment = 0;
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (value[static_cast<std::size_t>(node.fanins[i])])
          assignment |= std::uint64_t{1} << i;
      value[static_cast<std::size_t>(id)] = node.cover.eval(assignment);
    }
    for (NodeId id : order)
      if (value[static_cast<std::size_t>(id)])
        p[static_cast<std::size_t>(id)] += weight;
  }
  return p;
}

McPowerEstimate monte_carlo_power(const MappedNetwork& mapped,
                                  const PowerParams& params, int samples,
                                  std::uint64_t seed) {
  MP_CHECK(samples > 0);
  const Network& subject = *mapped.subject;
  const std::size_t n = subject.pis().size();
  std::vector<double> pi_p1 =
      params.pi_prob1.empty() ? std::vector<double>(n, 0.5) : params.pi_prob1;
  MP_CHECK(pi_p1.size() == n);

  // Net loads, exactly as evaluate_mapped computes them.
  std::vector<double> load(subject.capacity(), 0.0);
  for (const MappedGateInst& g : mapped.gates)
    for (std::size_t i = 0; i < g.pin_nodes.size(); ++i)
      load[static_cast<std::size_t>(g.pin_nodes[i])] += g.gate->pins[i].cap;
  for (NodeId s : mapped.po_signal)
    load[static_cast<std::size_t>(s)] += params.po_load;

  // Monitored nets (gate outputs + PIs) with their µW-per-switch weights.
  std::vector<NodeId> nets;
  std::vector<double> weight;
  for (const MappedGateInst& g : mapped.gates) {
    nets.push_back(g.root);
    weight.push_back(load_power_uw(load[static_cast<std::size_t>(g.root)], 1.0,
                                   params.vdd, params.t_cycle));
  }
  for (NodeId pi : subject.pis()) {
    nets.push_back(pi);
    weight.push_back(load_power_uw(load[static_cast<std::size_t>(pi)], 1.0,
                                   params.vdd, params.t_cycle));
  }

  std::unordered_map<const Gate*, Cover> covers;
  std::vector<char> value(subject.capacity(), 0);
  auto eval_netlist = [&](const std::vector<bool>& pi_values) {
    for (std::size_t i = 0; i < n; ++i)
      value[static_cast<std::size_t>(subject.pis()[i])] = pi_values[i];
    for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id)
      if (subject.node(id).is_const())
        value[static_cast<std::size_t>(id)] =
            subject.node(id).kind == NodeKind::kConstant1;
    for (const MappedGateInst& g : mapped.gates) {
      std::uint64_t assignment = 0;
      for (std::size_t i = 0; i < g.pin_nodes.size(); ++i)
        if (value[static_cast<std::size_t>(g.pin_nodes[i])])
          assignment |= std::uint64_t{1} << i;
      value[static_cast<std::size_t>(g.root)] =
          gate_cover(g.gate, covers).eval(assignment);
    }
  };

  // Per-sample totals: mean is the estimate; the sample stddev captures the
  // cross-net correlation a per-net binomial model would miss.
  Rng rng(mix(seed, 0x3c));
  std::vector<bool> v1(n);
  std::vector<char> first(subject.capacity(), 0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int k = 0; k < samples; ++k) {
    for (std::size_t i = 0; i < n; ++i) v1[i] = rng.coin(pi_p1[i]);
    eval_netlist(v1);
    double x = 0.0;
    if (params.style == CircuitStyle::kStatic) {
      // Temporal independence: a switch is a value change across an
      // independently drawn consecutive vector.
      first = value;
      for (std::size_t i = 0; i < n; ++i) v1[i] = rng.coin(pi_p1[i]);
      eval_netlist(v1);
      for (std::size_t s = 0; s < nets.size(); ++s) {
        const auto id = static_cast<std::size_t>(nets[s]);
        if (first[id] != value[id]) x += weight[s];
      }
    } else {
      const bool want = params.style == CircuitStyle::kDynamicP;
      for (std::size_t s = 0; s < nets.size(); ++s)
        if (static_cast<bool>(value[static_cast<std::size_t>(nets[s])]) == want)
          x += weight[s];
    }
    sum += x;
    sum_sq += x * x;
  }

  McPowerEstimate est;
  est.power_uw = sum / samples;
  const double var =
      std::max(0.0, sum_sq / samples - est.power_uw * est.power_uw);
  est.stderr_uw = std::sqrt(var / samples);
  return est;
}

double reference_length_limited_cost(const std::vector<double>& weights,
                                     int max_level) {
  const int n = static_cast<int>(weights.size());
  MP_CHECK(n >= 1);
  MP_CHECK_MSG(n <= 12, "level-assignment oracle limited to 12 leaves");
  if (n == 1) return 0.0;
  MP_CHECK((1LL << max_level) >= n);

  // By the rearrangement inequality the optimum sorts weights descending
  // against levels ascending, so enumerating non-decreasing level sequences
  // with exact Kraft capacity covers every candidate optimum.
  std::vector<double> w = weights;
  std::sort(w.begin(), w.end(), std::greater<>());

  const std::int64_t full = std::int64_t{1} << max_level;
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> levels(static_cast<std::size_t>(n), 0);
  auto rec = [&](auto&& self, int i, int min_level, std::int64_t capacity,
                 double cost) -> void {
    if (cost >= best) return;
    if (i == n) {
      if (capacity == 0) best = cost;
      return;
    }
    const int remaining = n - i;
    for (int l = min_level; l <= max_level; ++l) {
      const std::int64_t unit = std::int64_t{1} << (max_level - l);
      // Every remaining leaf consumes at least one unit at max_level and at
      // most `unit` (levels are non-decreasing from l).
      if (capacity < unit + (remaining - 1)) continue;
      if (capacity > remaining * unit) continue;
      levels[static_cast<std::size_t>(i)] = l;
      self(self, i + 1, l, capacity - unit,
           cost + w[static_cast<std::size_t>(i)] * l);
    }
  };
  rec(rec, 0, 1, full, 0.0);
  MP_CHECK(std::isfinite(best));
  return best;
}

namespace {

void ref_tree_rec(std::vector<std::pair<double, int>>& active,
                  const DecompModel& model, int max_height, double acc,
                  double& best) {
  if (active.size() == 1) {
    best = std::min(best, acc);
    return;
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::size_t j = i + 1; j < active.size(); ++j) {
      const auto [pa, ha] = active[i];
      const auto [pb, hb] = active[j];
      const int h = 1 + std::max(ha, hb);
      if (max_height >= 0 && h > max_height) continue;
      const double p = model.merge_prob(pa, pb);
      std::vector<std::pair<double, int>> next;
      next.reserve(active.size() - 1);
      for (std::size_t k = 0; k < active.size(); ++k)
        if (k != i && k != j) next.push_back(active[k]);
      next.emplace_back(p, h);
      ref_tree_rec(next, model, max_height, acc + model.activity(p), best);
    }
  }
}

}  // namespace

double reference_best_tree_cost(const std::vector<double>& leaf_probs,
                                const DecompModel& model, int max_height) {
  MP_CHECK(!leaf_probs.empty());
  MP_CHECK_MSG(leaf_probs.size() <= 7,
               "plain tree enumeration limited to 7 leaves");
  if (leaf_probs.size() == 1) return 0.0;
  std::vector<std::pair<double, int>> active;
  active.reserve(leaf_probs.size());
  for (double p : leaf_probs) active.emplace_back(p, 0);
  double best = std::numeric_limits<double>::infinity();
  ref_tree_rec(active, model, max_height, 0.0, best);
  MP_CHECK_MSG(std::isfinite(best), "height bound admits no tree");
  return best;
}

// ---------------------------------------------------------------------------
// Pipeline oracle: one random circuit through opt → decomp ×3 → map ×2.
// ---------------------------------------------------------------------------

void verify_circuit(std::uint64_t seed, const VerifyOptions& options,
                    VerifyReport& report) {
  Rng rng(mix(seed, 0x01));

  BenchProfile profile;
  profile.name = "verify" + std::to_string(seed);
  profile.num_pi = 4 + static_cast<int>(rng.below(6));   // 4..9
  profile.num_po = 2 + static_cast<int>(rng.below(3));   // 2..4
  profile.num_nodes = 8 + static_cast<int>(rng.below(14));
  profile.max_fanin = 3 + static_cast<int>(rng.below(2));
  profile.max_cubes = 2 + static_cast<int>(rng.below(2));
  profile.seed = mix(seed, 0x02);
  const CircuitStyle style = style_for(seed);

  // Half the runs use biased PI statistics — they change decomposition,
  // mapping and power, so the oracles must hold off the 0.5 default too.
  std::vector<double> pi_prob1;
  if (rng.coin()) {
    pi_prob1.resize(static_cast<std::size_t>(profile.num_pi));
    for (double& p : pi_prob1) p = rng.uniform(0.1, 0.9);
  }

  const Network source = generate_benchmark(profile);
  Network prepared = source.duplicate();
  prepare_network(prepared);

  std::ostringstream ctx;
  ctx << "circuit seed=" << seed << " pis=" << profile.num_pi
      << " style=" << style_name(style)
      << (pi_prob1.empty() ? " uniform" : " biased");
  ++report.circuits;

  ++report.equivalence_checks;
  if (!networks_equivalent(source, prepared)) {
    fail(report, "opt-equivalence", seed,
         ctx.str() + ": rugged-lite changed the network function");
    return;  // downstream results would chase a miscompiled network
  }

  // The three decomposition configurations of Methods I/II/III.
  struct DecompCase {
    const char* name;
    DecompAlgorithm algorithm;
    bool bounded;
  };
  const DecompCase cases[] = {
      {"balanced", DecompAlgorithm::kBalanced, false},
      {"minpower", DecompAlgorithm::kMinPower, false},
      {"bounded-minpower", DecompAlgorithm::kMinPower, true},
  };

  Network subject;  // the minpower decomposition, reused for mapping
  for (const DecompCase& c : cases) {
    NetworkDecompOptions d;
    d.style = style;
    d.algorithm = c.algorithm;
    d.bounded_height = c.bounded;
    d.pi_prob1 = pi_prob1;
    NetworkDecompResult r = decompose_network(prepared, d);
    if (!r.network.is_nand_network()) {
      fail(report, "decomp-subject-graph", seed,
           ctx.str() + ": " + c.name + " result is not a NAND2/INV network");
      continue;
    }
    ++report.equivalence_checks;
    if (!networks_equivalent(prepared, r.network))
      fail(report, "decomp-equivalence", seed,
           ctx.str() + ": " + c.name + " decomposition is not equivalent");
    if (c.algorithm == DecompAlgorithm::kMinPower && !c.bounded)
      subject = std::move(r.network);
  }

  // Exhaustive activity oracle on both the optimized network and the
  // decomposed subject graph.
  const std::vector<double> probs_full =
      pi_prob1.empty()
          ? std::vector<double>(static_cast<std::size_t>(profile.num_pi), 0.5)
          : pi_prob1;
  auto check_probabilities = [&](const Network& net, const char* which) {
    if (static_cast<int>(net.pis().size()) > options.max_exhaustive_pis)
      return;
    ++report.activity_checks;
    std::vector<double> by_pi(net.pis().size(), 0.5);
    // PI sets can shrink during optimization; rebind by name.
    std::unordered_map<std::string, double> by_name;
    for (std::size_t i = 0; i < source.pis().size(); ++i)
      by_name[source.node(source.pis()[i]).name] = probs_full[i];
    for (std::size_t i = 0; i < net.pis().size(); ++i) {
      const auto it = by_name.find(net.node(net.pis()[i]).name);
      if (it != by_name.end()) by_pi[i] = it->second;
    }
    const std::vector<double> exact =
        exhaustive_signal_probabilities(net, by_pi);
    const std::vector<double> bdd = signal_probabilities(net, by_pi);
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& node = net.node(id);
      if (node.is_dead()) continue;
      const double d = std::abs(exact[static_cast<std::size_t>(id)] -
                                bdd[static_cast<std::size_t>(id)]);
      if (d > 1e-7) {
        std::ostringstream os;
        os << ctx.str() << ": " << which << " node " << node.name
           << " exhaustive p=" << exact[static_cast<std::size_t>(id)]
           << " vs BDD p=" << bdd[static_cast<std::size_t>(id)];
        fail(report, "activity-oracle", seed, os.str());
        return;  // one node is enough to reproduce
      }
    }
  };
  check_probabilities(prepared, "optimized");
  if (subject.pos().empty()) return;  // decomposition already failed above
  check_probabilities(subject, "decomposed");

  // Map the shared subject under both objectives; each mapping must stay
  // BDD-equivalent to the original optimized network.
  const Library& lib = standard_library();
  for (const MapObjective objective :
       {MapObjective::kPower, MapObjective::kArea}) {
    MapOptions m;
    m.objective = objective;
    m.style = style;
    m.pi_prob1 = pi_prob1;
    const MapResult mr = map_network(subject, lib, m);
    mr.mapped.check();
    ++report.equivalence_checks;
    if (!mapped_network_equivalent(prepared, mr.mapped)) {
      fail(report, "map-equivalence", seed,
           ctx.str() + (objective == MapObjective::kPower ? ": pd-map"
                                                          : ": ad-map") +
               " netlist is not equivalent to the source");
      continue;
    }

    // Monte-Carlo power convergence (power objective only — one netlist
    // per circuit keeps the harness fast).
    if (objective != MapObjective::kPower || options.mc_samples <= 0) continue;
    const PowerParams params = PowerParams::from(m);
    const MappedReport analytic = evaluate_mapped(mr.mapped, params);
    const McPowerEstimate mc = monte_carlo_power(
        mr.mapped, params, options.mc_samples, mix(seed, 0x04));
    ++report.monte_carlo_checks;
    const double band =
        options.mc_sigmas * mc.stderr_uw + 1e-6 * (1.0 + analytic.power_uw);
    if (std::abs(mc.power_uw - analytic.power_uw) > band) {
      std::ostringstream os;
      os << ctx.str() << ": analytic power " << analytic.power_uw
         << " µW vs Monte-Carlo " << mc.power_uw << " ± " << mc.stderr_uw
         << " µW (" << options.mc_samples << " samples)";
      fail(report, "monte-carlo-power", seed, os.str());
    }
  }
}

// ---------------------------------------------------------------------------
// Tree optimality oracles.
// ---------------------------------------------------------------------------

void verify_trees(std::uint64_t seed, VerifyReport& report) {
  Rng rng(mix(seed, 0x10));
  const int n = 2 + static_cast<int>(rng.below(7));  // 2..8
  std::vector<double> probs(static_cast<std::size_t>(n));
  for (double& p : probs) p = rng.uniform(0.02, 0.98);
  const GateType gate = rng.coin() ? GateType::kAnd : GateType::kOr;
  const CircuitStyle style = style_for(mix(seed, 0x11));
  const DecompModel model(gate, style);
  constexpr double kTol = 1e-9;

  std::ostringstream ctx;
  ctx << "tree seed=" << seed << " n=" << n
      << " gate=" << (gate == GateType::kAnd ? "and" : "or")
      << " style=" << style_name(style);

  const DecompTree exhaustive = best_tree_exhaustive(probs, model);
  const double opt = exhaustive.internal_cost(model, probs);

  // The branch-and-bound enumerator itself is cross-checked against a plain
  // recursion for small n, so the oracle is not self-referential.
  if (n <= 5) {
    ++report.tree_checks;
    const double plain = reference_best_tree_cost(probs, model);
    if (std::abs(plain - opt) > kTol) {
      std::ostringstream os;
      os << ctx.str() << ": best_tree_exhaustive=" << opt
         << " vs plain enumeration=" << plain;
      fail(report, "exhaustive-self-check", seed, os.str());
    }
  }

  if (model.huffman_optimal()) {
    // Theorem 2.2: Huffman is exactly optimal for quasi-linear merges.
    ++report.tree_checks;
    const double h = huffman_tree(probs, model).internal_cost(model, probs);
    if (std::abs(h - opt) > kTol) {
      std::ostringstream os;
      os << ctx.str() << ": huffman=" << h << " vs brute force=" << opt;
      fail(report, "huffman-optimality", seed, os.str());
    }
  } else {
    // Modified Huffman is a heuristic for static CMOS: assert it never beats
    // the brute-force optimum and report its Table-1 hit rate.
    ++report.tree_checks;
    const double mh =
        modified_huffman_tree(probs, model).internal_cost(model, probs);
    if (mh < opt - kTol) {
      std::ostringstream os;
      os << ctx.str() << ": modified huffman=" << mh
         << " beats the brute-force optimum " << opt;
      fail(report, "modified-huffman-sanity", seed, os.str());
    }
    ++report.modified_huffman_total;
    if (mh <= opt + kTol) ++report.modified_huffman_optimal;
  }

  // Package-merge vs the DP/enumeration reference, plus structural
  // invariants of the returned level assignment.
  for (int max_level : {balanced_height(n), balanced_height(n) + 1, n - 1}) {
    if (max_level < balanced_height(n) || max_level > n - 1) continue;
    if (n == 2 && max_level != 1) continue;
    ++report.tree_checks;
    const std::vector<int> levels =
        length_limited_levels(probs, max_level);
    std::int64_t kraft = 0;
    double cost = 0.0;
    bool bounds_ok = levels.size() == probs.size();
    for (std::size_t i = 0; bounds_ok && i < levels.size(); ++i) {
      bounds_ok = levels[i] >= 1 && levels[i] <= max_level;
      if (bounds_ok) {
        kraft += std::int64_t{1} << (max_level - levels[i]);
        cost += probs[i] * levels[i];
      }
    }
    if (!bounds_ok || kraft != (std::int64_t{1} << max_level)) {
      std::ostringstream os;
      os << ctx.str() << ": L=" << max_level
         << " package-merge levels violate bounds or Kraft equality";
      fail(report, "package-merge-kraft", seed, os.str());
      continue;
    }
    const double ref = reference_length_limited_cost(probs, max_level);
    if (std::abs(cost - ref) > kTol) {
      std::ostringstream os;
      os << ctx.str() << ": L=" << max_level << " package-merge cost=" << cost
         << " vs DP reference=" << ref;
      fail(report, "package-merge-optimality", seed, os.str());
      continue;
    }
    // The level assignment must realize as a tree within the bound.
    const DecompTree t = tree_from_levels(levels);
    if (t.height() > max_level)
      fail(report, "package-merge-height", seed,
           ctx.str() + ": realized tree exceeds the height bound");
  }

  // Height-bounded MINPOWER construction: feasible, and exactly optimal for
  // the n ≤ 6 range the implementation solves by exhaustion.
  const int bound = balanced_height(n) + static_cast<int>(rng.below(2));
  const DecompTree bounded =
      bounded_height_minpower_tree(probs, bound, model);
  ++report.tree_checks;
  if (bounded.height() > bound) {
    std::ostringstream os;
    os << ctx.str() << ": bounded tree height " << bounded.height()
       << " exceeds bound " << bound;
    fail(report, "bounded-height-feasibility", seed, os.str());
  } else if (n <= 6) {
    const double ref = reference_best_tree_cost(probs, model, bound);
    const double got = bounded.internal_cost(model, probs);
    if (std::abs(got - ref) > kTol) {
      std::ostringstream os;
      os << ctx.str() << ": bound=" << bound << " bounded minpower=" << got
         << " vs height-bounded brute force=" << ref;
      fail(report, "bounded-height-optimality", seed, os.str());
    }
  }
}

// ---------------------------------------------------------------------------
// Curve invariants.
// ---------------------------------------------------------------------------

void verify_curves(std::uint64_t seed, VerifyReport& report) {
  Rng rng(mix(seed, 0x20));
  const int count = 1 + static_cast<int>(rng.below(30));
  std::vector<CurvePoint> inserted;
  Curve curve;
  for (int i = 0; i < count; ++i) {
    CurvePoint p;
    // Snapped grids create the arrival/cost ties that exercise the
    // dominance edge cases.
    p.arrival = 0.25 * static_cast<double>(rng.below(40));
    p.cost = 0.5 * static_cast<double>(rng.below(60));
    p.match = i;
    inserted.push_back(p);
    curve.insert(p);
  }
  std::ostringstream ctx;
  ctx << "curve seed=" << seed << " points=" << count;

  ++report.curve_checks;
  const auto& pts = curve.points();
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    if (!(pts[i].arrival < pts[i + 1].arrival) ||
        !(pts[i].cost > pts[i + 1].cost)) {
      fail(report, "curve-non-inferior", seed,
           ctx.str() + ": points are not strictly sorted/non-inferior");
      return;
    }
  }

  // Completeness both ways: every input point is weakly dominated by a kept
  // point, and every kept point is one of the inputs.
  ++report.curve_checks;
  for (const CurvePoint& p : inserted) {
    bool dominated = false;
    for (const CurvePoint& q : pts)
      if (q.arrival <= p.arrival && q.cost <= p.cost) {
        dominated = true;
        break;
      }
    if (!dominated) {
      std::ostringstream os;
      os << ctx.str() << ": inserted point (" << p.arrival << ", " << p.cost
         << ") is not dominated by any kept point";
      fail(report, "curve-dominance", seed, os.str());
      return;
    }
  }
  for (const CurvePoint& q : pts) {
    bool known = false;
    for (const CurvePoint& p : inserted)
      if (p.arrival == q.arrival && p.cost == q.cost) {
        known = true;
        break;
      }
    if (!known) {
      fail(report, "curve-invented-point", seed,
           ctx.str() + ": curve contains a point that was never inserted");
      return;
    }
  }

  // Insertion-order independence: the non-inferior frontier is a set.
  ++report.curve_checks;
  Curve reversed;
  for (auto it = inserted.rbegin(); it != inserted.rend(); ++it)
    reversed.insert(*it);
  bool same = reversed.size() == curve.size();
  for (std::size_t i = 0; same && i < pts.size(); ++i)
    same = reversed[i].arrival == pts[i].arrival &&
           reversed[i].cost == pts[i].cost;
  if (!same) {
    fail(report, "curve-order-dependence", seed,
         ctx.str() + ": reversed insertion order yields a different frontier");
    return;
  }

  // Prune idempotence + endpoint preservation (Sec. 3.2.1 ε-pruning).
  ++report.curve_checks;
  const double epsilon_t = rng.uniform(0.0, 0.6);
  const double epsilon_c = rng.uniform(0.0, 1.5);
  Curve pruned = curve;
  pruned.prune(epsilon_t, epsilon_c);
  if (!pts.empty()) {
    const bool endpoints_kept =
        !pruned.empty() &&
        pruned[0].arrival == pts.front().arrival &&
        pruned[pruned.size() - 1].cost == pts.back().cost;
    if (!endpoints_kept) {
      fail(report, "curve-prune-endpoints", seed,
           ctx.str() + ": pruning dropped the fastest or cheapest point");
      return;
    }
  }
  Curve twice = pruned;
  twice.prune(epsilon_t, epsilon_c);
  bool idempotent = twice.size() == pruned.size();
  for (std::size_t i = 0; idempotent && i < pruned.size(); ++i)
    idempotent = twice[i].arrival == pruned[i].arrival &&
                 twice[i].cost == pruned[i].cost;
  if (!idempotent) {
    std::ostringstream os;
    os << ctx.str() << ": prune(" << epsilon_t << ", " << epsilon_c
       << ") is not idempotent";
    fail(report, "curve-prune-idempotence", seed, os.str());
  }
}

VerifyReport run_verification(const VerifyOptions& options) {
  VerifyReport report;
  for (int i = 0; i < options.count; ++i) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(i);
    if (options.check_circuits) verify_circuit(seed, options, report);
    if (options.check_trees) verify_trees(seed, report);
    if (options.check_curves) verify_curves(seed, report);
  }
  return report;
}

void write_verify_json(std::ostream& os, const VerifyOptions& options,
                       const VerifyReport& report) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.verify.v1");
  w.field("seed", static_cast<unsigned long long>(options.seed));
  w.field("count", options.count);
  w.field("ok", report.ok());
  w.key("checks");
  w.begin_object();
  w.field("circuits", report.circuits);
  w.field("equivalence", report.equivalence_checks);
  w.field("activity", report.activity_checks);
  w.field("monte_carlo", report.monte_carlo_checks);
  w.field("trees", report.tree_checks);
  w.field("curves", report.curve_checks);
  w.field("modified_huffman_optimal", report.modified_huffman_optimal);
  w.field("modified_huffman_total", report.modified_huffman_total);
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const VerifyFailure& f : report.failures) {
    w.begin_object();
    w.field("check", f.check);
    w.field("seed", static_cast<unsigned long long>(f.seed));
    w.field("reproduce", "minpower verify --seed " + std::to_string(f.seed) +
                             " --count 1");
    w.field("detail", f.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace minpower::verify
