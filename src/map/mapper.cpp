#include "map/mapper.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"

namespace minpower {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct InputCand {
  double t;      // contribution to the node's output arrival
  double cost;   // cheapest accumulated cost of any input point meeting t
};

/// A memoized candidate list of one input node for one pin timing. The list
/// depends on nothing else that varies within a pass, so equal keys mean
/// bit-identical lists.
struct CandListEntry {
  double intrinsic;
  double drive;
  double cap;
  std::vector<InputCand>* list;  // owned by the pass's list pool
};

}  // namespace

MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options) {
  trace::Span span("map", "map");
  span.arg("network", subject.name());
  metrics::counter("map.passes").add(1);
  subject.check();
  for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id) {
    const Node& n = subject.node(id);
    if (n.is_internal())
      MP_CHECK_MSG(subject.is_nand2(id) || subject.is_inv(id),
                   "mapper requires a NAND2/INV subject network");
  }

  const std::vector<double> activity =
      options.activities.empty()
          ? switching_activities(subject, options.style, options.pi_prob1)
          : options.activities;
  MP_CHECK(activity.size() == subject.capacity());
  const double c_def = lib.default_load();
  const std::vector<NodeId> topo = subject.topo_order();

  MapResult result;
  std::size_t points_pruned = 0;
  std::vector<Curve> curve(subject.capacity());
  std::vector<std::vector<Match>> matches(subject.capacity());

  // Matches depend only on the subject, so enumerate them all first. Each
  // node's count of pin bindings across all matches tells when its last
  // reader is done, so its candidate lists can be recycled.
  std::vector<int> pending_reads(subject.capacity(), 0);
  for (NodeId id : topo) {
    if (!subject.node(id).is_internal()) continue;
    std::vector<Match>& ms = matches[static_cast<std::size_t>(id)];
    ms = find_matches(subject, id, lib);
    // Degenerate (zero-size) patterns are rejected by the matcher caller:
    std::erase_if(ms, [](const Match& m) {
      return m.covered.empty();
    });
    MP_CHECK_MSG(!ms.empty(), "no match at subject node (library too small)");
    result.total_matches += ms.size();
    // Per-node registry lookups are too hot for the inner loop; accumulate
    // locally and flush once per pass (handles stay valid across reset()).
    static metrics::Histogram& matches_per_node =
        metrics::histogram("map.matches_per_node");
    matches_per_node.record(ms.size());
    for (const Match& m : ms)
      for (NodeId s : m.pin_binding)
        ++pending_reads[static_cast<std::size_t>(s)];
  }

  // Candidate lists, one per (input node, pin timing): the deque keeps list
  // addresses stable, `free_lists` recycles the lists of finished inputs.
  std::deque<std::vector<InputCand>> list_pool;
  std::vector<std::vector<InputCand>*> free_lists;
  std::vector<std::vector<CandListEntry>> cand_memo(subject.capacity());
  std::size_t lists_built = 0;
  std::size_t lists_reused = 0;

  // Input `s`'s (t, cost) candidates through `pin`, sorted by t with
  // prefix-min cost: list[j].cost is the cheapest way to meet list[j].t.
  const auto cand_list = [&](NodeId s, const GatePin& pin)
      -> const std::vector<InputCand>& {
    std::vector<CandListEntry>& memo = cand_memo[static_cast<std::size_t>(s)];
    for (const CandListEntry& e : memo)
      if (e.intrinsic == pin.intrinsic && e.drive == pin.drive &&
          e.cap == pin.cap) {
        ++lists_reused;
        return *e.list;
      }
    ++lists_built;
    std::vector<InputCand>* list;
    if (free_lists.empty()) {
      list = &list_pool.emplace_back();
    } else {
      list = free_lists.back();
      free_lists.pop_back();
    }
    memo.push_back({pin.intrinsic, pin.drive, pin.cap, list});

    const Curve& in = curve[static_cast<std::size_t>(s)];
    MP_CHECK(!in.empty());
    const double load_shift = pin.cap - c_def;
    const int fo = subject.fanout_count(s);
    const bool divide = options.dag == DagHeuristic::kFanoutDivision &&
                        subject.node(s).is_internal() && fo > 1;
    std::vector<InputCand>& l = *list;
    l.clear();
    for (const CurvePoint& p : in.points()) {
      InputCand c;
      // Timing recalculation (Sec. 3.2.3): the input now drives this pin's
      // capacitance instead of the default load.
      c.t = pin.intrinsic + pin.drive * c_def +
            (p.arrival + load_shift * p.drive);
      c.cost = divide ? p.cost / fo : p.cost;
      if (options.objective == MapObjective::kPower &&
          options.accounting == PowerAccounting::kMethod1) {
        // Method 1 (Eq. 15): charge the input's output-load power here; the
        // fanout-edge term is never divided (Sec. 3.1 discussion).
        c.cost += load_power_uw(pin.cap, activity[static_cast<std::size_t>(s)],
                                options.vdd, options.t_cycle);
      }
      l.push_back(c);
    }
    std::sort(l.begin(), l.end(),
              [](const InputCand& a, const InputCand& b) { return a.t < b.t; });
    for (std::size_t j = 1; j < l.size(); ++j)
      l[j].cost = std::min(l[j].cost, l[j - 1].cost);
    return l;
  };

  // Scratch reused across matches/nodes: the inner loop runs millions of
  // times per pass, so per-match allocations dominate otherwise.
  std::vector<const std::vector<InputCand>*> cands;  // per pin
  std::vector<std::size_t> next;      // per pin: candidates with t_i <= t
  std::vector<Curve::Step> steps;     // the match's non-inferior envelope
  std::vector<CurvePoint> merge_scratch;

  // ---- postorder: power-delay / area-delay curves --------------------------
  for (NodeId id : topo) {
    budget_checkpoint("map");
    const Node& n = subject.node(id);
    if (n.is_pi() || n.is_const()) {
      CurvePoint p;
      if (n.is_pi()) {
        const auto it =
            std::find(subject.pis().begin(), subject.pis().end(), id);
        const std::size_t pi_index =
            static_cast<std::size_t>(it - subject.pis().begin());
        p.arrival = options.pi_arrival.empty() ? 0.0
                                               : options.pi_arrival[pi_index];
      }
      curve[static_cast<std::size_t>(id)].insert(p);
      continue;
    }

    const std::vector<Match>& ms = matches[static_cast<std::size_t>(id)];
    Curve& out = curve[static_cast<std::size_t>(id)];
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      const Match& m = ms[mi];
      const std::size_t k = m.gate->pins.size();
      cands.resize(k);
      for (std::size_t i = 0; i < k; ++i)
        cands[i] = &cand_list(m.pin_binding[i], m.gate->pins[i]);

      double base =
          options.objective == MapObjective::kArea ? m.gate->area : 0.0;
      if (options.objective == MapObjective::kPower &&
          options.accounting == PowerAccounting::kMethod2) {
        // Method 2 (Eq. 16): the node's own output power with the default
        // (unknown) load; inherits the fanout division of its readers.
        base += load_power_uw(c_def, activity[static_cast<std::size_t>(id)],
                              options.vdd, options.t_cycle);
      }
      // Monotone sweep over the distinct breakpoints t (all candidates' t,
      // ascending): next[i] counts pin i's candidates with t_i <= t, so
      // cands[i][next[i] - 1] is pin i's cheapest way to meet t. The summed
      // cost can only fall as t grows, so the match's non-inferior envelope
      // is the breakpoints where it strictly drops.
      next.assign(k, 0);
      steps.clear();
      for (;;) {
        bool more = false;
        double t = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          const std::vector<InputCand>& c = *cands[i];
          if (next[i] < c.size() && (!more || c[next[i]].t < t)) {
            t = c[next[i]].t;
            more = true;
          }
        }
        if (!more) break;
        bool ok = true;
        for (std::size_t i = 0; i < k; ++i) {
          const std::vector<InputCand>& c = *cands[i];
          while (next[i] < c.size() && c[next[i]].t <= t) ++next[i];
          ok = ok && next[i] > 0;
        }
        if (!ok) continue;
        // The same base and pin order at every t keep the sums bit-exact.
        double cost = base;
        for (std::size_t i = 0; i < k; ++i)
          cost += (*cands[i])[next[i] - 1].cost;
        if (!steps.empty() && cost >= steps.back().cost) continue;
        steps.push_back({t, cost});
      }
      const double drive = m.gate->max_drive();
      out.merge(steps, merge_scratch, [&](std::size_t, CurvePoint& p) {
        p.match = static_cast<int>(mi);
        p.drive = drive;
      });
    }
    const std::size_t before_prune = out.size();
    out.prune(options.epsilon_t, options.epsilon_c);
    if (options.max_curve_points != 0) out.downsample(options.max_curve_points);
    MP_CHECK(!out.empty());
    result.total_curve_points += out.size();
    points_pruned += before_prune - out.size();
    if (out.size() > result.max_curve_points) result.max_curve_points = out.size();

    // Recycle the candidate lists of inputs this node was the last to read.
    for (const Match& m : ms)
      for (NodeId s : m.pin_binding) {
        if (--pending_reads[static_cast<std::size_t>(s)] > 0) continue;
        std::vector<CandListEntry>& memo =
            cand_memo[static_cast<std::size_t>(s)];
        for (const CandListEntry& e : memo)
          free_lists.push_back(e.list);
        memo.clear();
      }
  }
  metrics::counter("map.match_attempts").add(result.total_matches);
  metrics::counter("map.cand_lists_built").add(lists_built);
  metrics::counter("map.cand_lists_reused").add(lists_reused);
  metrics::counter("map.curve_points_kept").add(result.total_curve_points);
  metrics::counter("map.curve_points_pruned").add(points_pruned);
  metrics::gauge("map.curve_points_max").record_max(result.max_curve_points);

  // ---- required times at the primary outputs -------------------------------
  std::vector<double> load(subject.capacity(), 0.0);  // committed loads
  for (const PrimaryOutput& po : subject.pos())
    load[static_cast<std::size_t>(po.driver)] += options.po_load;

  std::vector<double> required(subject.capacity(), kInf);
  result.po_required_used.resize(subject.pos().size(), kInf);
  for (std::size_t j = 0; j < subject.pos().size(); ++j) {
    const NodeId d = subject.pos()[j].driver;
    const Curve& c = curve[static_cast<std::size_t>(d)];
    double req = kInf;
    if (!options.po_required.empty()) {
      req = options.po_required[j];
    } else if (options.policy != RequiredTimePolicy::kUnconstrained) {
      // Fastest achievable arrival at this PO, accounting for the PO load.
      const double shift = load[static_cast<std::size_t>(d)] - c_def;
      double tmin = kInf;
      for (std::size_t i = 0; i < c.size(); ++i)
        tmin = std::min(tmin, c[i].arrival + shift * c[i].drive);
      req = options.policy == RequiredTimePolicy::kMinDelay
                ? tmin
                : tmin * options.relax_factor;
    }
    result.po_required_used[j] = req;
    auto& r = required[static_cast<std::size_t>(d)];
    r = std::min(r, req);
  }

  // ---- preorder (reverse-topological) gate selection ------------------------
  // Readers are selected before their inputs, so by the time a node is
  // selected every committed pin load on it is known exactly — the
  // incremental load recalculation of Sec. 3.3.
  std::vector<char> needed(subject.capacity(), 0);
  std::vector<int> chosen_point(subject.capacity(), -1);
  for (const PrimaryOutput& po : subject.pos())
    needed[static_cast<std::size_t>(po.driver)] = 1;

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    if (!needed[static_cast<std::size_t>(id)]) continue;
    const Node& n = subject.node(id);
    if (!n.is_internal()) continue;

    const Curve& c = curve[static_cast<std::size_t>(id)];
    const double shift = load[static_cast<std::size_t>(id)] - c_def;
    int idx = c.best_within(required[static_cast<std::size_t>(id)], shift);
    if (idx < 0) {
      // Timing infeasible: take the fastest realization.
      idx = 0;
      double best = kInf;
      for (std::size_t i = 0; i < c.size(); ++i) {
        const double t = c[i].arrival + shift * c[i].drive;
        if (t < best) {
          best = t;
          idx = static_cast<int>(i);
        }
      }
    }
    chosen_point[static_cast<std::size_t>(id)] = idx;

    const CurvePoint& p = c[static_cast<std::size_t>(idx)];
    const Match& m =
        matches[static_cast<std::size_t>(id)][static_cast<std::size_t>(p.match)];
    for (int i = 0; i < m.gate->num_inputs(); ++i) {
      const NodeId s = m.pin_binding[static_cast<std::size_t>(i)];
      needed[static_cast<std::size_t>(s)] = 1;
      load[static_cast<std::size_t>(s)] +=
          m.gate->pins[static_cast<std::size_t>(i)].cap;
      const double req_i = required[static_cast<std::size_t>(id)] -
                           m.gate->pins[static_cast<std::size_t>(i)].intrinsic -
                           m.gate->pins[static_cast<std::size_t>(i)].drive *
                               load[static_cast<std::size_t>(id)];
      auto& r = required[static_cast<std::size_t>(s)];
      r = std::min(r, req_i);
    }
  }

  // ---- emit the mapped netlist ----------------------------------------------
  MappedNetwork& mn = result.mapped;
  mn.subject = &subject;
  mn.lib = &lib;
  for (NodeId id : topo) {
    if (!needed[static_cast<std::size_t>(id)]) continue;
    if (chosen_point[static_cast<std::size_t>(id)] < 0) continue;
    const Curve& c = curve[static_cast<std::size_t>(id)];
    const CurvePoint& p =
        c[static_cast<std::size_t>(chosen_point[static_cast<std::size_t>(id)])];
    const Match& m =
        matches[static_cast<std::size_t>(id)][static_cast<std::size_t>(p.match)];
    MappedGateInst inst;
    inst.gate = m.gate;
    inst.root = id;
    inst.pin_nodes = m.pin_binding;
    mn.gates.push_back(std::move(inst));
  }
  for (const PrimaryOutput& po : subject.pos())
    mn.po_signal.push_back(po.driver);
  mn.check();
  span.arg("matches", static_cast<unsigned long long>(result.total_matches));
  span.arg("curve_points",
           static_cast<unsigned long long>(result.total_curve_points));
  return result;
}

}  // namespace minpower
