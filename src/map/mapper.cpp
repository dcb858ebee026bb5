#include "map/mapper.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"

namespace minpower {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A memoized candidate list of one input node for one pin timing. The list
/// depends on nothing else that varies within a pass, so equal keys mean
/// bit-identical lists.
struct CandListEntry {
  double intrinsic;
  double drive;
  double cap;
  std::vector<InputCand>* list;  // owned by the pass's list pool
};

/// The envelope a sweep builds. A breakpoint becomes a step when it is
/// strictly cheaper than the last step and no point of the node's curve
/// dominates it. Breakpoints come in ascending t, so a cursor over the
/// curve (arrival ascending, cost descending) reaches the cheapest point
/// no slower than t. Comparing against the last step kept rather than the
/// last one found is equivalent: whatever dominated a dropped step also
/// dominates any later breakpoint that is no cheaper than it.
class Envelope {
 public:
  Envelope(const Curve* curve, std::vector<Curve::Step>& steps)
      : steps_(steps) {
    if (curve == nullptr) return;
    first_ = curve->points().data();
    next_ = first_;
    end_ = first_ + curve->size();
  }

  void offer(double t, double cost) {
    if (!steps_.empty() && cost >= steps_.back().cost) return;
    while (next_ != end_ && next_->arrival <= t) ++next_;
    if (next_ != first_ && std::prev(next_)->cost <= cost) return;
    steps_.push_back({t, cost});
  }

 private:
  std::vector<Curve::Step>& steps_;
  const CurvePoint* first_ = nullptr;
  const CurvePoint* next_ = nullptr;  // first curve point slower than t
  const CurvePoint* end_ = nullptr;
};

/// Phase `map.curves`: the postorder pass (Sec. 3.2.1) building every
/// node's power-delay or area-delay curve from its matches.
std::vector<Curve> build_curves(const Network& subject,
                                const MapOptions& options,
                                const SubjectMatches& matches,
                                const std::vector<double>& activity,
                                const std::vector<NodeId>& topo, double c_def,
                                MapResult& result) {
  trace::Span span("map.curves", "map");
  std::vector<Curve> curve(subject.capacity());

  // Each node's count of pin bindings across all matches tells when its
  // last reader is done, so its candidate lists can be recycled.
  std::vector<int> pending_reads(subject.capacity(), 0);
  for (NodeId id : topo)
    for (const Match& m : matches[static_cast<std::size_t>(id)]) {
      ++result.total_matches;
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
  // Method 1 (Eq. 15) charges each input's output-load power at the
  // consuming match, one value per list; the fanout-edge term is never
  // divided (Sec. 3.1 discussion).
  const bool edge_power = options.objective == MapObjective::kPower &&
                          options.accounting == PowerAccounting::kMethod1;

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
    const double pin_delay = pin.intrinsic + pin.drive * c_def;
    const double load_shift = pin.cap - c_def;
    const int fo = subject.fanout_count(s);
    const bool divide = options.dag == DagHeuristic::kFanoutDivision &&
                        subject.node(s).is_internal() && fo > 1;
    const double edge =
        edge_power
            ? load_power_uw(pin.cap, activity[static_cast<std::size_t>(s)],
                            options.vdd, options.t_cycle)
            : 0.0;
    std::vector<InputCand>& l = *list;
    l.clear();
    for (const CurvePoint& p : in.points()) {
      // Timing recalculation (Sec. 3.2.3): the input now drives this pin's
      // capacitance instead of the default load.
      InputCand c{pin_delay + (p.arrival + load_shift * p.drive),
                  divide ? p.cost / fo : p.cost};
      if (edge_power) c.cost += edge;
      // Insertion sort: the curve is sorted by arrival and only the
      // per-point load shift reorders it, so entries move a short way.
      // Entries tied in t keep their curve order; any order would do, as
      // the sweep reads only the last entry of a tie, whose prefix
      // minimum covers them all.
      std::size_t j = l.size();
      l.push_back(c);
      for (; j > 0 && c.t < l[j - 1].t; --j) l[j] = l[j - 1];
      l[j] = c;
    }
    for (std::size_t j = 1; j < l.size(); ++j)
      l[j].cost = std::min(l[j].cost, l[j - 1].cost);
    return l;
  };

  // Scratch reused across matches/nodes: the inner loop runs millions of
  // times per pass, so per-match allocations dominate otherwise.
  std::vector<const std::vector<InputCand>*> cands;  // per pin
  std::vector<Curve::Step> steps;  // the match's non-inferior envelope
  std::vector<CurvePoint> merge_scratch;
  std::size_t points_pruned = 0;

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
      sweep_match(cands, base, &out, steps);
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
  metrics::counter("map.cand_lists_built").add(lists_built);
  metrics::counter("map.cand_lists_reused").add(lists_reused);
  metrics::counter("map.curve_points_kept").add(result.total_curve_points);
  metrics::counter("map.curve_points_pruned").add(points_pruned);
  metrics::gauge("map.curve_points_max").record_max(result.max_curve_points);
  return curve;
}

/// Phase `map.select`: required times at the primary outputs, then the
/// preorder (reverse-topological) gate selection (Sec. 3.2.2). Returns each
/// node's chosen curve point, −1 where no gate is rooted.
std::vector<int> select_points(const Network& subject,
                               const MapOptions& options,
                               const SubjectMatches& matches,
                               const std::vector<Curve>& curve,
                               const std::vector<NodeId>& topo, double c_def,
                               MapResult& result) {
  trace::Span span("map.select", "map");
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
  return chosen_point;
}

/// Phase `map.emit`: one gate instance per node with a chosen point, in
/// topological order.
void emit_netlist(const Network& subject, const Library& lib,
                  const SubjectMatches& matches,
                  const std::vector<Curve>& curve,
                  const std::vector<int>& chosen_point,
                  const std::vector<NodeId>& topo, MappedNetwork& mn) {
  trace::Span span("map.emit", "map");
  mn.subject = &subject;
  mn.lib = &lib;
  for (NodeId id : topo) {
    const int point = chosen_point[static_cast<std::size_t>(id)];
    if (point < 0) continue;
    const CurvePoint& p =
        curve[static_cast<std::size_t>(id)][static_cast<std::size_t>(point)];
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
}

}  // namespace

void sweep_match(std::span<const std::vector<InputCand>* const> pins,
                 double base, const Curve* curve,
                 std::vector<Curve::Step>& steps) {
  steps.clear();
  Envelope env(curve, steps);
  // next[i] counts pin i's candidates with t_i <= t, so pins[i][next[i] - 1]
  // is pin i's cheapest way to meet t. Breakpoints before the latest of the
  // pins' fastest candidates leave some pin unreachable, so the sweep
  // starts there.
  const std::size_t k = pins.size();
  if (k == 0) return;
  double t = -kInf;
  for (const std::vector<InputCand>* c : pins) {
    if (c->empty()) return;
    t = std::max(t, c->front().t);
  }
  std::size_t small[8] = {};
  std::vector<std::size_t> large;
  std::size_t* next = small;
  if (k > std::size(small)) {
    large.resize(k);
    next = large.data();
  }
  for (;;) {
    // Advance every pin past t; the smallest candidate left is the next
    // breakpoint.
    bool more = false;
    double t_next = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::vector<InputCand>& c = *pins[i];
      while (next[i] < c.size() && c[next[i]].t <= t) ++next[i];
      if (next[i] < c.size() && (!more || c[next[i]].t < t_next)) {
        t_next = c[next[i]].t;
        more = true;
      }
    }
    double cost = base;
    for (std::size_t i = 0; i < k; ++i) cost += (*pins[i])[next[i] - 1].cost;
    env.offer(t, cost);
    if (!more) break;
    t = t_next;
  }
}

MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options,
                      const SubjectMatches& matches) {
  trace::Span span("map", "map");
  span.arg("network", subject.name());
  metrics::counter("map.passes").add(1);
  MP_CHECK(matches.size() == subject.capacity());

  std::vector<double> computed;
  if (options.activities.empty())
    computed = switching_activities(subject, options.style, options.pi_prob1);
  const std::vector<double>& activity =
      options.activities.empty() ? computed : options.activities;
  MP_CHECK(activity.size() == subject.capacity());
  const double c_def = lib.default_load();
  const std::vector<NodeId> topo = subject.topo_order();

  MapResult result;
  const std::vector<Curve> curve =
      build_curves(subject, options, matches, activity, topo, c_def, result);
  const std::vector<int> chosen_point =
      select_points(subject, options, matches, curve, topo, c_def, result);
  emit_netlist(subject, lib, matches, curve, chosen_point, topo, result.mapped);
  span.arg("matches", static_cast<unsigned long long>(result.total_matches));
  span.arg("curve_points",
           static_cast<unsigned long long>(result.total_curve_points));
  return result;
}

MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options) {
  return map_network(subject, lib, options, enumerate_matches(subject, lib));
}

}  // namespace minpower
