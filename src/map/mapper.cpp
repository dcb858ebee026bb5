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
/// bit-identical lists. A node's entries form a chain through `next`.
struct CandListEntry {
  double intrinsic;
  double drive;
  double cap;
  std::vector<InputCand>* list;  // owned by the pass's list pool
  std::int32_t next;             // the node's next entry, or -1
};

/// The envelope a sweep builds. A breakpoint becomes a step when it is
/// strictly cheaper than the last step and no point of the node's curve
/// dominates it: no slower and no dearer, and of a lower match on an exact
/// tie (Curve::merge's order). Breakpoints come in ascending t, so a cursor
/// over the curve (arrival ascending, cost descending) reaches the cheapest
/// point no slower than t. Comparing against the last step kept rather
/// than the last one found is equivalent: whatever dominated a dropped
/// step also dominates any later breakpoint that is no cheaper than it.
class Envelope {
 public:
  Envelope(const Curve* curve, std::vector<Curve::Step>& steps)
      : steps_(steps) {
    if (curve == nullptr) return;
    first_ = curve->points().data();
    next_ = first_;
    end_ = first_ + curve->size();
  }

  void offer(double t, double cost, int match) {
    if (!steps_.empty() && cost >= steps_.back().cost) return;
    while (next_ != end_ && next_->arrival <= t) ++next_;
    if (next_ != first_) {
      const CurvePoint& p = *std::prev(next_);
      if (p.cost < cost ||
          (p.cost == cost && (p.arrival < t || p.match <= match)))
        return;
    }
    steps_.push_back({t, cost, match});
  }

  /// True once no breakpoint after t costing at least `floor` can become
  /// a step: the last step, or the cheapest curve point no slower than t,
  /// costs no more than `floor`. Such a point has arrival ≤ t, so it is
  /// strictly faster than any later breakpoint and wins an exact cost tie.
  bool closed(double t, double floor) {
    if (!steps_.empty() && steps_.back().cost <= floor) return true;
    while (next_ != end_ && next_->arrival <= t) ++next_;
    return next_ != first_ && std::prev(next_)->cost <= floor;
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
    for (const SubjectMatches::Entry& m : matches.at(id)) {
      ++result.total_matches;
      for (NodeId s : matches.pins(m))
        ++pending_reads[static_cast<std::size_t>(s)];
    }

  // Candidate lists, one per (input node, pin timing): the deque keeps list
  // addresses stable, `free_lists` recycles the lists of finished inputs.
  std::deque<std::vector<InputCand>> list_pool;
  std::vector<std::vector<InputCand>*> free_lists;
  // The memo: one flat entry store for the pass, each node's entries
  // chained from memo_head (-1: none). A recycled node's entries are just
  // unlinked; the store only grows, by one entry per list built.
  std::vector<CandListEntry> memo_entries;
  std::vector<std::int32_t> memo_head(subject.capacity(), -1);
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
    std::int32_t& head = memo_head[static_cast<std::size_t>(s)];
    for (std::int32_t i = head; i >= 0; i = memo_entries[i].next) {
      const CandListEntry& e = memo_entries[i];
      if (e.intrinsic == pin.intrinsic && e.drive == pin.drive &&
          e.cap == pin.cap) {
        ++lists_reused;
        return *e.list;
      }
    }
    ++lists_built;
    std::vector<InputCand>* list;
    if (free_lists.empty()) {
      list = &list_pool.emplace_back();
    } else {
      list = free_lists.back();
      free_lists.pop_back();
    }
    memo_entries.push_back({pin.intrinsic, pin.drive, pin.cap, list, head});
    head = static_cast<std::int32_t>(memo_entries.size() - 1);

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

  // Scratch reused across classes/nodes: the inner loop runs millions of
  // times per pass, so per-class allocations dominate otherwise. A node's
  // classes are gathered into the flat arrays below, each one a
  // ClassSlice of offsets into them, before any is swept.
  struct ClassSlice {
    std::size_t lists, num_lists;  // into `lists`
    std::size_t members, num_members;  // into `members`
    std::size_t order;  // into `order`: num_members × the gate's pin count
    const Gate* gate;
    double base;
    double floor;
  };
  std::vector<ClassSlice> classes;
  std::vector<const std::vector<InputCand>*> lists;
  std::vector<int> members;
  std::vector<std::uint32_t> order;
  const auto match_class = [&](const ClassSlice& s) -> MatchClass {
    return {std::span(lists).subspan(s.lists, s.num_lists),
            std::span(members).subspan(s.members, s.num_members),
            std::span(order).subspan(s.order,
                                     s.num_members * s.gate->pins.size())};
  };
  std::vector<std::uint32_t> next_member;
  std::vector<std::size_t> last_member;
  std::vector<Curve::Step> steps;  // the class's non-inferior envelope
  std::vector<CurvePoint> merge_scratch;
  std::size_t points_pruned = 0;
  std::size_t breakpoints = 0;
  std::size_t sweeps_closed = 0;

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

    const std::span<const SubjectMatches::Entry> ms = matches.at(id);
    Curve& out = curve[static_cast<std::size_t>(id)];
    // Link each class's members in index order: the member after j is
    // next_member[j], or 0 after the last (match 0 follows no match).
    next_member.assign(ms.size(), 0);
    last_member.resize(ms.size());
    for (std::size_t mj = 0; mj < ms.size(); ++mj) {
      const std::size_t c = ms[mj].cls;
      if (c != mj) next_member[last_member[c]] = static_cast<std::uint32_t>(mj);
      last_member[c] = mj;
    }
    // Pass 1: gather each class, at its first member, with its floor.
    classes.clear();
    lists.clear();
    members.clear();
    order.clear();
    for (std::size_t mi = 0; mi < ms.size(); ++mi) {
      if (ms[mi].cls != mi) continue;
      const Gate& g = *ms[mi].gate;
      const std::size_t k = g.pins.size();
      ClassSlice s{lists.size(), 0, members.size(), 0, order.size(), &g,
                   0.0, 0.0};
      std::size_t mj = mi;
      do {
        members.push_back(static_cast<int>(mj));
        const std::span<const NodeId> bound = matches.pins(ms[mj]);
        for (std::size_t i = 0; i < k; ++i) {
          const std::vector<InputCand>* l = &cand_list(bound[i], g.pins[i]);
          const auto first =
              lists.begin() + static_cast<std::ptrdiff_t>(s.lists);
          const auto at = std::find(first, lists.end(), l);
          order.push_back(static_cast<std::uint32_t>(at - first));
          if (at == lists.end()) lists.push_back(l);
        }
        mj = next_member[mj];
      } while (mj != 0);
      s.num_lists = lists.size() - s.lists;
      s.num_members = members.size() - s.members;

      s.base = options.objective == MapObjective::kArea ? g.area : 0.0;
      if (options.objective == MapObjective::kPower &&
          options.accounting == PowerAccounting::kMethod2) {
        // Method 2 (Eq. 16): the node's own output power with the default
        // (unknown) load; inherits the fanout division of its readers.
        s.base += load_power_uw(c_def, activity[static_cast<std::size_t>(id)],
                                options.vdd, options.t_cycle);
      }
      s.floor = class_floor(match_class(s), s.base);
      classes.push_back(s);
    }

    // Pass 2: sweep and merge the classes cheapest floor first, so the
    // curve soon holds a point at which the dearer classes' sweeps stop.
    // The node's curve does not depend on the order (DESIGN §5).
    std::sort(classes.begin(), classes.end(),
              [&](const ClassSlice& a, const ClassSlice& b) {
                return a.floor != b.floor
                           ? a.floor < b.floor
                           : members[a.members] < members[b.members];
              });
    for (const ClassSlice& s : classes) {
      const SweepStats swept =
          sweep_class(match_class(s), s.base, &out, steps);
      breakpoints += swept.breakpoints;
      sweeps_closed += swept.closed ? 1 : 0;
      const double drive = s.gate->max_drive();
      out.merge(steps, merge_scratch, [&](std::size_t j, CurvePoint& p) {
        p.match = steps[j].match;
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
    for (const SubjectMatches::Entry& m : ms)
      for (NodeId s : matches.pins(m)) {
        if (--pending_reads[static_cast<std::size_t>(s)] > 0) continue;
        std::int32_t& head = memo_head[static_cast<std::size_t>(s)];
        for (; head >= 0; head = memo_entries[head].next)
          free_lists.push_back(memo_entries[head].list);
      }
  }
  metrics::counter("map.cand_lists_built").add(lists_built);
  metrics::counter("map.cand_lists_reused").add(lists_reused);
  metrics::counter("map.curve_points_kept").add(result.total_curve_points);
  metrics::counter("map.curve_points_pruned").add(points_pruned);
  metrics::counter("map.breakpoints").add(breakpoints);
  metrics::counter("map.sweeps_closed").add(sweeps_closed);
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
    const SubjectMatches::Entry& m =
        matches.at(id)[static_cast<std::size_t>(p.match)];
    const std::span<const NodeId> bound = matches.pins(m);
    for (int i = 0; i < m.gate->num_inputs(); ++i) {
      const NodeId s = bound[static_cast<std::size_t>(i)];
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
    const SubjectMatches::Entry& m =
        matches.at(id)[static_cast<std::size_t>(p.match)];
    const std::span<const NodeId> bound = matches.pins(m);
    MappedGateInst inst;
    inst.gate = m.gate;
    inst.root = id;
    inst.pin_nodes.assign(bound.begin(), bound.end());
    mn.gates.push_back(std::move(inst));
  }
  for (const PrimaryOutput& po : subject.pos())
    mn.po_signal.push_back(po.driver);
  mn.check();
}

}  // namespace

SweepStats sweep_class(const MatchClass& c, double base, const Curve* curve,
                       std::vector<Curve::Step>& steps) {
  steps.clear();
  SweepStats stats;
  Envelope env(curve, steps);
  // next[i] counts list i's candidates with t_i <= t, so lists[i][next[i] -
  // 1] is list i's cheapest way to meet t. Breakpoints before the latest of
  // the lists' fastest candidates leave some pin unreachable, so the sweep
  // starts there.
  const std::size_t n = c.lists.size();
  if (n == 0) return stats;
  const std::size_t k = c.order.size() / c.members.size();
  double t = -kInf;
  for (const std::vector<InputCand>* l : c.lists) {
    if (l->empty()) return stats;
    t = std::max(t, l->front().t);
  }
  std::size_t small_next[8] = {};
  double small_cost[8];
  std::vector<std::size_t> large_next;
  std::vector<double> large_cost;
  std::size_t* next = small_next;
  double* cost = small_cost;
  if (n > std::size(small_next)) {
    large_next.resize(n);
    large_cost.resize(n);
    next = large_next.data();
    cost = large_cost.data();
  }
  // Member m's own pin-order sum of base and the costs in `cost`.
  const auto sum = [&](std::size_t m) {
    const std::uint32_t* pin = c.order.data() + m * k;
    double s = base;
    for (std::size_t i = 0; i < k; ++i) s += cost[pin[i]];
    return s;
  };
  const double floor = class_floor(c, base);
  for (;;) {
    // Advance every list past t; the smallest candidate left is the next
    // breakpoint.
    bool more = false;
    double t_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<InputCand>& l = *c.lists[i];
      while (next[i] < l.size() && l[next[i]].t <= t) ++next[i];
      if (next[i] < l.size() && (!more || l[next[i]].t < t_next)) {
        t_next = l[next[i]].t;
        more = true;
      }
      cost[i] = l[next[i] - 1].cost;
    }
    // The first strictly smallest member sum wins.
    double best = sum(0);
    std::size_t winner = 0;
    for (std::size_t m = 1; m < c.members.size(); ++m)
      if (const double s = sum(m); s < best) {
        best = s;
        winner = m;
      }
    env.offer(t, best, c.members[winner]);
    ++stats.breakpoints;
    if (!more) break;
    if (env.closed(t, floor)) {
      stats.closed = true;
      break;
    }
    t = t_next;
  }
  return stats;
}

double class_floor(const MatchClass& c, double base) {
  const std::size_t k = c.order.size() / c.members.size();
  double floor = kInf;
  for (std::size_t m = 0; m < c.members.size(); ++m) {
    double s = base;
    for (std::size_t i = 0; i < k; ++i)
      s += c.lists[c.order[m * k + i]]->back().cost;
    floor = std::min(floor, s);
  }
  return floor;
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
