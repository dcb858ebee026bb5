#include "flow/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>

#include "decomp/package_merge.hpp"
#include "prob/probability.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/budget.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace minpower {

namespace {

/// The stage-0 product of one circuit: its source network's per-node signal
/// probabilities, which every decomposition group of the circuit reads.
struct SourcePass {
  std::vector<double> prob;
  double ms = 0.0;
  TaskStatus status;
};

/// One decomposed subject network shared by a method pair — the stage-1
/// product. Its status starts from the circuit's source status.
struct DecompGroup {
  NetworkDecompResult nd;
  std::vector<double> activities;
  SubjectMatches matches;  // enumerate_matches(nd.network), for both methods
  ActivityPassStats astats;
  double decomp_ms = 0.0;  // includes the circuit's shared source pass
  double activity_ms = 0.0;
  double match_ms = 0.0;  // counted in both methods' map_ms
  TaskStatus status;
  int exact_fallbacks = 0;
};

/// The read-only inputs every task of one run shares.
struct RunInputs {
  const Library& lib;
  const FlowOptions& flow;
  const std::vector<FaultInjection>& injections;

  /// Per-task budget: the FlowOptions limits with a BDD node cap of
  /// `bdd_cap`, plus the fault injections armed against this task's
  /// deterministic ordinal.
  Budget budget(long ordinal, std::string label, std::size_t bdd_cap) const {
    Budget b;
    b.bdd_node_limit = bdd_cap;
    if (flow.task_deadline_ms > 0.0)
      b.deadline = Budget::Clock::now() +
                   std::chrono::duration_cast<Budget::Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           flow.task_deadline_ms));
    b.step_limit = flow.task_step_limit;
    b.ordinal = ordinal;
    b.label = std::move(label);
    b.arm(injections);
    return b;
  }
};

/// Structured reason string for a blown budget: leads with the stable site
/// identifier and the BDD-cap watermark that was active when the limit
/// fired, so flow reports (and the sharded sidecar) show *which* limit at
/// *what* setting killed the task without parsing free-form text.
std::string exhausted_reason(const ResourceExhausted& e,
                             std::size_t bdd_cap) {
  return "resource-exhausted site=" + e.site() +
         " bdd_limit=" + std::to_string(bdd_cap) + ": " + e.what();
}

/// Report a finished task's status on stderr: whole lines only, under one
/// mutex, so concurrent tasks never interleave partial output.
void report_status(const char* stage, const std::string& label,
                   const TaskStatus& status) {
  std::string line = "[flow] ";
  line += stage;
  line += ' ';
  line += label;
  line += ' ';
  line += task_state_name(status.state);
  if (status.retries > 0) line += " retries=" + std::to_string(status.retries);
  for (const std::string& f : status.fallbacks) line += " fallback=" + f;
  if (!status.reason.empty()) line += " (" + status.reason + ")";
  line += '\n';
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fputs(line.c_str(), stderr);
}

std::uint64_t us_since(std::chrono::steady_clock::time_point t0) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

/// What a finished task reports: its label and the status slot it wrote.
struct TaskSlot {
  std::string label;
  const TaskStatus* status;
};

/// Run one fan-out stage: `task(t, span)` for every slot t in `tasks`, each
/// inside its own `stage` span carrying the task's queue wait. The task
/// names itself in the span's args and returns its TaskSlot, which a
/// verbose run reports. `threads` workers claim tasks from an atomic
/// counter; each task writes only its own slot, so results are independent
/// of the interleaving.
template <typename Task>
void run_stage(const char* stage, const std::vector<std::size_t>& tasks,
               unsigned threads, bool verbose, const Task& task) {
  const auto stage_t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      trace::Span span(stage, "engine");
      span.arg("queue_wait_us", us_since(stage_t0));
      const TaskSlot slot = task(tasks[i], span);
      if (verbose) report_status(stage, slot.label, *slot.status);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::min<std::size_t>(threads, tasks.size());
       ++t)
    pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// One stage's work plan over its slots. A slot is skipped (resolved before
/// planning), owns its key (computed: listed in `compute`, in slot order),
/// or aliases the first owner of the same key (`alias[t]` is that owner;
/// every other slot aliases itself).
struct StagePlan {
  std::vector<std::size_t> alias;
  std::vector<std::size_t> compute;
};

/// Plan one work unit per slot of `keys`: `skip(t)` resolves slot t without
/// computing it (not needed, or a cache hit); the remaining slots are
/// deduplicated by key. Without sharing every slot is computed, so every
/// slot of the fault-injection ordinal scheme stays a live task.
template <typename Skip>
StagePlan plan_stage(const std::vector<Hash128>& keys, bool share,
                     const Skip& skip) {
  const std::size_t slots = keys.size();
  StagePlan p;
  p.alias.resize(slots);
  p.compute.reserve(slots);
  std::unordered_map<Hash128, std::size_t, Hash128Fold> owner;
  for (std::size_t t = 0; t < slots; ++t) {
    p.alias[t] = t;
    if (!share) {
      p.compute.push_back(t);
      continue;
    }
    if (skip(t)) continue;
    const auto [it, fresh] = owner.try_emplace(keys[t], t);
    if (fresh)
      p.compute.push_back(t);
    else
      p.alias[t] = it->second;
  }
  return p;
}

/// Mark `status` degraded and record fallback `name` once.
void note_fallback(TaskStatus& status, const char* name) {
  status.state = TaskState::kDegraded;
  for (const std::string& f : status.fallbacks)
    if (f == name) return;
  status.fallbacks.push_back(name);
}

/// The degradation ladder of one BDD probability pass: `pass()` under the
/// budget of task `ordinal` at the full BDD node cap, one retry at half the
/// cap, then the BDD-free `fallback()` (Monte-Carlo probabilities),
/// recorded as "mc-activity". A deadline and any other error — the
/// fallback's included — fail the task instead.
template <typename Pass, typename Fallback>
void run_ladder(const RunInputs& in, long ordinal, const std::string& label,
                TaskStatus& status, const Pass& pass,
                const Fallback& fallback) {
  const auto fail = [&status](std::string reason) {
    status.state = TaskState::kFailed;
    status.reason = std::move(reason);
  };
  std::size_t cap = in.flow.bdd_node_limit;  // watermark of the latest try
  const auto attempt = [&] {
    Budget budget = in.budget(ordinal, label, cap);
    BudgetScope scope(budget);
    pass();
  };
  try {
    try {
      attempt();
    } catch (const ResourceExhausted& e) {
      if (e.site() == "deadline") throw;
      status.retries += 1;
      cap = std::max<std::size_t>(cap / 2, 2);
      attempt();
    }
  } catch (const ResourceExhausted& e) {
    if (e.site() == "deadline") return fail(exhausted_reason(e, cap));
    try {
      fallback();
    } catch (const std::exception& e2) {
      return fail(e2.what());
    }
    if (status.reason.empty()) status.reason = exhausted_reason(e, cap);
    note_fallback(status, "mc-activity");
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

/// Stage-0 work of one circuit: the source network's signal probabilities
/// (the paper's calculate_switching_and_correlation_probabilities(Γ)),
/// under the degradation ladder.
void compute_source(const RunInputs& in, const Network& net, long ordinal,
                    const std::string& label, SourcePass& s) {
  const auto t0 = std::chrono::steady_clock::now();
  run_ladder(
      in, ordinal, label, s.status,
      [&] { s.prob = signal_probabilities(net, in.flow.pi_prob1); },
      [&] {
        // MC signal probabilities: activity under kDynamicP is P(=1).
        s.prob = monte_carlo_activities(net, CircuitStyle::kDynamicP,
                                        in.flow.pi_prob1);
      });
  s.ms = elapsed_ms_since(t0);
}

/// Stage-1 work of decomposition group `group` of `net`: decompose over the
/// circuit's stage-0 probabilities (no BDDs), run the activity pass over
/// the subject under the degradation ladder, each under its own budget
/// ("<circuit>/decomp[g]", "<circuit>/activity[g]"), then enumerate the
/// subject's matches for both of the group's methods. A group of a circuit
/// whose source pass failed inherits the failure and does no work.
void compute_group(const RunInputs& in, const Network& net, std::size_t group,
                   long ordinal, const std::string& decomp_label,
                   const SourcePass& source, DecompGroup& g) {
  const FlowOptions& flow = in.flow;
  g.status = source.status;
  if (g.status.state == TaskState::kFailed) return;
  const auto fail = [&g](std::string reason) {
    g.status.state = TaskState::kFailed;
    g.status.reason = std::move(reason);
  };
  // Group g serves methods g and g + 3 (I/IV balanced, II/V MINPOWER,
  // III/VI BH-MINPOWER); kMethods[g] derives the group's shared options.
  NetworkDecompOptions d = decomp_options_for(kMethods[group], flow);
  d.node_prob = source.prob;
  reset_bounded_exact_fallbacks();
  try {
    Budget budget = in.budget(ordinal, decomp_label, flow.bdd_node_limit);
    BudgetScope scope(budget);
    const auto t0 = std::chrono::steady_clock::now();
    g.nd = decompose_network(net, d);
    g.decomp_ms = source.ms + elapsed_ms_since(t0);
  } catch (const ResourceExhausted& e) {
    return fail(exhausted_reason(e, flow.bdd_node_limit));
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  g.exact_fallbacks = static_cast<int>(bounded_exact_fallbacks());
  if (g.exact_fallbacks > 0) note_fallback(g.status, "greedy-ladder");

  const auto t0 = std::chrono::steady_clock::now();
  run_ladder(
      in, ordinal, net.name() + "/activity[" + std::to_string(group) + "]",
      g.status,
      [&] {
        g.activities = switching_activities(g.nd.network, flow.style,
                                            flow.pi_prob1, &g.astats);
      },
      [&] {
        g.activities =
            monte_carlo_activities(g.nd.network, flow.style, flow.pi_prob1);
      });
  g.activity_ms = elapsed_ms_since(t0);
  if (g.status.state == TaskState::kFailed) return;
  try {
    const auto t0 = std::chrono::steady_clock::now();
    g.matches = enumerate_matches(g.nd.network, in.lib);
    g.match_ms = elapsed_ms_since(t0);
  } catch (const std::exception& e) {
    fail(std::string("match enumeration: ") + e.what());
  }
}

/// Stage-2 work of `method` over its group's shared subject `g`: map with
/// the method's objective and evaluate, under the task's own budget. The
/// result inherits the group's status; a method whose group failed
/// inherits the failure and is not mapped.
FlowResult map_method(const RunInputs& in, const Network& prepared,
                      Method method, const DecompGroup& g, long ordinal,
                      const std::string& label) {
  FlowResult r;
  r.circuit = prepared.name();
  r.method = method;
  r.status = g.status;
  r.phases.decomp_ms = g.decomp_ms;
  r.phases.activity_ms = g.activity_ms;
  r.phases.bdd_nodes = g.astats.bdd_nodes;
  r.phases.shared_decomp = true;
  r.phases.shared_activity = true;
  r.phases.decomp_passes = 3;
  r.phases.activity_passes = 3;
  r.phases.exact_fallbacks = g.exact_fallbacks;
  r.phases.activity_retries = g.status.retries;

  if (g.status.state == TaskState::kFailed) {
    r.status.reason = "decomposition/activity failed: " + g.status.reason;
    return r;
  }
  r.tree_activity = g.nd.tree_activity;
  r.nand_depth = g.nd.unit_depth;
  r.nand_nodes = g.nd.network.num_internal();
  r.redecomposed = g.nd.redecomposed_nodes;
  r.phases.redecomp_iterations = g.nd.redecomposed_nodes;

  const auto fail = [&r](std::string reason) {
    r.status.state = TaskState::kFailed;
    r.status.reason = std::move(reason);
    r.area = r.delay = r.power_uw = 0.0;
    r.gates = 0;
  };
  try {
    Budget budget = in.budget(ordinal, label, in.flow.bdd_node_limit);
    BudgetScope scope(budget);

    MapOptions m = map_options_for(method, in.flow);
    m.activities = g.activities;
    auto t0 = std::chrono::steady_clock::now();
    const MapResult mapped = map_network(g.nd.network, in.lib, m, g.matches);
    r.phases.map_ms = g.match_ms + elapsed_ms_since(t0);
    r.phases.matches = mapped.total_matches;
    r.phases.curve_points = mapped.total_curve_points;

    t0 = std::chrono::steady_clock::now();
    const MappedReport rep =
        evaluate_mapped(mapped.mapped, PowerParams::from(m));
    r.phases.eval_ms = elapsed_ms_since(t0);
    r.area = rep.area;
    r.delay = rep.delay;
    r.power_uw = rep.power_uw;
    r.gates = rep.num_gates;
  } catch (const ResourceExhausted& e) {
    fail(exhausted_reason(e, in.flow.bdd_node_limit));
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return r;
}

/// Task-outcome metrics over the executed tasks (cache hits and batch
/// duplicates did not run). Retries and fallbacks are counted in the stage
/// that took them: a group's status starts from its circuit's source
/// status, so only what it added counts in stage 1, and stage-2 results
/// inherit the group status and count nothing.
void count_task_outcomes(const std::vector<std::size_t>& stage0,
                         const std::vector<SourcePass>& sources,
                         const std::vector<std::size_t>& stage1,
                         const std::vector<DecompGroup>& groups,
                         const std::vector<std::size_t>& stage2,
                         const std::vector<std::vector<FlowResult>>& out) {
  std::uint64_t by_state[3] = {0, 0, 0};  // TaskState order
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t exact_fb = 0;
  for (const std::size_t c : stage0) {
    const TaskStatus& s = sources[c].status;
    ++by_state[static_cast<int>(s.state)];
    retries += static_cast<std::uint64_t>(s.retries);
    fallbacks += s.fallbacks.size();
  }
  for (const std::size_t t : stage1) {
    const DecompGroup& g = groups[t];
    const TaskStatus& source = sources[t / 3].status;
    ++by_state[static_cast<int>(g.status.state)];
    retries += static_cast<std::uint64_t>(g.status.retries - source.retries);
    fallbacks += g.status.fallbacks.size() - source.fallbacks.size();
    exact_fb += static_cast<std::uint64_t>(g.exact_fallbacks);
  }
  for (const std::size_t t : stage2)
    ++by_state[static_cast<int>(out[t / 6][t % 6].status.state)];
  metrics::counter("engine.tasks_ok").add(by_state[0]);
  metrics::counter("engine.tasks_degraded").add(by_state[1]);
  metrics::counter("engine.tasks_failed").add(by_state[2]);
  metrics::counter("engine.retries").add(retries);
  metrics::counter("engine.fallbacks").add(fallbacks);
  metrics::counter("engine.exact_fallbacks").add(exact_fb);
}

/// Work key: structural hash ⊕ option fingerprint ⊕ a work-unit tag
/// (decomposition group 0–2 for stage 1, 8+method index for stage 2).
Hash128 work_key(const Hash128& net, const Hash128& opts, std::uint64_t tag) {
  StreamHash s;
  s.h128(net);
  s.h128(opts);
  s.u64(tag);
  return s.digest();
}

}  // namespace

Hash128 structural_hash(const Network& net) {
  // Per-node hashes derive from fanin hashes, so they are independent of
  // declaration order; the network hash combines PI and PO contributions as
  // sorted multisets, so it is too.
  std::vector<Hash128> h(net.capacity());
  for (NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    StreamHash s;
    switch (node.kind) {
      case NodeKind::kPrimaryInput:
        s.u64(1);
        s.str(node.name);  // PI names bind option vectors; internal names
                           // never participate
        break;
      case NodeKind::kConstant0:
        s.u64(2);
        break;
      case NodeKind::kConstant1:
        s.u64(3);
        break;
      case NodeKind::kInternal: {
        s.u64(4);
        s.u64(node.fanins.size());
        for (const NodeId f : node.fanins)
          s.h128(h[static_cast<std::size_t>(f)]);
        // Canonical cover: cube order is irrelevant to the function, so a
        // sorted copy makes the hash independent of it. Fanin order stays
        // significant (it binds cover variables) — permuting fanins with a
        // remapped cover misses the cache, which is safe.
        std::vector<Cube> cubes = node.cover.cubes();
        std::sort(cubes.begin(), cubes.end());
        s.u64(cubes.size());
        for (const Cube& c : cubes) {
          s.u64(c.pos());
          s.u64(c.neg());
        }
        break;
      }
      case NodeKind::kDead:
        continue;  // tombstones never reach topo_order, but be explicit
    }
    h[static_cast<std::size_t>(id)] = s.digest();
  }

  std::vector<Hash128> pi_h;
  pi_h.reserve(net.pis().size());
  for (const NodeId pi : net.pis()) pi_h.push_back(h[static_cast<std::size_t>(pi)]);
  std::sort(pi_h.begin(), pi_h.end());

  std::vector<Hash128> po_h;
  po_h.reserve(net.pos().size());
  for (const PrimaryOutput& po : net.pos()) {
    StreamHash s;
    s.u64(5);
    s.str(po.name);
    s.h128(po.driver == kNoNode ? Hash128{}
                                : h[static_cast<std::size_t>(po.driver)]);
    po_h.push_back(s.digest());
  }
  std::sort(po_h.begin(), po_h.end());

  StreamHash s;
  s.u64(0x6d70'6e65'7477'6f72ULL);  // "mpnetwor" domain tag
  s.u64(pi_h.size());
  for (const Hash128& x : pi_h) s.h128(x);
  s.u64(po_h.size());
  for (const Hash128& x : po_h) s.h128(x);
  return s.digest();
}

Hash128 option_fingerprint(const FlowOptions& o, const Network& net) {
  StreamHash s;
  s.u64(0x6d70'6f70'7469'6f6eULL);  // "mpoption" domain tag
  s.u64(static_cast<std::uint64_t>(o.style));
  s.f64(o.vdd);
  s.f64(o.t_cycle);
  s.f64(o.po_load);
  s.f64(o.epsilon_t);
  s.f64(o.epsilon_c);
  s.u64(o.max_curve_points);
  s.u64(static_cast<std::uint64_t>(o.policy));
  s.f64(o.relax_factor);
  s.u64(static_cast<std::uint64_t>(o.dag));
  // Budget limits shape degradation outcomes, so they are part of the key.
  s.u64(o.bdd_node_limit);
  s.f64(o.task_deadline_ms);
  s.u64(o.task_step_limit);

  // Per-PI statistics, bound by PI name in sorted-name order: a permuted
  // netlist with correspondingly permuted vectors fingerprints identically,
  // and an explicit all-default vector matches the empty one.
  struct PiStat {
    const std::string* name;
    double prob;
    double arrival;
  };
  std::vector<PiStat> stats;
  stats.reserve(net.pis().size());
  for (std::size_t i = 0; i < net.pis().size(); ++i) {
    const Node& pi = net.node(net.pis()[i]);
    stats.push_back({&pi.name, i < o.pi_prob1.size() ? o.pi_prob1[i] : 0.5,
                     i < o.pi_arrival.size() ? o.pi_arrival[i] : 0.0});
  }
  std::sort(stats.begin(), stats.end(),
            [](const PiStat& a, const PiStat& b) { return *a.name < *b.name; });
  s.u64(stats.size());
  for (const PiStat& p : stats) {
    s.str(*p.name);
    s.f64(p.prob);
    s.f64(p.arrival);
  }
  return s.digest();
}

FlowSession::FlowSession(const Library& lib, EngineOptions options,
                         SessionOptions session)
    : lib_(lib), options_(std::move(options)), session_options_(session) {
  if (session_options_.enable_cache)
    cache_ = std::make_unique<LruCache<FlowResult>>(
        session_options_.result_cache_capacity);
}

FlowSession::~FlowSession() = default;

unsigned FlowSession::effective_threads() const {
  if (options_.num_threads != 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

SessionStats FlowSession::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

EngineCounters FlowSession::counters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

void FlowSession::reset_counters() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  counters_ = EngineCounters{};
}

std::vector<FlowResult> FlowSession::run_circuit(const Network& prepared) {
  return run_circuit(prepared, options_.flow, nullptr);
}

std::vector<FlowResult> FlowSession::run_circuit(const Network& prepared,
                                                 const FlowOptions& flow,
                                                 SessionStats* delta) {
  const Network* one[] = {&prepared};
  std::vector<std::vector<FlowResult>> rs =
      run_suite(std::vector<const Network*>(one, one + 1), flow, delta);
  return std::move(rs.front());
}

std::vector<std::vector<FlowResult>> FlowSession::run_suite(
    const std::vector<const Network*>& circuits, SessionStats* delta) {
  return run_suite(circuits, options_.flow, delta);
}

std::vector<std::vector<FlowResult>> FlowSession::run_suite(
    const std::vector<const Network*>& circuits, const FlowOptions& flow,
    SessionStats* delta) {
  const std::size_t n = circuits.size();
  const unsigned threads = effective_threads();

  // Armed faults: explicit options first, then the environment hook.
  std::vector<FaultInjection> injections = options_.injections;
  for (FaultInjection& f : fault_injections_from_env())
    injections.push_back(std::move(f));
  const RunInputs in{lib_, flow, injections};

  // Identical work units are shared within the batch (and, when caching is
  // on, method results across runs). Armed faults disable both, so every
  // task ordinal in the injection scheme stays a live task.
  const bool share = injections.empty();
  const bool cached = share && session_options_.enable_cache;
  SessionStats run_stats;

  // Work keys of the stage-1 slots (group g of circuit i: tag g) and of
  // the stage-2 slots (method m: tag 8 + m).
  std::vector<Hash128> key1(n * 3);
  std::vector<Hash128> key2(n * 6);
  if (share)
    for (std::size_t i = 0; i < n; ++i) {
      const Hash128 net = structural_hash(*circuits[i]);
      const Hash128 opts = option_fingerprint(flow, *circuits[i]);
      for (std::size_t g = 0; g < 3; ++g)
        key1[i * 3 + g] = work_key(net, opts, g);
      for (std::size_t m = 0; m < 6; ++m)
        key2[i * 6 + m] = work_key(net, opts, 8 + m);
    }

  // ---- result lookup: resolve whole (subject × method) results from the
  // cache before any planning. A fully warm circuit runs no stage at all.
  std::vector<std::vector<FlowResult>> out(n, std::vector<FlowResult>(6));
  std::vector<char> resolved(n * 6, 0);
  if (cached)
    for (std::size_t t = 0; t < n * 6; ++t) {
      if (auto hit = cache_->lookup(key2[t])) {
        FlowResult r = *hit;
        r.circuit = circuits[t / 6]->name();
        out[t / 6][t % 6] = std::move(r);
        resolved[t] = 1;
        ++run_stats.result_hits;
      }
    }

  // ---- stage 1 planning: one decomposition + one activity pass per
  // *distinct* subject still needed by an unresolved method (serially, so
  // results and counters are independent of thread count). Group g serves
  // methods g and g+3. --------------------------------------------------------
  const StagePlan plan1 = plan_stage(key1, share, [&](std::size_t t) {
    const std::size_t first = (t / 3) * 6 + t % 3;
    return resolved[first] && resolved[first + 3];
  });

  // ---- stage 0: one source probability pass per circuit with a group to
  // compute (plan1.compute is in slot order, so a circuit's groups are
  // adjacent). ----------------------------------------------------------------
  std::vector<std::size_t> stage0;
  for (const std::size_t t : plan1.compute)
    if (stage0.empty() || stage0.back() != t / 3) stage0.push_back(t / 3);
  std::vector<SourcePass> sources(n);
  run_stage("stage0", stage0, threads, options_.verbose,
            [&](std::size_t c, trace::Span& span) {
              const Network& net = *circuits[c];
              const std::string label = net.name() + "/source";
              span.arg("task", label);
              span.arg("circuit", net.name());
              compute_source(in, net, static_cast<long>(9 * n + c), label,
                             sources[c]);
              return TaskSlot{label, &sources[c].status};
            });

  // ---- stage 1: each group is fault-isolated — a blown budget degrades or
  // fails this group only (compute_group). ------------------------------------
  std::vector<DecompGroup> groups(n * 3);
  run_stage("stage1", plan1.compute, threads, options_.verbose,
            [&](std::size_t t, trace::Span& span) {
              const Network& net = *circuits[t / 3];
              const std::string label =
                  net.name() + "/decomp[" + std::to_string(t % 3) + "]";
              span.arg("task", label);
              span.arg("circuit", net.name());
              span.arg("group", static_cast<unsigned long long>(t % 3));
              compute_group(in, net, t % 3, static_cast<long>(t), label,
                            sources[t / 3], groups[t]);
              return TaskSlot{label, &groups[t].status};
            });

  // ---- stage 2 planning: map + evaluate each *distinct* (subject ×
  // method) not already resolved from the cache; duplicates reuse the
  // result with the circuit name rewritten. -----------------------------------
  const StagePlan plan2 = plan_stage(
      key2, share, [&](std::size_t t) { return resolved[t] != 0; });
  if (cached) run_stats.result_misses += plan2.compute.size();

  // ---- stage 2 over the shared subjects (map_method). ---------------------
  run_stage("stage2", plan2.compute, threads, options_.verbose,
            [&](std::size_t t, trace::Span& span) {
              const Network& net = *circuits[t / 6];
              const Method method = kMethods[t % 6];
              const std::string label =
                  net.name() + "/map[" + method_name(method) + "]";
              span.arg("task", label);
              span.arg("circuit", net.name());
              span.arg("method", method_name(method));
              FlowResult& r = out[t / 6][t % 6];
              r = map_method(in, net, method,
                             groups[plan1.alias[t / 6 * 3 + t % 3]],
                             static_cast<long>(3 * n + t), label);
              return TaskSlot{label, &r.status};
            });
  for (const std::size_t t : plan2.compute) {
    const FlowResult& r = out[t / 6][t % 6];
    if (cached && r.status.state != TaskState::kFailed)
      run_stats.evictions +=
          cache_->insert(key2[t], std::make_shared<const FlowResult>(r));
  }
  for (std::size_t t = 0; t < n * 6; ++t) {
    const std::size_t owner = plan2.alias[t];
    if (owner == t) continue;
    FlowResult r = out[owner / 6][owner % 6];
    r.circuit = circuits[t / 6]->name();
    out[t / 6][t % 6] = std::move(r);
  }

  count_task_outcomes(stage0, sources, plan1.compute, groups, plan2.compute,
                      out);
  if (cached) {
    // Mirror cache traffic into the registry (serve dashboards); uncached
    // one-shot runs never touch these names, keeping their metrics block
    // byte-compatible with committed baselines.
    metrics::counter("session.result_hits").add(run_stats.result_hits);
    metrics::counter("session.result_misses").add(run_stats.result_misses);
    metrics::counter("session.evictions").add(run_stats.evictions);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.decomp_passes += static_cast<int>(plan1.compute.size());
    counters_.activity_passes += static_cast<int>(plan1.compute.size());
    counters_.map_passes += static_cast<int>(plan2.compute.size());
    stats_.result_hits += run_stats.result_hits;
    stats_.result_misses += run_stats.result_misses;
    stats_.evictions += run_stats.evictions;
  }
  if (delta != nullptr) *delta = run_stats;
  return out;
}

TaskTally tally_tasks(const std::vector<std::vector<FlowResult>>& per_circuit) {
  TaskTally t;
  for (const std::vector<FlowResult>& methods : per_circuit)
    for (const FlowResult& r : methods) {
      switch (r.status.state) {
        case TaskState::kOk: ++t.ok; break;
        case TaskState::kDegraded: ++t.degraded; break;
        case TaskState::kFailed: ++t.failed; break;
      }
      t.retries += static_cast<std::uint64_t>(
          r.status.retries < 0 ? 0 : r.status.retries);
    }
  return t;
}

void write_flow_json(std::ostream& os,
                     const std::vector<std::vector<FlowResult>>& per_circuit,
                     const EngineCounters& counters, unsigned num_threads,
                     double elapsed_ms, const std::string& library_name,
                     const FlowJsonPolicy& policy) {
  // Task rollup: every (circuit × method) result carries the status of the
  // tasks that produced it.
  const TaskTally tasks = tally_tasks(per_circuit);
  auto worst_of = [](const std::vector<FlowResult>& methods) {
    TaskState worst = TaskState::kOk;
    for (const FlowResult& r : methods)
      if (static_cast<int>(r.status.state) > static_cast<int>(worst))
        worst = r.status.state;
    return worst;
  };
  const auto wall = [&policy](double ms) {
    return policy.zero_wall_times ? 0.0 : ms;
  };

  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.flow.v1");
  w.field("library", library_name);
  w.field("num_threads", num_threads);
  w.field("elapsed_ms", wall(elapsed_ms));
  w.key("engine");
  w.begin_object();
  w.field("decomp_passes", counters.decomp_passes);
  w.field("activity_passes", counters.activity_passes);
  w.field("map_passes", counters.map_passes);
  w.end_object();
  w.key("tasks");
  w.begin_object();
  w.field("ok", tasks.ok);
  w.field("degraded", tasks.degraded);
  w.field("failed", tasks.failed);
  w.end_object();
  if (policy.include_metrics) {
    w.key("metrics");
    metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
  }
  w.key("circuits");
  w.begin_array();
  for (const std::vector<FlowResult>& methods : per_circuit) {
    w.begin_object();
    w.field("name", methods.empty() ? std::string() : methods.front().circuit);
    w.field("status", task_state_name(worst_of(methods)));
    w.key("methods");
    w.begin_array();
    for (const FlowResult& r : methods) write_flow_result_json(w, r, policy);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_canonical_flow_json(
    std::ostream& os, const std::vector<std::vector<FlowResult>>& per_circuit,
    unsigned num_threads, const std::string& library_name) {
  const int n = static_cast<int>(per_circuit.size());
  EngineCounters counters;
  counters.decomp_passes = 3 * n;
  counters.activity_passes = 3 * n;
  counters.map_passes = 6 * n;
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  write_flow_json(os, per_circuit, counters, num_threads, /*elapsed_ms=*/0.0,
                  library_name, policy);
}

void write_flow_result_json(JsonWriter& w, const FlowResult& r,
                            const FlowJsonPolicy& policy) {
  const auto wall = [&policy](double ms) {
    return policy.zero_wall_times ? 0.0 : ms;
  };
  w.begin_object();
  w.field("method", method_name(r.method));
  w.field("area", r.area);
  w.field("delay_ns", r.delay);
  w.field("power_uw", r.power_uw);
  w.field("gates", r.gates);
  w.field("tree_activity", r.tree_activity);
  w.field("nand_depth", r.nand_depth);
  w.field("nand_nodes", r.nand_nodes);
  w.field("redecomposed", r.redecomposed);
  w.key("status");
  w.begin_object();
  w.field("state", task_state_name(r.status.state));
  w.field("reason", r.status.reason);
  w.field("retries", r.status.retries);
  w.key("fallbacks");
  w.begin_array();
  for (const std::string& f : r.status.fallbacks) w.value(f);
  w.end_array();
  w.end_object();
  w.key("phases");
  w.begin_object();
  w.field("decomp_ms", wall(r.phases.decomp_ms));
  w.field("activity_ms", wall(r.phases.activity_ms));
  w.field("map_ms", wall(r.phases.map_ms));
  w.field("eval_ms", wall(r.phases.eval_ms));
  w.field("bdd_nodes", r.phases.bdd_nodes);
  w.field("matches", r.phases.matches);
  w.field("curve_points", r.phases.curve_points);
  w.field("redecomp_iterations", r.phases.redecomp_iterations);
  w.field("shared_decomp", r.phases.shared_decomp);
  w.field("shared_activity", r.phases.shared_activity);
  w.field("decomp_passes", r.phases.decomp_passes);
  w.field("activity_passes", r.phases.activity_passes);
  w.field("exact_fallbacks", r.phases.exact_fallbacks);
  w.field("activity_retries", r.phases.activity_retries);
  w.end_object();
  w.end_object();
}

namespace {

const JsonValue* cell_member(const JsonValue& obj, const char* key,
                             JsonValue::Kind kind, std::string* error) {
  const JsonValue* v = obj.find(key, kind);
  if (v == nullptr)
    set_error(error, std::string("missing or mistyped field '") + key + "'");
  return v;
}

bool cell_number(const JsonValue& obj, const char* key, double* out,
                 std::string* error) {
  const JsonValue* v =
      cell_member(obj, key, JsonValue::Kind::kNumber, error);
  if (v == nullptr) return false;
  *out = v->number;
  return true;
}

template <typename T>
bool cell_integer(const JsonValue& obj, const char* key, T* out,
                  std::string* error) {
  const JsonValue* v =
      cell_member(obj, key, JsonValue::Kind::kNumber, error);
  if (v == nullptr) return false;
  const std::optional<T> i = json_integer<T>(v->number);
  if (!i)
    return set_error(error, std::string("field '") + key +
                                "' is not an integer in range");
  *out = *i;
  return true;
}

bool cell_bool(const JsonValue& obj, const char* key, bool* out,
               std::string* error) {
  const JsonValue* v = cell_member(obj, key, JsonValue::Kind::kBool, error);
  if (v == nullptr) return false;
  *out = v->boolean;
  return true;
}

}  // namespace

bool parse_flow_result_json(const JsonValue& v, FlowResult* out,
                            std::string* error) {
  *out = FlowResult{};
  if (v.kind != JsonValue::Kind::kObject)
    return set_error(error, "method cell is not an object");
  const JsonValue* method =
      cell_member(v, "method", JsonValue::Kind::kString, error);
  if (method == nullptr) return false;
  if (!method_from_name(method->string, &out->method))
    return set_error(error, "unknown method '" + method->string + "'");
  if (!cell_number(v, "area", &out->area, error) ||
      !cell_number(v, "delay_ns", &out->delay, error) ||
      !cell_number(v, "power_uw", &out->power_uw, error) ||
      !cell_integer(v, "gates", &out->gates, error) ||
      !cell_number(v, "tree_activity", &out->tree_activity, error) ||
      !cell_integer(v, "nand_depth", &out->nand_depth, error) ||
      !cell_integer(v, "nand_nodes", &out->nand_nodes, error) ||
      !cell_integer(v, "redecomposed", &out->redecomposed, error))
    return false;

  const JsonValue* status =
      cell_member(v, "status", JsonValue::Kind::kObject, error);
  if (status == nullptr) return false;
  const JsonValue* state =
      cell_member(*status, "state", JsonValue::Kind::kString, error);
  if (state == nullptr) return false;
  if (!task_state_from_name(state->string, &out->status.state))
    return set_error(error, "unknown task state '" + state->string + "'");
  const JsonValue* reason =
      cell_member(*status, "reason", JsonValue::Kind::kString, error);
  if (reason == nullptr) return false;
  out->status.reason = reason->string;
  if (!cell_integer(*status, "retries", &out->status.retries, error))
    return false;
  const JsonValue* fallbacks =
      cell_member(*status, "fallbacks", JsonValue::Kind::kArray, error);
  if (fallbacks == nullptr) return false;
  for (const JsonValue& f : fallbacks->items) {
    if (f.kind != JsonValue::Kind::kString)
      return set_error(error, "non-string fallback entry");
    out->status.fallbacks.push_back(f.string);
  }

  const JsonValue* phases =
      cell_member(v, "phases", JsonValue::Kind::kObject, error);
  if (phases == nullptr) return false;
  PhaseStats& p = out->phases;
  return cell_number(*phases, "decomp_ms", &p.decomp_ms, error) &&
         cell_number(*phases, "activity_ms", &p.activity_ms, error) &&
         cell_number(*phases, "map_ms", &p.map_ms, error) &&
         cell_number(*phases, "eval_ms", &p.eval_ms, error) &&
         cell_integer(*phases, "bdd_nodes", &p.bdd_nodes, error) &&
         cell_integer(*phases, "matches", &p.matches, error) &&
         cell_integer(*phases, "curve_points", &p.curve_points, error) &&
         cell_integer(*phases, "redecomp_iterations", &p.redecomp_iterations,
                      error) &&
         cell_bool(*phases, "shared_decomp", &p.shared_decomp, error) &&
         cell_bool(*phases, "shared_activity", &p.shared_activity, error) &&
         cell_integer(*phases, "decomp_passes", &p.decomp_passes, error) &&
         cell_integer(*phases, "activity_passes", &p.activity_passes, error) &&
         cell_integer(*phases, "exact_fallbacks", &p.exact_fallbacks, error) &&
         cell_integer(*phases, "activity_retries", &p.activity_retries, error);
}

bool parse_flow_json(const JsonValue& doc, FlowDoc* out, std::string* error) {
  *out = FlowDoc{};
  using Kind = JsonValue::Kind;
  const JsonValue* library = cell_member(doc, "library", Kind::kString, error);
  if (library == nullptr ||
      !cell_integer(doc, "num_threads", &out->num_threads, error) ||
      !cell_number(doc, "elapsed_ms", &out->elapsed_ms, error))
    return false;
  out->library = library->string;
  const JsonValue* engine = cell_member(doc, "engine", Kind::kObject, error);
  EngineCounters& c = out->counters;
  if (engine == nullptr ||
      !cell_integer(*engine, "decomp_passes", &c.decomp_passes, error) ||
      !cell_integer(*engine, "activity_passes", &c.activity_passes, error) ||
      !cell_integer(*engine, "map_passes", &c.map_passes, error))
    return false;
  if (const JsonValue* metrics = doc.find("metrics")) {
    std::string metrics_error;
    std::optional<metrics::Snapshot> snapshot =
        trace::parse_metrics_value(*metrics, &metrics_error);
    if (!snapshot) return set_error(error, "metrics: " + metrics_error);
    out->metrics = std::move(*snapshot);
  }

  const JsonValue* circuits = cell_member(doc, "circuits", Kind::kArray, error);
  if (circuits == nullptr) return false;
  for (std::size_t ci = 0; ci < circuits->items.size(); ++ci) {
    const JsonValue& circuit = circuits->items[ci];
    const std::string where = "circuits[" + std::to_string(ci) + "]";
    if (circuit.kind != Kind::kObject)
      return set_error(error, where + " is not an object");
    std::string cell_error;
    const JsonValue* name =
        cell_member(circuit, "name", Kind::kString, &cell_error);
    const JsonValue* methods =
        name == nullptr
            ? nullptr
            : cell_member(circuit, "methods", Kind::kArray, &cell_error);
    if (methods == nullptr) return set_error(error, where + ": " + cell_error);
    std::vector<FlowResult>& row = out->per_circuit.emplace_back();
    for (std::size_t mi = 0; mi < methods->items.size(); ++mi) {
      FlowResult& r = row.emplace_back();
      if (!parse_flow_result_json(methods->items[mi], &r, &cell_error))
        return set_error(error, where + " '" + name->string + "' methods[" +
                                    std::to_string(mi) + "]: " + cell_error);
      r.circuit = name->string;
    }
  }
  return true;
}

}  // namespace minpower
