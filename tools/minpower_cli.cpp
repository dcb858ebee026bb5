// minpower — command-line driver for the low-power synthesis library.
//
//   minpower stats  <in.blif>                      network statistics
//   minpower opt    <in.blif> [-o out.blif] [--power]
//                                                  rugged-lite optimization
//   minpower decomp <in.blif> [-o out.blif] [-a balanced|minpower]
//                   [--bounded] [--style static|dynp|dynn]
//                                                  NAND decomposition
//   minpower map    <in.blif> [-o mapped.blif] [-O power|area]
//                   [--genlib lib.genlib] [--relax F] [--sim]
//                                                  full flow + mapping report
//   minpower flow   <in.blif>... [--genlib lib.genlib] [--threads N]
//                   [--json out.json] [--deadline-ms T] [--bdd-limit N]
//                   [--trace out.trace.json] [--metrics-out F] [--verbose]
//                   [--shards N] [--journal F] [--resume F]
//                   [--shard-retries N] [--backoff-ms T]
//                   [--heartbeat-ms T] [--heartbeat-timeout-ms T]
//                   [--mem-limit-mb N] [--map-curve-cap N]
//                                                  run Methods I–VI per circuit,
//                                                  print table (+ JSON, + Chrome
//                                                  trace for chrome://tracing).
//                                                  --shards forks crash-isolated
//                                                  worker processes (DESIGN.md
//                                                  §14); --journal logs each
//                                                  completed cell, --resume
//                                                  skips cells already in a
//                                                  journal. With --shards,
//                                                  --trace merges one pid lane
//                                                  per worker plus supervisor
//                                                  lifecycle instants, and
//                                                  --metrics-out writes the
//                                                  folded worker registries
//                                                  (DESIGN.md §15)
//   minpower verify [--seed N] [--count N] [--json out.json]
//                                                  differential verification
//                                                  harness (seeded oracles)
//   minpower verify <a.blif> <b.blif>              combinational equivalence
//   minpower bench  <name> [-o out.blif]           emit a suite circuit
//   minpower profile <trace.json> [--json out.json] [--top N]
//                                                  trace profiler: hotspots,
//                                                  thread utilization,
//                                                  critical path
//                                                  (minpower.profile.v1)
//   minpower compare <baseline.json> <candidate.json>
//                   [--json out.json] [--qor-rel-tol X] [--qor-abs-tol X]
//                   [--time-band F] [--require-all] [--qor-only]
//                                                  QoR/perf regression gate
//                                                  over two minpower.flow.v1
//                                                  reports
//                                                  (minpower.compare.v1)
//   minpower trend  <traj.jsonl>... [--baseline ref.jsonl] [--json out.json]
//                   [--time-band F] [--mem-band F] [--slope-band F]
//                                                  scale-trajectory gate:
//                                                  fits per-family log-log
//                                                  slopes of wall time /
//                                                  peak RSS / peak BDD bytes
//                                                  vs gates over
//                                                  minpower.bench_trajectory
//                                                  .v1 points (bench_flow
//                                                  --scale/--append), and
//                                                  with --baseline enforces
//                                                  per-point ratio bands and
//                                                  slope bands
//                                                  (minpower.trend.v1)
//   minpower serve  [--port N] [--host H] [--workers N] [--deadline-ms T]
//                   [--bdd-limit N] [--idle-timeout-ms T]
//                   [--genlib lib.genlib] [--verbose]
//                   [--access-log log.jsonl]
//                                                  persistent synthesis
//                                                  service with cross-request
//                                                  caching (port 0 =
//                                                  ephemeral; the bound port
//                                                  is printed on stdout).
//                                                  SIGTERM/SIGINT drain
//                                                  gracefully: in-flight
//                                                  requests finish, stats are
//                                                  flushed to stderr.
//                                                  --access-log appends one
//                                                  JSONL object per request;
//                                                  the METRICS verb answers
//                                                  Prometheus exposition
//   minpower client --port N [--host H] <in.blif>... [--json out.json]
//                   [--deadline-ms T] [--bdd-limit N] [--stats] [--shutdown]
//                   [--retries N] [--retry-ms T] [--timeout-ms T]
//                                                  submit circuits to a
//                                                  running server; responses
//                                                  are merged into one
//                                                  minpower.flow.v1 document.
//                                                  --retries adds capped
//                                                  jittered backoff on refused
//                                                  connections and retryable
//                                                  (busy/draining) errors
//
// Every subcommand reads plain BLIF; `map -o` writes the SIS .gate dialect.
//
// Exit codes: 0 = success; 2 = completed with partial/degraded results
// (some flow tasks degraded or failed, or verification found failures);
// 3 = `compare` or `trend` found a regression; 1 = fatal error (bad usage,
// unreadable input, internal error).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "io/blif.hpp"
#include "io/mapped_blif.hpp"
#include "map/mapper.hpp"
#include "opt/optimize.hpp"
#include "power/report.hpp"
#include "power/resize.hpp"
#include "power/simulate.hpp"
#include "prob/sequential.hpp"
#include "report/baseline.hpp"
#include "report/trend.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "shard/supervisor.hpp"
#include "sop/factor.hpp"
#include "util/budget.hpp"
#include "trace/analysis.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

using namespace minpower;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> out;
  std::optional<std::string> genlib;
  std::string algorithm = "minpower";
  std::string objective = "power";
  std::string style = "static";
  bool bounded = false;
  bool power_opt = false;
  bool simulate = false;
  bool resize = false;
  bool sequential = false;
  double relax = 1.15;
  unsigned threads = 1;
  std::optional<std::string> json;
  std::uint64_t seed = 1;
  int count = 200;
  double deadline_ms = 0.0;
  std::size_t bdd_limit = 0;  // 0 → library default
  std::optional<std::string> trace;
  std::optional<std::string> metrics_out;  // flow: metrics sidecar file
  std::optional<std::string> access_log;   // serve: JSONL access log
  bool verbose = false;
  int top = 10;               // profile hotspot rows
  double qor_rel_tol = 0.0;   // compare: exact QoR lock by default
  double qor_abs_tol = 0.0;
  double time_band = 0.20;    // compare/trend: allowed slowdown (+20%)
  bool require_all = false;   // compare: missing cells are regressions
  bool qor_only = false;      // compare: skip the metrics-registry block
  std::optional<std::string> baseline;  // trend: reference trajectory
  double mem_band = 0.25;     // trend: allowed per-point memory growth
  double slope_band = 0.15;   // trend: allowed fitted-slope increase
  std::size_t mem_limit_mb = 0;  // flow --shards: per-worker RSS watermark
  std::size_t map_curve_cap = 0;  // flow: per-node mapper curve width cap
  std::uint16_t port = 0;     // serve/client: 0 = unset (serve → ephemeral)
  std::string host = "127.0.0.1";
  unsigned workers = 4;       // serve: request worker threads
  bool client_stats = false;     // client: print server stats after requests
  bool client_shutdown = false;  // client: ask the server to exit at the end
  unsigned shards = 0;           // flow: >0 forks worker processes
  std::optional<std::string> journal;  // flow: write shard journal here
  std::optional<std::string> resume;   // flow: skip cells already journaled
  int shard_retries = 2;         // flow: worker restarts per circuit
  int backoff_ms = 100;          // flow: restart backoff base
  int heartbeat_ms = 250;        // flow: worker heartbeat period
  int heartbeat_timeout_ms = 10'000;  // flow: silence before SIGKILL
  int idle_timeout_ms = 60'000;  // serve: idle-connection reaper (0 = off)
  int client_retries = 0;        // client: retry budget per connect/request
  int retry_ms = 100;            // client: retry backoff base
  int timeout_ms = 0;            // client: per-response timeout (0 = none)
};

/// Fatal usage / input problems throw; main() turns them into exit code 1.
[[noreturn]] void fatal(const std::string& message) {
  throw std::runtime_error(message);
}

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) {
      if (i + 1 >= argc) fatal(std::string(flag) + " needs a value");
      return std::string(argv[++i]);
    };
    // A numeric flag's whole value must parse as its field's type: no
    // trailing text, no sign on an unsigned field, in range.
    auto number = [&](auto* out) {
      const std::string text = value(arg.c_str());
      const auto v = parse_number<std::remove_pointer_t<decltype(out)>>(text);
      if (!v) fatal(arg + " needs a number, got '" + text + "'");
      *out = *v;
    };
    // A keyword flag's value must be one of its listed choices.
    auto choice = [&](std::initializer_list<const char*> allowed) {
      const std::string text = value(arg.c_str());
      std::string list;
      for (const char* c : allowed) {
        if (text == c) return text;
        list += (list.empty() ? "" : "|") + std::string(c);
      }
      fatal(arg + " must be " + list + ", got '" + text + "'");
    };
    if (arg == "-o") a.out = value("-o");
    else if (arg == "--genlib") a.genlib = value("--genlib");
    else if (arg == "-a") a.algorithm = choice({"minpower", "balanced"});
    else if (arg == "-O") a.objective = choice({"power", "area"});
    else if (arg == "--style") a.style = value("--style");
    else if (arg == "--relax") number(&a.relax);
    else if (arg == "--threads") number(&a.threads);
    else if (arg == "--json") a.json = value("--json");
    else if (arg == "--seed") number(&a.seed);
    else if (arg == "--count") number(&a.count);
    else if (arg == "--deadline-ms") {
      number(&a.deadline_ms);
      if (a.deadline_ms < 0.0)
        fatal(arg + " must not be negative, got '" + argv[i] + "'");
    }
    else if (arg == "--bdd-limit") number(&a.bdd_limit);
    else if (arg == "--trace") a.trace = value("--trace");
    else if (arg == "--metrics-out") a.metrics_out = value("--metrics-out");
    else if (arg == "--access-log") a.access_log = value("--access-log");
    else if (arg == "--verbose") a.verbose = true;
    else if (arg == "--top") number(&a.top);
    else if (arg == "--qor-rel-tol") number(&a.qor_rel_tol);
    else if (arg == "--qor-abs-tol") number(&a.qor_abs_tol);
    else if (arg == "--time-band") number(&a.time_band);
    else if (arg == "--require-all") a.require_all = true;
    else if (arg == "--qor-only") a.qor_only = true;
    else if (arg == "--baseline") a.baseline = value("--baseline");
    else if (arg == "--mem-band") number(&a.mem_band);
    else if (arg == "--slope-band") number(&a.slope_band);
    else if (arg == "--mem-limit-mb") number(&a.mem_limit_mb);
    else if (arg == "--map-curve-cap") number(&a.map_curve_cap);
    else if (arg == "--port") number(&a.port);
    else if (arg == "--host") a.host = value("--host");
    else if (arg == "--workers") number(&a.workers);
    else if (arg == "--stats") a.client_stats = true;
    else if (arg == "--shutdown") a.client_shutdown = true;
    else if (arg == "--shards") number(&a.shards);
    else if (arg == "--journal") a.journal = value("--journal");
    else if (arg == "--resume") a.resume = value("--resume");
    else if (arg == "--shard-retries") number(&a.shard_retries);
    else if (arg == "--backoff-ms") number(&a.backoff_ms);
    else if (arg == "--heartbeat-ms") number(&a.heartbeat_ms);
    else if (arg == "--heartbeat-timeout-ms") number(&a.heartbeat_timeout_ms);
    else if (arg == "--idle-timeout-ms") number(&a.idle_timeout_ms);
    else if (arg == "--retries") number(&a.client_retries);
    else if (arg == "--retry-ms") number(&a.retry_ms);
    else if (arg == "--timeout-ms") number(&a.timeout_ms);
    else if (arg == "--bounded") a.bounded = true;
    else if (arg == "--power") a.power_opt = true;
    else if (arg == "--sim") a.simulate = true;
    else if (arg == "--resize") a.resize = true;
    else if (arg == "--seq") a.sequential = true;
    else a.positional.push_back(arg);
  }
  return a;
}

CircuitStyle style_of(const std::string& s) {
  if (s == "static") return CircuitStyle::kStatic;
  if (s == "dynp") return CircuitStyle::kDynamicP;
  if (s == "dynn") return CircuitStyle::kDynamicN;
  fatal("style must be static|dynp|dynn");
}

Library load_library(const Args& a) {
  if (!a.genlib) return Library::parse_genlib(standard_library_genlib(), "mp-lib2");
  std::ifstream in(*a.genlib);
  if (!in.good()) fatal("cannot open genlib file " + *a.genlib);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Library lib = Library::parse_genlib(text, *a.genlib);
  if (!lib.has_base_gates())
    fatal("genlib " + *a.genlib + " needs an inverter and a 2-input NAND");
  return lib;
}

/// Read one BLIF input; malformed or missing files are fatal (exit 1), with
/// the parser's structured diagnostic instead of an abort.
Network load_blif(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) fatal("cannot open BLIF file " + path);
  BlifError err;
  std::optional<Network> net = try_read_blif(in, &err);
  if (!net) fatal(path + ": " + err.to_string());
  return std::move(*net);
}

void emit_blif(const Network& net, const std::optional<std::string>& path) {
  if (path) {
    std::ofstream out(*path);
    if (!out.good()) fatal("cannot open output file " + *path);
    write_blif(net, out);
  } else {
    write_blif(net, std::cout);
  }
}

int cmd_stats(const Args& a) {
  if (a.positional.empty()) fatal("stats needs a BLIF file");
  const Network net = load_blif(a.positional.at(0));
  int fact_lits = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
    if (net.node(id).is_internal())
      fact_lits += factored_literals(net.node(id).cover);
  const auto latches = infer_latches(net);
  std::printf("%-10s pis=%zu pos=%zu nodes=%zu literals=%d (factored %d) "
              "depth=%d latches=%zu\n",
              net.name().c_str(), net.pis().size(), net.pos().size(),
              net.num_internal(), net.num_literals(), fact_lits, net.depth(),
              latches.size());
  if (!latches.empty()) {
    const auto seq = sequential_pi_probabilities(net, latches);
    std::printf("state-line fixpoint (%s after %d iterations):",
                seq.converged ? "converged" : "NOT converged",
                seq.iterations);
    for (const LatchBinding& l : latches)
      std::printf(" %s=%.3f",
                  net.node(net.pis()[l.pi_index]).name.c_str(),
                  seq.pi_prob1[l.pi_index]);
    std::printf("\n");
  }
  return 0;
}

int cmd_opt(const Args& a) {
  if (a.positional.empty()) fatal("opt needs a BLIF file");
  Network net = load_blif(a.positional.at(0));
  const OptStats stats =
      a.power_opt ? rugged_lite_power(net) : rugged_lite(net);
  std::fprintf(stderr,
               "eliminated=%d cube_divisors=%d kernel_divisors=%d "
               "split=%d swept=%d → %zu nodes, %d literals\n",
               stats.eliminated, stats.cube_divisors, stats.kernel_divisors,
               stats.split_nodes, stats.swept, net.num_internal(),
               net.num_literals());
  emit_blif(net, a.out);
  return 0;
}

int cmd_decomp(const Args& a) {
  if (a.positional.empty()) fatal("decomp needs a BLIF file");
  Network net = load_blif(a.positional.at(0));
  prepare_network(net);
  NetworkDecompOptions o;
  o.style = style_of(a.style);
  o.algorithm = a.algorithm == "balanced" ? DecompAlgorithm::kBalanced
                                          : DecompAlgorithm::kMinPower;
  o.bounded_height = a.bounded;
  const NetworkDecompResult r = decompose_network(net, o);
  std::fprintf(stderr,
               "nand_nodes=%zu depth=%d tree_activity=%.4f redecomposed=%d\n",
               r.network.num_internal(), r.unit_depth, r.tree_activity,
               r.redecomposed_nodes);
  emit_blif(r.network, a.out);
  return 0;
}

int cmd_map(const Args& a) {
  if (a.positional.empty()) fatal("map needs a BLIF file");
  Network net = load_blif(a.positional.at(0));
  std::vector<double> pi_prob;
  if (a.sequential) {
    const auto latches = infer_latches(net);
    const auto seq = sequential_pi_probabilities(net, latches);
    pi_prob = seq.pi_prob1;
    std::fprintf(stderr, "sequential fixpoint: %zu latches, %s\n",
                 latches.size(), seq.converged ? "converged" : "NOT converged");
  }
  prepare_network(net);
  const Library lib = load_library(a);

  NetworkDecompOptions d;
  d.style = style_of(a.style);
  d.algorithm = DecompAlgorithm::kMinPower;
  // PI sets may shrink during optimization only by death of unused PIs; the
  // PI list order is stable, so sequential probabilities still line up.
  if (!pi_prob.empty()) d.pi_prob1 = pi_prob;
  const NetworkDecompResult nd = decompose_network(net, d);

  MapOptions m;
  if (!pi_prob.empty()) m.pi_prob1 = pi_prob;
  m.objective =
      a.objective == "area" ? MapObjective::kArea : MapObjective::kPower;
  m.style = style_of(a.style);
  m.relax_factor = a.relax;
  MapResult r = map_network(nd.network, lib, m);
  if (a.resize) {
    ResizeOptions ro;
    ro.power = PowerParams::from(m);
    const ResizeResult rr = downsize_gates(r.mapped, ro);
    std::fprintf(stderr, "resize: %d swaps, %.1f -> %.1f uW\n", rr.swaps,
                 rr.power_before, rr.power_after);
  }
  const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(m));
  std::fprintf(stderr,
               "gates=%zu area=%.0f delay=%.2fns power=%.1fuW (zero-delay)\n",
               rep.num_gates, rep.area, rep.delay, rep.power_uw);
  if (a.simulate) {
    SimPowerParams sp;
    sp.base = PowerParams::from(m);
    const SimPowerReport sim = simulate_power(r.mapped, sp);
    std::fprintf(stderr, "glitch-aware power=%.1fuW (factor %.2f)\n",
                 sim.power_uw, sim.glitch_factor);
  }
  if (a.out) {
    std::ofstream out(*a.out);
    if (!out.good()) fatal("cannot open output file " + *a.out);
    write_mapped_blif(r.mapped, out);
  } else {
    write_mapped_blif(r.mapped, std::cout);
  }
  return 0;
}

/// Print the per-cell result table (stdout) and non-ok task diagnostics
/// (stderr); shared by the in-process and sharded flow paths.
TaskTally print_flow_table(
    const std::vector<std::vector<FlowResult>>& per_circuit) {
  std::printf("%-10s %-8s %8s %8s %10s %7s %-9s\n", "circuit", "method",
              "area", "delay", "power", "gates", "status");
  for (const std::vector<FlowResult>& rs : per_circuit)
    for (const FlowResult& r : rs) {
      std::printf("%-10s %-8s %8.0f %8.2f %10.1f %7zu %-9s\n",
                  r.circuit.c_str(), method_name(r.method), r.area, r.delay,
                  r.power_uw, r.gates, task_state_name(r.status.state));
      if (r.status.state != TaskState::kOk)
        std::fprintf(stderr, "task %s/%s: %s (%s%s; retries=%d)\n",
                     r.circuit.c_str(), method_name(r.method),
                     task_state_name(r.status.state), r.status.reason.c_str(),
                     r.status.fallbacks.empty()
                         ? ""
                         : ("; fallback " + r.status.fallbacks.back()).c_str(),
                     r.status.retries);
    }
  return tally_tasks(per_circuit);
}

/// `flow --shards N` / `--resume F`: the crash-isolated multi-process path
/// (DESIGN.md §14). Process-fault injection sites come from the environment
/// so the supervisor — not the in-process engine — arms them.
int cmd_flow_sharded(const Args& a,
                     const std::vector<const Network*>& circuits,
                     const Library& lib) {
  // Enable tracing before the supervisor forks: workers inherit the flag
  // (and the tracer origin) and ship their spans back over the pipe.
  if (a.trace) trace::set_enabled(true);
  shard::ShardOptions so;
  so.shards = a.shards > 0 ? a.shards : 2;
  so.worker_threads = a.threads;
  so.heartbeat_ms = a.heartbeat_ms;
  so.heartbeat_timeout_ms = a.heartbeat_timeout_ms;
  so.max_circuit_retries = a.shard_retries;
  so.backoff_ms = a.backoff_ms;
  so.mem_limit_mb = a.mem_limit_mb;
  if (a.journal) so.journal_path = *a.journal;
  if (a.resume) {
    so.resume_path = *a.resume;
    // Resuming without an explicit --journal keeps extending the same file.
    if (!a.journal) so.journal_path = *a.resume;
  }
  so.injections = fault_injections_from_env();
  so.verbose = a.verbose;

  FlowOptions flow;
  flow.task_deadline_ms = a.deadline_ms;
  flow.max_curve_points = a.map_curve_cap;
  if (a.bdd_limit != 0) flow.bdd_node_limit = a.bdd_limit;

  shard::ShardRun run;
  std::string error;
  if (!shard::run_sharded_suite(circuits, lib, flow, so, &run, &error)) fatal(error);

  const TaskTally t = print_flow_table(run.per_circuit);
  std::fprintf(stderr,
               "shards: %u spawned, %u crashes, %u restarts, %u heartbeat "
               "kills; cells: %zu resumed, %zu computed, %zu failed; "
               "tasks: %d ok, %d degraded, %d failed\n",
               run.stats.workers_spawned, run.stats.worker_crashes,
               run.stats.worker_restarts, run.stats.heartbeat_kills,
               run.stats.cells_resumed, run.stats.cells_computed,
               run.stats.cells_failed, t.ok, t.degraded, t.failed);
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    shard::write_sharded_flow_json(out, run, so.shards, lib.name());
  }
  if (a.trace) {
    trace::set_enabled(false);
    std::ofstream tos(*a.trace);
    if (!tos.good()) fatal("cannot open trace output file " + *a.trace);
    shard::write_shard_trace(tos, run);
    std::fprintf(stderr,
                 "trace: supervisor + %zu worker lane(s) -> %s (open in "
                 "chrome://tracing or ui.perfetto.dev)\n",
                 run.worker_lanes.size(), a.trace->c_str());
  }
  if (a.metrics_out) {
    std::ofstream mos(*a.metrics_out);
    if (!mos.good())
      fatal("cannot open metrics output file " + *a.metrics_out);
    shard::write_shard_metrics_json(mos, run, so.shards);
  }
  return t.degraded + t.failed > 0 ? 2 : 0;
}

int cmd_flow(const Args& a) {
  if (a.positional.empty()) fatal("flow needs at least one BLIF file");
  std::vector<Network> nets;
  nets.reserve(a.positional.size());
  for (const std::string& path : a.positional) {
    nets.push_back(load_blif(path));
    prepare_network(nets.back());
  }
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);
  const Library lib = load_library(a);

  if (a.shards > 0 || a.resume) return cmd_flow_sharded(a, circuits, lib);

  EngineOptions eo;
  eo.num_threads = a.threads;
  eo.flow.task_deadline_ms = a.deadline_ms;
  eo.flow.max_curve_points = a.map_curve_cap;
  eo.verbose = a.verbose;
  if (a.bdd_limit != 0) eo.flow.bdd_node_limit = a.bdd_limit;
  FlowSession engine(lib, eo);
  if (a.trace) trace::set_enabled(true);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<FlowResult>> per_circuit;
  {
    trace::Span flow_span("flow", "cli");
    flow_span.arg("circuits", static_cast<unsigned long long>(nets.size()));
    flow_span.arg("threads", engine.effective_threads());
    per_circuit = engine.run_suite(circuits);
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (a.trace) {
    // All spans are closed and the pool is joined; export is safe now.
    trace::set_enabled(false);
    std::ofstream tos(*a.trace);
    if (!tos.good()) fatal("cannot open trace output file " + *a.trace);
    trace::write_chrome_trace(tos);
    std::fprintf(stderr,
                 "trace: %zu events -> %s (open in chrome://tracing or "
                 "ui.perfetto.dev)\n",
                 trace::num_events(), a.trace->c_str());
  }

  const TaskTally t = print_flow_table(per_circuit);
  std::fprintf(stderr,
               "engine: %d decompositions, %d activity passes, %d mappings, "
               "%u thread(s), %.1f ms; tasks: %d ok, %d degraded, %d failed\n",
               engine.counters().decomp_passes,
               engine.counters().activity_passes, engine.counters().map_passes,
               engine.effective_threads(), elapsed_ms, t.ok, t.degraded,
               t.failed);
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    write_flow_json(out, per_circuit, engine.counters(),
                    engine.effective_threads(), elapsed_ms, lib.name());
  }
  if (a.metrics_out) {
    // Standalone registry snapshot, schema-compatible with the sharded
    // sidecar's `metrics` block (minus the shard lifecycle stats).
    std::ofstream mos(*a.metrics_out);
    if (!mos.good())
      fatal("cannot open metrics output file " + *a.metrics_out);
    JsonWriter w(mos, /*pretty=*/false);
    w.begin_object();
    w.field("schema", "minpower.metrics.v1");
    w.key("metrics");
    metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
    w.end_object();
    mos << '\n';
  }
  return t.degraded + t.failed > 0 ? 2 : 0;
}

int cmd_verify(const Args& a) {
  // Two positional files: classic pairwise combinational equivalence.
  if (a.positional.size() == 2) {
    const Network x = load_blif(a.positional.at(0));
    const Network y = load_blif(a.positional.at(1));
    const bool eq = networks_equivalent(x, y);
    std::printf("%s\n", eq ? "EQUIVALENT" : "NOT EQUIVALENT");
    return eq ? 0 : 2;
  }
  if (!a.positional.empty())
    fatal("verify takes either two BLIF files or no positional args");

  // No files: the seeded differential harness (DESIGN.md §8).
  if (a.count < 1)
    fatal("--count must be at least 1, got " + std::to_string(a.count));
  verify::VerifyOptions o;
  o.seed = a.seed;
  o.count = a.count;
  const verify::VerifyReport r = verify::run_verification(o);
  std::printf(
      "verified %d circuits: %d equivalence, %d activity, %d monte-carlo, "
      "%d tree, %d curve checks\n",
      r.circuits, r.equivalence_checks, r.activity_checks,
      r.monte_carlo_checks, r.tree_checks, r.curve_checks);
  if (r.modified_huffman_total > 0)
    std::printf("modified-huffman hit the brute-force optimum in %d/%d "
                "static instances\n",
                r.modified_huffman_optimal, r.modified_huffman_total);
  for (const verify::VerifyFailure& f : r.failures)
    std::fprintf(stderr,
                 "FAIL [%s] %s\n  reproduce: minpower verify --seed %llu "
                 "--count 1\n",
                 f.check.c_str(), f.detail.c_str(),
                 static_cast<unsigned long long>(f.seed));
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    verify::write_verify_json(out, o, r);
  }
  if (!r.ok())
    std::fprintf(stderr, "verify: %d checks failed\n",
                 static_cast<int>(r.failures.size()));
  std::printf("%s\n", r.ok() ? "OK" : "FAILED");
  return r.ok() ? 0 : 2;
}

int cmd_bench(const Args& a) {
  const std::string name = a.positional.empty() ? "--help" : a.positional[0];
  std::string names;
  bool known = false;
  for (const BenchProfile& p : paper_suite()) {
    names += " " + p.name;
    known = known || p.name == name;
  }
  if (!known)
    fatal((name == "--help" ? std::string("usage: minpower bench <name> "
                                          "[-o out.blif]")
                            : "unknown benchmark " + name) +
          "; names:" + names);
  emit_blif(make_benchmark(name), a.out);
  return 0;
}

std::string slurp(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in.good()) fatal(std::string("cannot open ") + what + " " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_profile(const Args& a) {
  if (a.positional.size() != 1) fatal("profile needs exactly one trace file");
  const std::string& path = a.positional.front();
  trace::TraceProfile profile;
  std::string error;
  if (!trace::analyze_chrome_trace(slurp(path, "trace file"), &profile,
                                   &error))
    fatal(path + ": " + error);
  const int top = a.top > 0 ? a.top : 1;
  trace::print_profile(std::cout, profile, top);
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    trace::write_profile_json(out, profile, path, top);
  }
  return 0;
}

int cmd_compare(const Args& a) {
  if (a.positional.size() != 2)
    fatal("compare needs <baseline.json> <candidate.json>");
  report::FlowReportDoc base;
  report::FlowReportDoc cand;
  std::string error;
  if (!report::load_flow_report_file(a.positional.at(0), &base, &error))
    fatal(error);
  if (!report::load_flow_report_file(a.positional.at(1), &cand, &error))
    fatal(error);
  report::CompareOptions o;
  o.qor_rel_tol = a.qor_rel_tol;
  o.qor_abs_tol = a.qor_abs_tol;
  o.time_band = a.time_band;
  o.require_all = a.require_all;
  o.check_metrics = !a.qor_only;
  const report::CompareReport r = report::compare_flow_reports(base, cand, o);
  report::print_compare(std::cout, r);
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    report::write_compare_json(out, r);
  }
  return r.regression() ? 3 : 0;
}

int cmd_trend(const Args& a) {
  if (a.positional.empty())
    fatal("trend needs at least one trajectory file (JSONL, schema "
          "minpower.bench_trajectory.v1)");
  report::TrajectoryDoc cand;
  std::string error;
  for (const std::string& path : a.positional)
    if (!report::load_trajectory_file(path, &cand, &error)) fatal(error);
  if (a.positional.size() > 1) {
    cand.path = a.positional.front();
    for (std::size_t i = 1; i < a.positional.size(); ++i)
      cand.path += "+" + a.positional.at(i);
  }
  report::TrajectoryDoc base;
  if (a.baseline &&
      !report::load_trajectory_file(*a.baseline, &base, &error))
    fatal(error);
  report::TrendOptions o;
  o.time_band = a.time_band;
  o.mem_band = a.mem_band;
  o.slope_band = a.slope_band;
  const report::TrendReport r =
      report::analyze_trend(cand, a.baseline ? &base : nullptr, o);
  report::print_trend(std::cout, r);
  if (a.json) {
    std::ofstream out(*a.json);
    if (!out.good()) fatal("cannot open JSON output file " + *a.json);
    report::write_trend_json(out, r);
  }
  return r.regression() ? 3 : 0;
}

// SIGTERM/SIGINT → graceful drain. std::signal handlers may only touch
// lock-free state; Server::signal_drain is async-signal-safe (one write to a
// self-pipe), so the handler just forwards to the live server.
serve::Server* g_drain_server = nullptr;

void handle_drain_signal(int) {
  if (g_drain_server != nullptr) g_drain_server->signal_drain();
}

int cmd_serve(const Args& a) {
  const Library lib = load_library(a);
  serve::ServerOptions o;
  o.host = a.host;
  o.port = a.port;
  o.workers = a.workers;
  o.flow.task_deadline_ms = a.deadline_ms;
  if (a.bdd_limit != 0) o.flow.bdd_node_limit = a.bdd_limit;
  o.idle_timeout_ms = a.idle_timeout_ms;
  o.verbose = a.verbose;
  if (a.access_log) o.access_log = *a.access_log;
  serve::Server server(lib, o);
  std::string error;
  if (!server.start(&error)) fatal(error);
  g_drain_server = &server;
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  // Scripts parse this line for the (possibly ephemeral) port.
  std::printf("minpower serve: listening on %s:%u (%u workers)\n",
              o.host.c_str(), server.port(), o.workers);
  std::fflush(stdout);
  server.wait();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_drain_server = nullptr;
  const serve::ServeStats s = server.stats();
  const SessionStats ss = server.session().stats();
  std::fprintf(stderr,
               "serve: %llu requests (%llu flow ok, %llu errors, %llu busy); "
               "cache hits=%llu misses=%llu evictions=%llu\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.flow_ok),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.busy_rejections),
               static_cast<unsigned long long>(ss.result_hits),
               static_cast<unsigned long long>(ss.result_misses),
               static_cast<unsigned long long>(ss.evictions));
  return 0;
}

int cmd_client(const Args& a) {
  if (a.port == 0) fatal("client needs --port (a running `minpower serve`)");
  serve::RetryPolicy policy;
  policy.retries = a.client_retries;
  if (a.retry_ms > 0) policy.base_ms = a.retry_ms;

  serve::Client client;
  client.set_response_timeout_ms(a.timeout_ms);
  std::string error;
  int total_retries = 0;
  // Reconnect from scratch (used on first connect and whenever a request
  // fails retryably): a refused/broken/busy connection is cheapest to
  // abandon, and connect_with_retry supplies the capped jittered backoff.
  auto reconnect = [&](std::string* err) {
    client = serve::Client();
    client.set_response_timeout_ms(a.timeout_ms);
    unsigned attempts = 0;
    const bool ok = client.connect_with_retry(
        a.host, a.port, policy, &attempts, err);
    total_retries += static_cast<int>(attempts);
    return ok;
  };
  if (!reconnect(&error)) fatal(error);

  std::vector<std::string> tokens;
  if (a.deadline_ms > 0.0)
    tokens.push_back("deadline_ms=" + std::to_string(a.deadline_ms));
  if (a.bdd_limit != 0)
    tokens.push_back("bdd_limit=" + std::to_string(a.bdd_limit));

  // One FLOW request per file; each OK body is a single-circuit
  // minpower.flow.v1 document. Transport failures and retryable server
  // errors (busy admission queue, graceful drain, idle reap) re-connect and
  // re-send up to --retries times with capped jittered backoff.
  FlowDoc merged;  // every response's circuits, engine counters summed
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const std::string& path : a.positional) {
    const std::string blif = slurp(path, "BLIF file");
    serve::Response r;
    for (int attempt = 0;; ++attempt) {
      std::string req_error;
      if (client.flow(blif, tokens, &r, &req_error)) {
        if (r.ok || !serve::response_retryable(r)) break;
        req_error = "server answered a retryable error";
      }
      if (attempt >= policy.retries)
        fatal(path + ": " + req_error + " (after " + std::to_string(attempt) +
              " retries)");
      ++total_retries;
      const int shift = attempt < 16 ? attempt : 16;
      const long long backoff =
          std::min<long long>(static_cast<long long>(policy.base_ms) << shift,
                              policy.max_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      if (!reconnect(&req_error)) fatal(path + ": " + req_error);
    }
    hits += r.hits;
    misses += r.misses;
    std::string parse_error;
    auto doc = parse_json(r.body, &parse_error);
    if (!doc) fatal(path + ": unparsable server response: " + parse_error);
    if (!r.ok) {
      std::string message = "request failed";
      if (const JsonValue* e = doc->find("error"))
        message = e->string_or("message", message);
      fatal(path + ": server error: " + message);
    }
    FlowDoc response;
    if (!parse_flow_json(*doc, &response, &parse_error))
      fatal(path + ": malformed server response: " + parse_error);
    if (merged.library.empty()) merged.library = response.library;
    merged.counters.decomp_passes += response.counters.decomp_passes;
    merged.counters.activity_passes += response.counters.activity_passes;
    merged.counters.map_passes += response.counters.map_passes;
    for (std::vector<FlowResult>& row : response.per_circuit)
      merged.per_circuit.push_back(std::move(row));
  }

  if (!merged.per_circuit.empty()) {
    // Rendered under the serve policy, like each response: no metrics
    // block, zeroed wall times. Retries are transport noise and go to the
    // stderr summary only.
    FlowJsonPolicy serve_policy;
    serve_policy.include_metrics = false;
    serve_policy.zero_wall_times = true;
    const auto render = [&](std::ostream& os) {
      write_flow_json(os, merged.per_circuit, merged.counters,
                      /*num_threads=*/1, /*elapsed_ms=*/0.0, merged.library,
                      serve_policy);
    };
    if (a.json) {
      std::ofstream out(*a.json);
      if (!out.good()) fatal("cannot open JSON output file " + *a.json);
      render(out);
    } else {
      render(std::cout);
    }
  }

  if (a.client_stats) {
    serve::Response r;
    if (!client.stats(&r, &error)) fatal(error);
    std::fputs(r.body.c_str(), stderr);
  }
  if (a.client_shutdown && !client.shutdown_server(&error)) fatal(error);
  const TaskTally t = tally_tasks(merged.per_circuit);
  std::fprintf(stderr,
               "client: %zu circuits via %s:%d; cache hits=%llu misses=%llu; "
               "retries=%d; tasks: %d ok, %d degraded, %d failed\n",
               merged.per_circuit.size(), a.host.c_str(), a.port,
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), total_retries, t.ok,
               t.degraded, t.failed);
  return t.degraded + t.failed > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: minpower <stats|opt|decomp|map|flow|verify|bench|"
                 "profile|compare|trend|serve|client> ...\n");
    return 1;
  }
  try {
    const std::string cmd = argv[1];
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "stats") return cmd_stats(a);
    if (cmd == "opt") return cmd_opt(a);
    if (cmd == "decomp") return cmd_decomp(a);
    if (cmd == "map") return cmd_map(a);
    if (cmd == "flow") return cmd_flow(a);
    if (cmd == "verify") return cmd_verify(a);
    if (cmd == "bench") return cmd_bench(a);
    if (cmd == "profile") return cmd_profile(a);
    if (cmd == "compare") return cmd_compare(a);
    if (cmd == "trend") return cmd_trend(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "client") return cmd_client(a);
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "minpower: fatal: %s\n", e.what());
    return 1;
  }
}
