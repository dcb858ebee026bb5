// perfbench_driver — the repository benchmark (see README.md beside this
// file for the workloads, metrics and why each was chosen).
//
//   perfbench_driver --workload suite|serve --seed N --seconds S
//                    --trace 0|1
//
// --trace 0 runs each unit of work through the path a user runs (the
// `minpower flow` engine, or a `minpower serve` socket) and reports the
// end-to-end metrics. --trace 1 runs the same units with every layer called
// and timed separately from here — no spans inside the program are used —
// and reports the per-layer metrics. Either way the outputs are checked
// against an independent recomputation and BDD equivalence before the one
// JSON result line is printed last on stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace minpower;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Milliseconds since `t`, restarting `t` — one call per layer boundary.
double lap(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double ms = std::chrono::duration<double, std::milli>(now - t).count();
  t = now;
  return ms;
}

/// Smallest value of a non-empty sample.
double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have[1] = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      have[2] = !val.empty() && *end == '\0' && a->seconds > 0.0;
    } else if (key == "--trace") {
      a->trace = val == "1";
      have[3] = val == "0" || val == "1";
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3] &&
         (a->workload == "suite" || a->workload == "serve");
}

// ---- inputs ----------------------------------------------------------------

/// One distinct unit of work: a circuit as BLIF text. Every input runs
/// under the default FlowOptions, as `minpower flow` and `serve` do.
struct Input {
  std::string name;
  std::string blif;
  std::size_t gates = 0;  // internal nodes of the parsed BLIF
};

const FlowOptions kFlow;

/// The 17-circuit paper suite, in a seeded order.
std::vector<Input> make_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (const BenchProfile& p : paper_suite()) {
    const Network net = generate_benchmark(p);
    Input in{net.name(), write_blif_string(net), 0};
    in.gates = read_blif_string(in.blif).num_internal();
    inputs.push_back(std::move(in));
  }
  Rng rng(seed);
  for (std::size_t i = inputs.size(); i > 1; --i)
    std::swap(inputs[i - 1], inputs[rng.below(i)]);
  return inputs;
}

// ---- QoR comparison ----------------------------------------------------------

struct Qor {
  double area = 0.0;
  double delay = 0.0;
  double power_uw = 0.0;
  std::size_t gates = 0;
  bool ok = false;

  bool operator==(const Qor&) const = default;
};

std::vector<Qor> qor_of(const std::vector<FlowResult>& results) {
  std::vector<Qor> out;
  for (const FlowResult& r : results)
    out.push_back({r.area, r.delay, r.power_uw, r.gates,
                   r.status.state == TaskState::kOk});
  return out;
}

bool all_ok(const std::vector<Qor>& q) {
  return q.size() == 6 &&
         std::all_of(q.begin(), q.end(), [](const Qor& x) { return x.ok; });
}

/// QoR of a served minpower.flow.v1 body (one circuit, six methods).
std::optional<std::vector<Qor>> qor_of_body(const std::string& body) {
  std::string error;
  const std::optional<JsonValue> doc = parse_json(body, &error);
  if (!doc) return std::nullopt;
  const JsonValue* circuits = doc->find("circuits");
  if (circuits == nullptr || circuits->items.size() != 1) return std::nullopt;
  const JsonValue* methods = circuits->items[0].find("methods");
  if (methods == nullptr) return std::nullopt;
  std::vector<FlowResult> results;
  for (const JsonValue& m : methods->items) {
    FlowResult r;
    if (!parse_flow_result_json(m, &r, &error)) return std::nullopt;
    results.push_back(std::move(r));
  }
  return qor_of(results);
}

// ---- the user path -----------------------------------------------------------

/// What `minpower flow in.blif --json out.json` does for one circuit.
std::vector<Qor> run_engine(const Input& in, const Library& lib) {
  const Clock::time_point t0 = Clock::now();
  Network net = read_blif_string(in.blif);
  prepare_network(net);
  FlowSession session(lib);
  const std::vector<FlowResult> results = session.run_circuit(net);
  std::ostringstream os;
  write_flow_json(os, {results}, session.counters(),
                  session.effective_threads(), ms_since(t0), lib.name());
  return qor_of(results);
}

// ---- the same work, one layer at a time --------------------------------------

enum Layer {
  kParse,
  kRugged,
  kLookup,
  kSourceProb,
  kDecomp,
  kActivity,
  kMap,
  kEval,
  kRender,
  kNumLayers
};
const char* const kLayerNames[kNumLayers] = {
    "parse_ms",    "rugged_ms", "lookup_ms", "source_prob_ms", "decomp_ms",
    "activity_ms", "map_ms",    "eval_ms",   "render_ms"};

/// Layers every served request runs, cache hit or not.
bool served_layer(int layer) {
  return layer == kParse || layer == kRugged || layer == kLookup ||
         layer == kRender;
}

enum Count {
  kSourceBddNodes,
  kSubjectBddNodes,
  kMatches,
  kCurvePoints,
  kMappedGates,
  kNumCounts
};
const char* const kCountNames[kNumCounts] = {
    "source_bdd_nodes", "subject_bdd_nodes", "matches", "curve_points",
    "mapped_gates"};

struct Layered {
  double ms[kNumLayers] = {};
  double count[kNumCounts] = {};
  std::vector<Qor> qor;
  std::vector<MappedNetwork> mapped;  // Method order
  /// The subject networks `mapped` points into.
  std::vector<std::unique_ptr<NetworkDecompResult>> subjects;
};

/// The engine's work for one input — the session key (structural hash and
/// option fingerprint, which the engine computes even with its cache off),
/// 3 decompositions, 3 activity passes, 6 mappings — with each layer called
/// and timed separately. The source probability pass that decompose_network
/// would run internally is run here and handed in through `node_prob`,
/// which yields the same result.
Layered run_layered(const Input& in, const Library& lib) {
  static constexpr Method kGroups[3][2] = {{Method::kI, Method::kIV},
                                           {Method::kII, Method::kV},
                                           {Method::kIII, Method::kVI}};
  Layered out;
  std::vector<FlowResult> results(6);
  out.mapped.resize(6);
  Clock::time_point t = Clock::now();
  const Clock::time_point t0 = t;
  Network net = read_blif_string(in.blif);
  out.ms[kParse] = lap(t);
  prepare_network(net);
  out.ms[kRugged] = lap(t);
  static_cast<void>(structural_hash(net));
  static_cast<void>(option_fingerprint(kFlow, net));
  out.ms[kLookup] = lap(t);
  for (const auto& group : kGroups) {
    NetworkDecompOptions d = decomp_options_for(group[0], kFlow);
    ActivityPassStats source_stats;
    d.node_prob = signal_probabilities(net, kFlow.pi_prob1, &source_stats);
    out.ms[kSourceProb] += lap(t);
    const NetworkDecompResult& nd = *out.subjects.emplace_back(
        std::make_unique<NetworkDecompResult>(decompose_network(net, d)));
    out.ms[kDecomp] += lap(t);
    ActivityPassStats subject_stats;
    const std::vector<double> activities = switching_activities(
        nd.network, kFlow.style, kFlow.pi_prob1, &subject_stats);
    out.ms[kActivity] += lap(t);
    out.count[kSourceBddNodes] += static_cast<double>(source_stats.bdd_nodes);
    out.count[kSubjectBddNodes] +=
        static_cast<double>(subject_stats.bdd_nodes);
    for (const Method method : group) {
      MapOptions m = map_options_for(method, kFlow);
      m.activities = activities;
      MapResult mr = map_network(nd.network, lib, m);
      out.ms[kMap] += lap(t);
      const MappedReport rep =
          evaluate_mapped(mr.mapped, PowerParams::from(m));
      out.ms[kEval] += lap(t);
      const std::size_t mi = static_cast<std::size_t>(method);
      FlowResult& r = results[mi];
      r.circuit = net.name();
      r.method = method;
      r.area = rep.area;
      r.delay = rep.delay;
      r.power_uw = rep.power_uw;
      r.gates = rep.num_gates;
      out.count[kMatches] += static_cast<double>(mr.total_matches);
      out.count[kCurvePoints] += static_cast<double>(mr.total_curve_points);
      out.count[kMappedGates] += static_cast<double>(rep.num_gates);
      out.mapped[mi] = std::move(mr.mapped);
    }
  }
  std::ostringstream os;
  write_flow_json(os, {results}, EngineCounters{3, 3, 6}, 1, ms_since(t0),
                  lib.name());
  out.ms[kRender] = lap(t);
  out.qor = qor_of(results);
  return out;
}

// ---- correctness --------------------------------------------------------------

struct Checker {
  bool correct = true;

  void fail(const std::string& what) {
    if (correct)
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct = false;
  }

  /// `qor` (from the engine or a served body) must equal the layered
  /// recomputation exactly with every method ok, and every mapped netlist
  /// of that recomputation must be BDD-equivalent to the parsed source.
  void against_reference(const Input& in, const std::vector<Qor>& qor,
                         const Layered& ref) {
    if (!all_ok(qor)) fail(in.name + ": a method did not finish ok");
    if (qor != ref.qor) fail(in.name + ": QoR differs from the layered run");
    const Network source = read_blif_string(in.blif);
    for (const MappedNetwork& mn : ref.mapped)
      if (!verify::mapped_network_equivalent(source, mn))
        fail(in.name + ": mapped netlist is not equivalent to the source");
  }
};

// ---- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  JsonWriter w(std::cout, /*pretty=*/false);
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
}

/// Samples of one timed run, turned into metrics at the end.
struct Tally {
  explicit Tally(std::size_t num_inputs) : latency_ms(num_inputs) {}

  std::vector<std::vector<double>> latency_ms;  // per input, per unit
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double layer_ms[kNumLayers] = {};
  std::size_t layer_units[kNumLayers] = {};
  double counts[kNumCounts] = {};
  std::size_t count_units = 0;
  double cache_hits = 0.0;
  std::size_t cache_requests = 0;

  /// `flow_layers` false: only the served layers ran (a served request
  /// answered from the cache).
  void add_layers(const Layered& l, bool flow_layers) {
    for (int i = 0; i < kNumLayers; ++i) {
      if (!served_layer(i) && !flow_layers) continue;
      layer_ms[i] += l.ms[i];
      layer_units[i] += 1;
    }
    if (!flow_layers) return;
    for (int i = 0; i < kNumCounts; ++i) counts[i] += l.count[i];
    count_units += 1;
  }

  /// Both timings start from each input's fastest latency in the run, which
  /// passes over the slow stretches a shared host puts into a run (see
  /// README.md). latency_min_ms is their geometric mean (every input weighs
  /// alike); gates_per_s is one pass over the inputs at those latencies (big
  /// circuits dominate).
  std::vector<Metric> end_to_end(const std::vector<Input>& inputs,
                                 double setup_s) const {
    double log_sum = 0.0, gates = 0.0, ms = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (latency_ms[i].empty()) continue;
      const double fastest = min_of(latency_ms[i]);
      log_sum += std::log(fastest);
      gates += static_cast<double>(inputs[i].gates);
      ms += fastest;
      n += 1;
    }
    return {{"latency_min_ms", n ? std::exp(log_sum / n) : 0.0, "ms"},
            {"gates_per_s", ms > 0.0 ? gates / (ms / 1000.0) : 0.0, "1/s"},
            {"setup_s", setup_s, "s"}};
  }

  /// Mean per unit of work in which the layer ran.
  std::vector<Metric> per_layer() const {
    std::vector<Metric> out;
    for (int i = 0; i < kNumLayers; ++i)
      out.push_back({kLayerNames[i],
                     layer_units[i] ? layer_ms[i] / layer_units[i] : 0.0,
                     "ms"});
    for (int i = 0; i < kNumCounts; ++i)
      out.push_back({kCountNames[i],
                     count_units ? counts[i] / count_units : 0.0, "count"});
    out.push_back({"cache_hits_per_request",
                   cache_requests ? cache_hits / cache_requests : 0.0,
                   "count"});
    return out;
  }
};

// ---- set-up --------------------------------------------------------------------

/// What the program builds before its first unit of work: a freshly parsed
/// cell library, and for `serve` a listening one-worker server with a
/// connected client. The inputs are the benchmark's own and are made once,
/// outside the timed set-up. Members are declared so that destruction
/// closes the client, then stops the server, then frees the library.
struct Setup {
  std::unique_ptr<Library> lib;
  std::unique_ptr<serve::Server> server;
  serve::Client client;
};

std::unique_ptr<Setup> set_up(const Args& a) {
  auto s = std::make_unique<Setup>();
  s->lib = std::make_unique<Library>(
      Library::parse_genlib(standard_library_genlib(), "standard"));
  if (a.workload != "serve") return s;
  serve::ServerOptions so;
  so.workers = 1;
  s->server = std::make_unique<serve::Server>(*s->lib, so);
  std::string error;
  if (!s->server->start(&error))
    throw std::runtime_error("server start: " + error);
  if (!s->client.connect("127.0.0.1", s->server->port(), &error))
    throw std::runtime_error("client connect: " + error);
  return s;
}

/// One extra set-up is timed per this many milliseconds of the run.
constexpr double kSetupEveryMs = 20.0;

/// Set-up times, sampled across the measured window. One set-up takes well
/// under a millisecond; timed back to back at start-up, all of a run's
/// set-ups could land in one slow stretch of a shared host, and the run read
/// up to 1.8x the others. Spread over the window they see the host in the same
/// mix of states as the unit latencies do, and like those the result is the
/// fastest.
struct SetupSamples {
  const Args& a;
  std::vector<double> secs;

  std::unique_ptr<Setup> timed() {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Setup> s = set_up(a);
    secs.push_back(ms_since(t0) / 1000.0);
    return s;
  }

  /// Between units of work: builds and tears down set-ups until there is
  /// one sample per kSetupEveryMs since `t0`. Only end-to-end runs sample.
  void catch_up(Clock::time_point t0) {
    if (a.trace) return;
    while (static_cast<double>(secs.size()) <
           1.0 + ms_since(t0) / kSetupEveryMs)
      timed();
  }

  double setup_s() const { return min_of(secs); }
};

// ---- workloads -------------------------------------------------------------------

/// suite: one caller synthesizes the inputs in passes until the time
/// is up. Only whole passes are run, so every run weighs every input alike.
void run_batch(const Args& a, const std::vector<Input>& inputs, Setup& s,
               SetupSamples& setups, Checker& check, Tally& tally) {
  std::vector<std::optional<std::vector<Qor>>> first(inputs.size());
  std::vector<std::optional<Layered>> layered(inputs.size());
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < a.seconds * 1000.0) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      tally.attempted += 1;
      std::vector<Qor> qor;
      if (a.trace) {
        Layered l = run_layered(in, *s.lib);
        tally.add_layers(l, true);
        qor = l.qor;
        if (!layered[i]) layered[i] = std::move(l);
      } else {
        const Clock::time_point u0 = Clock::now();
        qor = run_engine(in, *s.lib);
        tally.latency_ms[i].push_back(ms_since(u0));
      }
      if (!all_ok(qor)) tally.failed += 1;
      if (!first[i]) first[i] = qor;
      if (qor != *first[i]) check.fail(in.name + ": results changed on rerun");
      setups.catch_up(t0);
    }
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!layered[i]) layered[i] = run_layered(inputs[i], *s.lib);
    const std::vector<Qor> engine =
        a.trace ? run_engine(inputs[i], *s.lib) : *first[i];
    check.against_reference(inputs[i], engine, *layered[i]);
  }
}

/// serve: one client in a closed loop — it sends its next FLOW request as
/// soon as the previous answer arrives, drawing circuits from the pool with
/// a seeded stream. The cache is filled first (one untimed cold request per
/// circuit), so timed requests are answered from the session's result
/// cache: the socket, parse, rugged-lite, session lookup and render path.
void run_serve(const Args& a, const std::vector<Input>& pool, Setup& s,
               SetupSamples& setups, Checker& check, Tally& tally) {
  std::vector<std::string> cold(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    serve::Response r;
    std::string error;
    if (!s.client.flow(pool[i].blif, {}, &r, &error) || !r.ok)
      throw std::runtime_error("priming " + pool[i].name + ": " + error +
                               r.body);
    cold[i] = std::move(r.body);
  }
  // Trace runs also split the cold path the server took for each circuit.
  std::vector<std::optional<Layered>> layered(pool.size());
  if (a.trace) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      layered[i] = run_layered(pool[i], *s.lib);
      tally.add_layers(*layered[i], true);
    }
  }

  Rng rng(a.seed);
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < a.seconds * 1000.0) {
    setups.catch_up(t0);
    const std::size_t i = rng.below(pool.size());
    serve::Response r;
    std::string error;
    tally.attempted += 1;
    const Clock::time_point u0 = Clock::now();
    if (!s.client.flow(pool[i].blif, {}, &r, &error) || !r.ok) {
      tally.failed += 1;
      check.fail(pool[i].name + ": request failed: " + error + r.body);
      continue;
    }
    tally.latency_ms[i].push_back(ms_since(u0));
    tally.cache_hits += static_cast<double>(r.hits);
    tally.cache_requests += 1;
    if (r.body != cold[i]) check.fail(pool[i].name + ": warm != cold body");
    if (!a.trace) continue;
    // The server's path for this request, layer by layer: parse,
    // rugged-lite, the session lookup (key and cache hit), and the
    // response render.
    Layered l;
    Clock::time_point t = Clock::now();
    Network net = read_blif_string(pool[i].blif);
    l.ms[kParse] = lap(t);
    prepare_network(net);
    l.ms[kRugged] = lap(t);
    SessionStats delta;
    const std::vector<FlowResult> results =
        s.server->session().run_circuit(net, kFlow, &delta);
    l.ms[kLookup] = lap(t);
    std::ostringstream os;
    write_flow_json(os, {results}, EngineCounters{3, 3, 6}, 1, 0.0,
                    s.lib->name(), {false, true});
    l.ms[kRender] = lap(t);
    tally.add_layers(l, false);
  }

  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!layered[i]) layered[i] = run_layered(pool[i], *s.lib);
    const std::optional<std::vector<Qor>> served = qor_of_body(cold[i]);
    if (!served) {
      check.fail(pool[i].name + ": unparsable response body");
      continue;
    }
    check.against_reference(pool[i], *served, *layered[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload suite|serve "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    const std::vector<Input> inputs = make_inputs(a.seed);
    SetupSamples setups{a, {}};
    const std::unique_ptr<Setup> s = setups.timed();
    Checker check;
    Tally tally(inputs.size());
    if (a.workload == "serve")
      run_serve(a, inputs, *s, setups, check, tally);
    else
      run_batch(a, inputs, *s, setups, check, tally);
    print_result(check.correct && tally.failed == 0, tally.attempted,
                 tally.failed,
                 a.trace ? tally.per_layer()
                         : tally.end_to_end(inputs, setups.setup_s()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
