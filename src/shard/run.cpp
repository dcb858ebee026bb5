#include "shard/run.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/json_writer.hpp"
#include "util/meminfo.hpp"
#include "util/stats.hpp"

namespace minpower::shard {

namespace {

/// Named gauge in a snapshot (0 when absent).
std::uint64_t gauge_of(const metrics::Snapshot& s, const char* name) {
  for (const auto& [n, value] : s.gauges)
    if (n == name) return value;
  return 0;
}

/// Largest RSS high-water of any worker incarnation, in KiB.
std::uint64_t peak_worker_rss_kb(const ShardRun& run) {
  std::uint64_t peak = 0;
  for (const WorkerMemory& m : run.worker_memory)
    peak = std::max<std::uint64_t>({peak, m.peak_hwm_kb, m.peak_rss_kb});
  return peak;
}

/// This process's RSS high-water, in KiB; 0 off-Linux.
std::uint64_t self_rss_kb() {
  MemSample m;
  if (!sample_self_memory(&m)) return 0;
  return std::max(m.hwm_kb, m.rss_kb);
}

}  // namespace

bool run_flow(const std::vector<const Network*>& circuits, const Library& lib,
              const FlowSpec& spec, FlowRun* out, std::string* error) {
  FlowRun run;
  run.library = lib.name();
  run.map_curve_cap = spec.flow.max_curve_points;
  if (spec.shards == 0 && spec.sharding.resume_path.empty()) {
    FlowSession engine(
        lib, EngineOptions{spec.flow, spec.threads, {}, spec.verbose});
    run.threads = engine.effective_threads();
    if (spec.trace) trace::set_enabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    {
      trace::Span flow_span("flow", "cli");
      flow_span.arg("circuits",
                    static_cast<unsigned long long>(circuits.size()));
      flow_span.arg("threads", run.threads);
      run.per_circuit = engine.run_suite(circuits);
    }
    run.elapsed_ms = elapsed_ms_since(t0);
    run.counters = engine.counters();
    *out = std::move(run);
    return true;
  }

  ShardOptions so = spec.sharding;
  so.shards = spec.shards > 0 ? spec.shards : 2;
  so.worker_threads = spec.threads;
  so.verbose = spec.verbose;
  so.injections = fault_injections_from_env();
  run.threads = so.worker_threads;
  run.shards = so.shards;
  // Workers inherit the tracing flag and the tracer origin across the fork
  // and ship their spans back over the pipe.
  if (spec.trace) trace::set_enabled(true);
  const auto t0 = std::chrono::steady_clock::now();
  if (!run_sharded_suite(circuits, lib, spec.flow, so, &run.shard, error))
    return false;
  run.elapsed_ms = elapsed_ms_since(t0);
  run.per_circuit = std::move(run.shard.per_circuit);
  *out = std::move(run);
  return true;
}

void write_flow_report(std::ostream& os, const FlowRun& run) {
  if (run.shards > 0)
    write_canonical_flow_json(os, run.per_circuit, run.shards, run.library);
  else
    write_flow_json(os, run.per_circuit, run.counters, run.threads,
                    run.elapsed_ms, run.library);
}

std::string write_flow_trace(std::ostream& os, const FlowRun& run) {
  // Every span is closed and every worker is joined or reaped by now.
  trace::set_enabled(false);
  if (run.shards > 0) {
    write_shard_trace(os, run.shard);
    return "supervisor + " + std::to_string(run.shard.worker_lanes.size()) +
           " worker lane(s)";
  }
  trace::write_chrome_trace(os);
  return std::to_string(trace::num_events()) + " events";
}

void write_flow_metrics(std::ostream& os, const FlowRun& run) {
  if (run.shards > 0) {
    write_shard_metrics_json(os, run.shard, run.shards);
    return;
  }
  // Schema-compatible with the sharded sidecar's `metrics` block.
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("schema", "minpower.metrics.v1");
  w.key("metrics");
  metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
  w.end_object();
  os << '\n';
}

report::TrajectoryPoint trajectory_point(const FlowRun& run,
                                         const metrics::Snapshot& host) {
  std::vector<metrics::Snapshot> parts = run.shard.worker_metrics;
  parts.push_back(host);
  const metrics::Snapshot peaks = trace::merge_snapshots(parts);
  const TaskTally tasks = tally_tasks(run.per_circuit);
  report::TrajectoryPoint p;
  p.suite = static_cast<double>(run.per_circuit.size());
  p.threads = run.threads;
  p.shards = run.shards;
  p.wall_ms = run.elapsed_ms;
  p.map_curve_cap = run.map_curve_cap;
  p.peak_bdd_nodes =
      static_cast<double>(gauge_of(peaks, "bdd.unique_table_peak"));
  p.peak_bdd_node_bytes =
      static_cast<double>(gauge_of(peaks, "bdd.mem.node_bytes_peak"));
  p.peak_bdd_arena_bytes =
      static_cast<double>(gauge_of(peaks, "bdd.mem.arena_bytes_peak"));
  p.peak_rss_kb = static_cast<double>(
      run.shards > 0 ? peak_worker_rss_kb(run.shard) : self_rss_kb());
  p.degradations = tasks.degraded;
  p.failures = tasks.failed;
  p.retries = static_cast<double>(tasks.retries);
  return p;
}

}  // namespace minpower::shard
