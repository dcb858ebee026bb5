#pragma once
// One six-method flow run over a suite (Tables 2–3), in-process or across
// crash-isolated shard workers: the one place that knows what each mode
// implies (DESIGN.md §7, §14). `minpower flow` and `bench_flow` fill a
// FlowSpec, call run_flow, print their own table and summary lines, and
// hand the FlowRun to the writers below. In-process, the run is one timed
// FlowSession; its report carries the engine's counters, wall times and a
// metrics block, its trace is this process's events, and its memory comes
// from this process. Sharded, the run is a timed run_sharded_suite; its
// report is canonical, its trace merges the workers' lanes, and its metrics
// and memory come from the workers.

#include <iosfwd>
#include <string>
#include <vector>

#include "report/trend.hpp"
#include "shard/supervisor.hpp"

namespace minpower::shard {

struct FlowSpec {
  FlowOptions flow;
  /// Engine threads; per worker when sharded. 0 means hardware concurrency.
  unsigned threads = 1;
  /// Worker processes; 0 runs in-process. A resume journal makes the run
  /// sharded, with 2 workers unless set.
  unsigned shards = 0;
  /// Worker lifecycle, journal and memory settings of a sharded run. Its
  /// shards, worker_threads and verbose come from this spec, and its
  /// injections from MINPOWER_INJECT_FAULT (the in-process engine reads
  /// that variable itself).
  ShardOptions sharding;
  /// Enable tracing before the run (before the fork, so workers trace too);
  /// write_flow_trace disables it again.
  bool trace = false;
  /// One stderr line per finished engine task or supervisor event.
  bool verbose = false;
};

struct FlowRun {
  std::string library;
  /// [circuit][method] in suite and kMethods order.
  std::vector<std::vector<FlowResult>> per_circuit;
  /// Passes the in-process engine ran (zero when sharded: the canonical
  /// document derives its counters from the grid).
  EngineCounters counters;
  /// In-process: the threads the engine used. Sharded: threads per worker.
  unsigned threads = 0;
  /// Worker processes requested; 0 for an in-process run.
  unsigned shards = 0;
  std::size_t map_curve_cap = 0;
  double elapsed_ms = 0.0;
  /// The supervisor's record of a sharded run (its grid is moved to
  /// per_circuit above); empty in-process.
  ShardRun shard;
};

/// Run every circuit's six methods as `spec` says. False (with `error`)
/// only on a supervisor-level failure of a sharded run (journal mismatch,
/// fork/pipe failure); failed or degraded cells are results, not errors.
bool run_flow(const std::vector<const Network*>& circuits, const Library& lib,
              const FlowSpec& spec, FlowRun* out, std::string* error);

/// The run's `minpower.flow.v1` report.
void write_flow_report(std::ostream& os, const FlowRun& run);

/// Disable tracing and write the run's Chrome trace. Returns what was
/// written, for the front ends' `trace:` lines: "<N> events" in-process,
/// "supervisor + <N> worker lane(s)" when sharded.
std::string write_flow_trace(std::ostream& os, const FlowRun& run);

/// The metrics sidecar (`--metrics-out`).
void write_flow_metrics(std::ostream& os, const FlowRun& run);

/// The run as a `minpower.bench_trajectory.v1` point: suite size, threads,
/// shards, wall time, curve cap, cell outcomes and memory peaks. BDD peaks
/// come from the worker registries merged with `host` (this process's
/// registry, or an empty snapshot to count the workers alone); peak RSS is
/// this process's high-water in-process and the largest worker's when
/// sharded. The caller sets family, seed, target_gates and gates.
report::TrajectoryPoint trajectory_point(const FlowRun& run,
                                         const metrics::Snapshot& host);

}  // namespace minpower::shard
