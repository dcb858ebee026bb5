#pragma once
// Trace profiler: turns the Chrome trace-event JSON exported by
// trace/trace.hpp, decoded by parse_chrome_trace (trace/wire.hpp), back
// into an analyzable span forest and aggregates it (DESIGN.md §11).
//
// The exporter writes flat `ph:"X"` complete events; nesting is not
// recorded. Because spans are RAII scopes, events on one thread are
// strictly nested, so the forest is rebuilt per (pid, tid) lane from
// interval containment: sort by (start asc, duration desc) and maintain an
// open-span stack. Both endpoints were floored against the same origin at
// export time, so a child interval is always contained in its parent's and
// the child-duration sum never exceeds the parent duration — self time
// (duration minus direct children) is non-negative by construction.
//
// Multi-process traces (DESIGN.md §15): the sharded supervisor merges its
// own lane with one lane per worker incarnation, all on a shared
// monotonic timebase. The profiler keys the forest on (pid, tid), carries
// `process_name` metadata through to per-process totals, recovers
// `ph:"i"` lifecycle instants (worker-start, sigkill, worker-restart, …)
// into a timeline, and computes a critical path per process — the
// top-level `critical` is the dominant one, which for a single-process
// trace is exactly the old single-forest answer.
//
// On top of the forest the profiler computes:
//   - per-phase (span name × category) totals: count, total vs self time,
//     min/max — total time double-counts nested phases, self time never
//     does, so self sums to ≤ wall per thread;
//   - top-N hotspots by self time;
//   - per-(pid, tid) utilization (busy = top-level span time; wall =
//     global trace extent) and stage1/stage2 queue-wait statistics from
//     the engine's `queue_wait_us` span args;
//   - per-process critical paths through the flow engine's three fan-out
//     stages, under the engine's actual barrier schedule (slowest task of
//     stages 0, 1 and 2) and under the pure dependency model (a stage-2
//     task needs only its own circuit's stage-1 group, which needs only
//     that circuit's stage-0 source pass), whose gap quantifies what
//     removing the barriers could save;
//   - the supervisor-blocking breakdown from the `supervise` shard span:
//     how much of the supervise loop was spent blocked in poll() versus
//     draining pipes and handling lifecycle.
//
// Consumed by `minpower profile <trace.json>`, which renders the text
// tables and the machine-readable `minpower.profile.v1` document.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace minpower::trace {

/// One recovered `ph:"X"` span with its forest position and self time.
struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t self_us = 0;  // dur minus direct children
  int pid = 1;
  int tid = 0;
  int parent = -1;  // index into TraceProfile::spans, -1 = top level
  int depth = 0;
  /// Span args, split by JSON type (strings vs numbers).
  std::vector<std::pair<std::string, std::string>> str_args;
  std::vector<std::pair<std::string, double>> num_args;

  const std::string* find_str(std::string_view key) const;
  const double* find_num(std::string_view key) const;
};

/// Aggregation over all spans sharing a (name, cat) pair.
struct PhaseTotals {
  std::string name;
  std::string cat;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;  // inclusive (children double-counted)
  std::uint64_t self_us = 0;   // exclusive
  std::uint64_t min_us = 0;    // min/max of per-span inclusive duration
  std::uint64_t max_us = 0;
};

struct ThreadTotals {
  int pid = 1;
  int tid = 0;
  std::uint64_t events = 0;
  std::uint64_t busy_us = 0;  // top-level span durations
  std::uint64_t self_us = 0;  // Σ self over every span of the thread
  std::uint64_t first_ts_us = 0;
  std::uint64_t last_end_us = 0;
  std::uint64_t wall_us() const { return last_end_us - first_ts_us; }
};

/// One recovered `ph:"i"` lifecycle instant (worker-start, sigkill, …).
struct InstantRecord {
  std::string name;
  std::string cat;
  std::uint64_t ts_us = 0;
  int pid = 1;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> str_args;
  std::vector<std::pair<std::string, double>> num_args;

  const std::string* find_str(std::string_view key) const;
  const double* find_num(std::string_view key) const;
};

/// Order statistics of the per-task `queue_wait_us` samples of one stage.
struct WaitStats {
  std::uint64_t count = 0;
  std::uint64_t min_us = 0;
  std::uint64_t max_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;
  double mean_us = 0.0;
};

struct PathStep {
  std::string stage;  // "stage0" / "stage1" / "stage2"
  std::string task;   // engine task label, e.g. "ex2/map[V]"
  std::uint64_t dur_us = 0;
};

struct CriticalPath {
  bool available = false;  // engine stage0/1/2 spans were present
  /// Barrier model — what the engine executes today: every task of a stage
  /// finishes before any task of the next starts, so the path is the
  /// slowest task of each stage.
  std::uint64_t barrier_us = 0;
  std::vector<PathStep> barrier_chain;
  /// Dependency model — the lower bound with the barriers removed: a
  /// stage-2 (circuit, method) task needs only stage-1 (circuit, group),
  /// which needs only stage-0 (circuit).
  std::uint64_t dependency_us = 0;
  std::vector<PathStep> dependency_chain;
};

/// Per-process rollup of a multi-pid trace: one entry per pid lane.
struct ProcessTotals {
  int pid = 1;
  std::string name;  // from process_name metadata, may be empty
  std::size_t num_threads = 0;
  std::uint64_t events = 0;
  std::uint64_t busy_us = 0;  // Σ top-level span time over its threads
  std::uint64_t self_us = 0;
  std::uint64_t first_ts_us = 0;
  std::uint64_t last_end_us = 0;
  std::uint64_t wall_us() const { return last_end_us - first_ts_us; }
  /// This process's own engine critical path (stage0/1/2 spans with this
  /// pid). `available` is false for lanes without engine spans.
  CriticalPath critical;
};

/// Where the shard supervisor's supervise loop spent its time, from the
/// `supervise` (cat "shard") span's args. Absent for non-sharded traces.
struct SupervisorBreakdown {
  bool available = false;
  std::uint64_t supervise_us = 0;  // supervise span duration
  std::uint64_t poll_wait_us = 0;  // blocked in poll() waiting on workers
  std::uint64_t polls = 0;         // poll() calls
  std::uint64_t busy_us() const {
    return supervise_us > poll_wait_us ? supervise_us - poll_wait_us : 0;
  }
};

struct TraceProfile {
  std::size_t num_events = 0;  // recovered ph:"X" spans
  std::uint64_t wall_us = 0;   // max end − min start over all spans
  std::vector<SpanRecord> spans;      // grouped by (pid, tid), start order
  std::vector<PhaseTotals> phases;    // sorted by self_us descending
  std::vector<ThreadTotals> threads;  // sorted by (pid, tid)
  std::vector<ProcessTotals> processes;  // sorted by pid; 1 entry if flat
  std::vector<InstantRecord> lifecycle;  // ph:"i" instants, ts order
  WaitStats stage1_wait;
  WaitStats stage2_wait;
  /// Dominant per-process critical path (max barrier time). Identical to
  /// the single forest's path when the trace has one pid.
  CriticalPath critical;
  SupervisorBreakdown supervisor;
};

/// Parse a Chrome trace-event JSON document (the object form the tracer
/// writes) and build the full profile. Returns false and fills `error` on
/// malformed JSON or a document without a traceEvents array. A trace with
/// zero spans is valid and yields an empty profile.
bool analyze_chrome_trace(std::string_view json, TraceProfile* out,
                          std::string* error);

/// Emit the `minpower.profile.v1` document. `source` names the input
/// trace; `top_n` bounds the hotspot list (the full per-phase table is
/// always included).
void write_profile_json(std::ostream& os, const TraceProfile& p,
                        const std::string& source, int top_n);

/// Human-readable hotspot/utilization/critical-path tables.
void print_profile(std::ostream& os, const TraceProfile& p, int top_n);

}  // namespace minpower::trace
