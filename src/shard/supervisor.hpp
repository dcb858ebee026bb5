#pragma once
// Crash-isolated multi-process sharded flow runs (DESIGN.md §14).
//
// `run_sharded_suite` forks N worker processes, each owning a partition of
// the suite's circuits (round-robin over the circuits still pending, so
// every worker gets a similar mix). A worker runs its circuits one at a
// time through a private FlowSession and streams results back over a pipe,
// one '\n'-framed line per message:
//
//   START <ci>                — beginning circuit ci (global suite index)
//   CELL <ci> <mi> <json>     — one completed (circuit × method) cell; the
//                               payload is the compact methods[] object of
//                               minpower.flow.v1 (write_flow_result_json)
//   BEAT                      — heartbeat (liveness, no payload)
//   TRACE <json>              — the worker's own lane as a one-line Chrome
//                               trace (write_chrome_trace; decoded by
//                               trace::parse_chrome_trace), sent once right
//                               before DONE when tracing is enabled
//   METRICS <json>            — the worker's metrics-registry snapshot
//                               (write_metrics_json), sent once before DONE
//   DONE                      — partition complete; the worker exits 0
//
// Any other line (parse_worker_record's kBreach) is a protocol breach: the
// supervisor SIGKILLs the worker and takes the crash path.
//
// Observability (DESIGN.md §15): workers inherit the tracer origin that
// set_enabled(true) pinned before the fork, so their span timestamps share
// the supervisor's timebase; the shipped lanes become one pid lane per
// worker incarnation in `ShardRun::worker_lanes`, and `write_shard_trace`
// merges them with the supervisor's own lane — including `ph:"i"`
// lifecycle instants (worker-start, heartbeat-timeout, sigkill,
// worker-restart, budget-tighten, retry-exhausted). Worker registries land in
// `worker_metrics` and `write_shard_metrics_json` folds them into one
// merged block (counters sum, gauges max, histograms add): on a clean run
// the merged counters equal a single-process run's registry for the same
// suite. Both sidecars stay out of the canonical merged report, so
// journal/resume byte-determinism is untouched.
//
// The supervisor multiplexes the pipes with poll() and treats a worker as
// dead on nonzero exit, a fatal signal (including SIGKILL), or a missed
// heartbeat deadline (the worker is then SIGKILLed). A dead worker is
// restarted with exponential backoff and a tightened budget — the BDD node
// cap halves per restart (floored), so a genuine blowup lands in the
// engine's PR-3 degradation ladder (halved-cap retry → MC activities)
// instead of crashing forever. Only the dead worker's unfinished circuits
// are re-enqueued; the crash is attributed to the circuit the worker had
// STARTed, and after `max_circuit_retries` crashes on the same circuit its
// remaining cells are marked `failed` in the merged report and excluded
// from further attempts. The run therefore always completes: exit-0/2
// semantics are decided by the caller from the merged task states.
//
// Journaling & resume: every completed ok/degraded cell is appended to a
// JSONL journal (shard/journal.hpp) as it arrives. A later run with
// `resume_path` set validates the journal's suite fingerprint, seeds the
// merged report with the journaled cells, and schedules only circuits with
// missing cells — producing a merged document byte-identical to an
// uninterrupted run (cells are deterministic; rendering is canonical).
//
// Memory governance (DESIGN.md §16): the supervisor is the one memory
// sampler. It reads each live worker's /proc/<pid>/status (VmRSS/VmHWM) at
// heartbeat cadence, which needs nothing from the worker, so a worker
// wedged inside an allocation is still seen; when it reaps an incarnation,
// wait4's ru_maxrss gives the final peak, including for a SIGKILLed one.
// Every sample updates `ShardRun::worker_memory` and, when tracing, lands
// as a `ph:"C"` counter event on the supervisor lane. Under `mem_limit_mb`,
// crossing ~80% of the limit raises a structured `mem-pressure` instant
// (level "soft", once per incarnation); reaching the limit raises a "hard"
// instant and a controlled SIGKILL (`mem_kills`), so the restart path
// tightens the BDD cap pre-emptively (budget-tighten) instead of letting
// the kernel OOM killer fire at an arbitrary moment.
//
// Fault injection: `worker-abort`, `worker-oom`, `worker-hang` and
// `worker-bloat` sites (util/budget.hpp) fire in the worker that owns the
// circuit whose global index matches the injection ordinal, after START is
// sent — deterministic crash-recovery testing (`worker-bloat` allocates and
// holds a ~160 MiB ballast across several heartbeat periods so the memory
// watermarks trip). Each fires at most once per run: restarted workers are
// told which circuits already crashed and skip their faults.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "flow/session.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace minpower::shard {

struct ShardOptions {
  /// Worker process count (clamped to [1, circuit count]).
  unsigned shards = 2;
  /// Threads inside each worker's flow engine.
  unsigned worker_threads = 1;
  /// Worker heartbeat period. Any pipe traffic counts as liveness.
  int heartbeat_ms = 250;
  /// Silence longer than this SIGKILLs the worker; 0 disables the reaper
  /// (death is then detected by pipe EOF only).
  int heartbeat_timeout_ms = 10'000;
  /// Crashes tolerated per circuit before its cells are marked failed.
  int max_circuit_retries = 2;
  /// Restart backoff: backoff_ms << restarts, capped at 2 s.
  int backoff_ms = 100;
  /// Append completed cells here ("" = no journal).
  std::string journal_path;
  /// Resume from this journal ("" = fresh run). When journal_path is also
  /// set the resumed cells are re-journaled there, so the new journal is
  /// complete on its own.
  std::string resume_path;
  /// Armed faults (env + CLI merged). worker-* sites are consumed here;
  /// everything else is forwarded to the workers' engines.
  std::vector<FaultInjection> injections;
  /// Per-worker resident-set watermark in MiB; 0 disables memory
  /// governance (the supervisor still samples every worker as telemetry).
  /// A worker
  /// crossing ~80% raises a soft `mem-pressure` instant; reaching the limit
  /// is a hard breach: the worker is SIGKILLed in a controlled way and
  /// restarted under a tightened BDD budget.
  std::size_t mem_limit_mb = 0;
  /// One stderr line per supervisor event (spawn/crash/restart/kill).
  bool verbose = false;
};

struct ShardStats {
  unsigned workers_spawned = 0;    // initial forks + restarts
  unsigned worker_crashes = 0;     // nonzero exit / signal / protocol break
  unsigned worker_restarts = 0;    // crashes that led to a restart
  unsigned heartbeat_kills = 0;    // SIGKILLs for missed heartbeats
  unsigned mem_kills = 0;          // SIGKILLs for hard mem-limit breaches
  unsigned mem_pressure_events = 0;  // soft+hard watermark crossings
  std::size_t cells_resumed = 0;   // seeded from the journal
  std::size_t cells_computed = 0;  // received from workers this run
  std::size_t cells_failed = 0;    // marked failed after retry exhaustion
};

/// Peak OS memory observed for one worker incarnation: the supervisor's
/// /proc/<pid>/status samples, and ru_maxrss when it is reaped (so every
/// spawned incarnation has one). kB units, as reported by the kernel;
/// inherently non-deterministic, so this never reaches the canonical
/// merged report — sidecar/trace/trajectory only.
struct WorkerMemory {
  int worker = 0;  // shard index
  int pid = 0;     // incarnation pid
  std::size_t peak_rss_kb = 0;  // largest sampled VmRSS; 0 if never sampled
  std::size_t peak_hwm_kb = 0;  // largest VmHWM sample or ru_maxrss
};

struct ShardRun {
  /// [circuit][method] in suite/Method order — same shape as
  /// FlowSession::run_suite, always fully populated.
  std::vector<std::vector<FlowResult>> per_circuit;
  ShardStats stats;
  /// One pid lane per worker incarnation that shipped a TRACE record
  /// (crashed workers lose their unshipped spans; their replacement ships
  /// under its own pid). Empty when tracing is disabled.
  std::vector<trace::ProcessLane> worker_lanes;
  /// One registry snapshot per worker incarnation that shipped METRICS.
  std::vector<metrics::Snapshot> worker_metrics;
  /// Peak RSS/HWM per worker incarnation, one entry each.
  std::vector<WorkerMemory> worker_memory;
  /// Echo of ShardOptions::mem_limit_mb for the sidecar's memory block.
  std::size_t mem_limit_mb = 0;
};

/// The worker → supervisor records of the protocol above; kBreach is any
/// other line.
enum class WorkerRecord { kStart, kCell, kBeat, kTrace, kMetrics, kDone,
                          kBreach };

/// The record one worker line carries, and its payload: the text after the
/// verb and its space (empty for BEAT and DONE).
WorkerRecord parse_worker_record(std::string_view line,
                                 std::string_view* payload);

/// Run the suite across worker processes. False (with `error`) only on
/// supervisor-level failures (journal mismatch, fork/pipe failure) — worker
/// crashes never fail the run, they degrade it (failed cells in `out`).
bool run_sharded_suite(const std::vector<const Network*>& circuits,
                       const Library& lib, const FlowOptions& flow,
                       const ShardOptions& options, ShardRun* out,
                       std::string* error);

/// Merged Chrome-trace file: the calling (supervisor) process's own lane —
/// engine spans plus lifecycle instants — followed by every worker lane
/// shipped over the pipe. Call with tracing enabled after run_sharded_suite.
void write_shard_trace(std::ostream& os, const ShardRun& run);

/// Metrics sidecar (`minpower.shard_metrics.v1`): the merged worker
/// registries as a standard metrics block plus a `shard` object with the
/// supervisor's own lifecycle statistics and a `memory` object with the
/// per-worker peak RSS/HWM samples. Kept out of the canonical merged
/// report on purpose — it varies run to run under restarts.
void write_shard_metrics_json(std::ostream& os, const ShardRun& run,
                              unsigned shards);

}  // namespace minpower::shard
