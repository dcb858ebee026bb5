#pragma once
// FlowSession: the flow engine behind the six-method evaluation of Tables
// 2–3, and the session/cache layer that keeps it alive across runs for
// `minpower serve` (DESIGN.md §13).
//
// The method pairs I/IV, II/V and III/VI differ only in the mapping
// objective — they operate on the *same* decomposed subject network. A run
// therefore splits into three fan-out stages:
//
//   stage 0  (circuit, 1 per circuit):
//            one BDD signal-probability pass over the source network (the
//            paper's calculate_switching_and_correlation_probabilities(Γ));
//   stage 1  (circuit × decomposition group, 3 per circuit):
//            decompose over the stage-0 probabilities (no BDDs), run one
//            BDD switching-activity pass over the resulting subject network;
//   stage 2  (circuit × method, 6 per circuit):
//            map the shared subject with the method's objective and
//            evaluate the mapped netlist, reusing the shared activities.
//
// Threading: independent tasks run on a std::thread worker pool that claims
// them from an atomic index. Every task that needs BDDs builds its own
// BddManager — the manager is not thread-safe and is never shared. Shared
// inputs (Network, Library, options) are read-only during a run, and results
// land in pre-sized slots, so output order and every computed value are
// independent of the thread count.
//
// Fault isolation: every task runs under its own Budget (FlowOptions carries
// the per-task limits). A BDD pass that exhausts its budget degrades
// (halved-cap retry, then Monte-Carlo probabilities) or fails, recording a
// TaskStatus in its slot; a group's status starts from its circuit's
// source status, and a method's from its group's. Sibling circuits and the
// pool are untouched and the run completes with partial results.
//
// Fault injection (EngineOptions::injections, MINPOWER_INJECT_FAULT) matches
// tasks by *ordinal* — the task's slot index, not a temporal counter — so an
// injected fault hits the same task at any thread count:
//   stage-1 task (decomp + activity):  ordinal = circuit*3 + group
//   stage-2 task (map + evaluate):     ordinal = 3*num_circuits
//                                                + circuit*6 + method_index
//   stage-0 task (source pass):        ordinal = 9*num_circuits + circuit
// (a single-circuit run thus has stage-1 ordinals 0–2, stage-2 3–8 and
// stage-0 ordinal 9).
//
// Caching: the flow is a pure function of the (sub)network and the options,
// so its results are memoizable. A session keys each method result on a
// canonical 128-bit structural hash of the network plus an option
// fingerprint and the method, and keeps the mapped QoR rows in one bounded
// LRU result cache (curves are consumed during mapping, so the cached unit
// is the final method result; util/lru.hpp). Values are shared_ptr-owned,
// so a hit stays valid after eviction. Only ok/degraded
// results are cached — a failed task (deadline, fatal error) is load- or
// request-specific and recomputes next time. Caching is off by default
// (SessionOptions), so a plain session computes every distinct unit afresh
// on each run; `minpower serve` turns it on.
//
// Determinism: the result lookup happens during (serial) run planning, and
// identical stage-1/stage-2 work within one batch is deduplicated by key
// before fan-out, so results and pass counters are independent of thread
// count and arrival interleaving. A run with armed faults bypasses the
// cache and the dedup, so every ordinal above stays a live task.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "flow/flow.hpp"
#include "trace/metrics.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/lru.hpp"

namespace minpower {

class JsonWriter;   // util/json_writer.hpp
struct JsonValue;   // util/json_reader.hpp

struct EngineOptions {
  FlowOptions flow;
  /// Worker threads (0 → hardware concurrency). 1 runs inline.
  unsigned num_threads = 1;
  /// Armed faults, merged with MINPOWER_INJECT_FAULT at each run_suite
  /// call (see the ordinal scheme above). A run with armed faults bypasses
  /// the cache and the intra-batch dedup so every task ordinal stays live.
  std::vector<FaultInjection> injections;
  /// Emit one live stderr status line per finished task. Lines are built
  /// whole and written under a mutex, so threads never interleave output.
  bool verbose = false;
};

/// Cumulative computed-pass counts over the session's lifetime. Cache hits
/// and intra-batch duplicates do not count — these are passes actually run.
/// Stage-0 source passes are not among them (the `activity.passes` metric
/// counts every BDD probability pass).
struct EngineCounters {
  int decomp_passes = 0;    // decompose_network invocations
  int activity_passes = 0;  // subject switching_activities invocations
  int map_passes = 0;       // map_network invocations
};

struct SessionOptions {
  /// Cross-run memoization of method results. Off by default (one-shot
  /// runs); `minpower serve` turns it on.
  bool enable_cache = false;
  /// Bounded LRU capacity of the result cache, in entries (one QoR row
  /// each).
  std::size_t result_cache_capacity = 4096;
};

/// Cumulative result-cache traffic. Mirrored into the global metrics
/// registry (session.* counters) whenever caching is enabled.
struct SessionStats {
  std::uint64_t result_hits = 0;
  std::uint64_t result_misses = 0;
  std::uint64_t evictions = 0;
};

/// Canonical structural hash of a network: invariant under PI/node
/// declaration-order permutations (node hashes are derived from fanin
/// hashes; PI and PO contributions are combined as sorted multisets), and
/// sensitive to any functional change — a single-literal flip, an
/// added/removed cube, a different PO binding. Node and PI *names* of
/// internal nodes do not participate; PI/PO names do (they bind option
/// vectors and outputs). Serve hashes the network rugged-lite prepared,
/// and rugged-lite's output depends on `.names` block order, so a
/// block-reordered body can get another key (DESIGN.md §13).
Hash128 structural_hash(const Network& net);

/// Fingerprint of every FlowOptions field that can change a result,
/// with per-PI probabilities/arrivals bound by PI *name* (so a permuted
/// netlist with correspondingly permuted vectors fingerprints identically).
/// Thread count is excluded — results are thread-count independent.
Hash128 option_fingerprint(const FlowOptions& options, const Network& net);

class FlowSession {
 public:
  explicit FlowSession(const Library& lib, EngineOptions options = {},
                       SessionOptions session = {});
  ~FlowSession();

  FlowSession(const FlowSession&) = delete;
  FlowSession& operator=(const FlowSession&) = delete;

  /// All six methods of one prepared circuit, in Method order.
  std::vector<FlowResult> run_circuit(const Network& prepared);

  /// Fan out (circuit × method) over the pool; result [i] holds circuit i's
  /// six methods in Method order. With caching enabled, memoized method
  /// results are reused across calls; when `delta` is non-null it receives
  /// this run's cache traffic only.
  std::vector<std::vector<FlowResult>> run_suite(
      const std::vector<const Network*>& circuits,
      SessionStats* delta = nullptr);

  /// Per-request variants for the serve path: run with `flow` in place of
  /// the session's default FlowOptions (the option fingerprint keys the
  /// cache, so requests with different options never share entries).
  /// Concurrent calls on one session are safe — the cache and counters are
  /// internally locked, and each call fans out its own workers.
  std::vector<FlowResult> run_circuit(const Network& prepared,
                                      const FlowOptions& flow,
                                      SessionStats* delta);
  std::vector<std::vector<FlowResult>> run_suite(
      const std::vector<const Network*>& circuits, const FlowOptions& flow,
      SessionStats* delta);

  EngineCounters counters() const;
  void reset_counters();

  /// The thread count a run will actually use (resolves 0).
  unsigned effective_threads() const;

  /// Cumulative cache traffic (thread-safe snapshot).
  SessionStats stats() const;

  const Library& library() const { return lib_; }
  const EngineOptions& options() const { return options_; }
  bool caching() const { return session_options_.enable_cache; }

 private:
  const Library& lib_;
  EngineOptions options_;
  SessionOptions session_options_;
  std::unique_ptr<LruCache<FlowResult>> cache_;  // null when caching is off
  /// Guards counters_ and stats_ (concurrent run_suite calls accumulate).
  mutable std::mutex stats_mu_;
  EngineCounters counters_;
  SessionStats stats_;
};

/// Cell outcomes over a [circuit][method] result grid: the `tasks` block of
/// `minpower.flow.v1`, the `tasks:` summary lines of the CLI and the
/// degradation counts of a bench trajectory record.
struct TaskTally {
  int ok = 0;
  int degraded = 0;
  int failed = 0;
  /// Budget-shrunk retries summed over every cell's status.
  std::uint64_t retries = 0;
};

TaskTally tally_tasks(const std::vector<std::vector<FlowResult>>& per_circuit);

/// Serialization policy for `write_flow_json`. The defaults produce the
/// classic CLI/bench document; serve responses zero the wall-time fields
/// and drop the (process-global, request-order-dependent) metrics snapshot
/// so repeated identical requests yield byte-identical documents.
struct FlowJsonPolicy {
  bool include_metrics = true;
  bool zero_wall_times = false;
};

/// Serialize per-circuit six-method results (plus engine pass counters and
/// a `metrics` block snapshotting the global metrics registry) as the
/// machine-readable flow-bench schema `minpower.flow.v1` — see
/// DESIGN.md §"Flow engine" for the field list.
void write_flow_json(std::ostream& os,
                     const std::vector<std::vector<FlowResult>>& per_circuit,
                     const EngineCounters& counters, unsigned num_threads,
                     double elapsed_ms, const std::string& library_name,
                     const FlowJsonPolicy& policy = {});

/// The canonical `minpower.flow.v1` rendering of a result grid: zeroed wall
/// times, no metrics block, and the engine counters a cold uncached run
/// reports, derived from the grid (3 decompositions, 3 activity passes and
/// 6 mappings per circuit). It depends on the cells alone, so a sharded
/// run, its journal resume, a serve response and the client's merge of
/// responses render the same cells byte-identically. `num_threads` is the
/// header's value: sharded runs record their shard count, serve 1.
void write_canonical_flow_json(
    std::ostream& os, const std::vector<std::vector<FlowResult>>& per_circuit,
    unsigned num_threads, const std::string& library_name);

/// Render one method cell exactly as it appears in the `methods[]` array of
/// `minpower.flow.v1` (the inner loop of write_flow_json). The shard journal
/// and the pipe protocol between shard workers and the supervisor serialize
/// cells through this single path, so a result that round-trips through
/// parse_flow_result_json re-renders byte-identically (doubles are emitted
/// as %.17g, which strtod recovers exactly).
void write_flow_result_json(JsonWriter& w, const FlowResult& r,
                            const FlowJsonPolicy& policy = {});

/// A decoded `minpower.flow.v1` document: what write_flow_json was given.
struct FlowDoc {
  std::string library;
  unsigned num_threads = 0;
  double elapsed_ms = 0.0;
  EngineCounters counters;
  /// [circuit][method] in document order, FlowResult::circuit filled in.
  std::vector<std::vector<FlowResult>> per_circuit;
  /// The `metrics` block; empty when the document has none.
  metrics::Snapshot metrics;
};

/// Inverse of write_flow_json over a parsed JSON document (the `schema`
/// marker is the caller's to check; the derived `tasks` block and circuit
/// `status` are not read). False (with `error` naming the circuit, method
/// and field) on a missing or mistyped member, an unknown enum name, an
/// integer out of range or a malformed metrics block.
bool parse_flow_json(const JsonValue& doc, FlowDoc* out, std::string* error);

/// Inverse of write_flow_result_json over a parsed JSON object. The circuit
/// name is not part of the method object; callers fill `out->circuit`.
/// False (with `error`) on a missing/mistyped field or unknown enum name.
bool parse_flow_result_json(const JsonValue& v, FlowResult* out,
                            std::string* error);

}  // namespace minpower
