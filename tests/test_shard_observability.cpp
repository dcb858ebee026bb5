// Observability tests for real forked sharded runs (DESIGN.md §15, ctest
// label: chaos): a traced `--shards N` run must merge into one Chrome-trace
// document with a pid lane per worker, lifecycle instants on the supervisor
// lane, per-worker critical paths in the profile, and a metrics sidecar
// whose merged counters equal a single-process registry over the same
// suite. Worker aborts must show up as worker-crash/worker-restart instants
// without losing any lane.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "shard/supervisor.hpp"
#include "trace/analysis.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/json_reader.hpp"

namespace minpower {
namespace {

std::vector<Network> suite_prefix(std::size_t max_circuits) {
  std::vector<Network> nets;
  for (const BenchProfile& p : paper_suite()) {
    if (nets.size() >= max_circuits) break;
    Network net = generate_benchmark(p);
    prepare_network(net);
    nets.push_back(std::move(net));
  }
  return nets;
}

std::vector<const Network*> pointers(const std::vector<Network>& nets) {
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);
  return circuits;
}

shard::ShardRun run_or_die(const std::vector<const Network*>& circuits,
                           const shard::ShardOptions& options) {
  shard::ShardRun run;
  std::string error;
  EXPECT_TRUE(shard::run_sharded_suite(circuits, standard_library(),
                                       FlowOptions{}, options, &run, &error))
      << error;
  return run;
}

/// Scoped tracing: start from an empty buffer, always disable and drop the
/// recorded events on exit so tests never leak spans into each other.
struct TraceGuard {
  TraceGuard() {
    trace::clear();
    trace::set_enabled(true);
  }
  ~TraceGuard() {
    trace::set_enabled(false);
    trace::clear();
  }
};

/// Run the sharded suite traced and return the analyzed merged trace;
/// `raw`, when given, receives the merged trace's text.
trace::TraceProfile traced_profile(
    const std::vector<const Network*>& circuits,
    const shard::ShardOptions& options, shard::ShardRun* run_out,
    std::string* raw = nullptr) {
  TraceGuard guard;
  *run_out = run_or_die(circuits, options);
  std::ostringstream os;
  shard::write_shard_trace(os, *run_out);
  trace::TraceProfile p;
  std::string error;
  EXPECT_TRUE(trace::analyze_chrome_trace(os.str(), &p, &error)) << error;
  if (raw != nullptr) *raw = os.str();
  return p;
}

std::size_t count_instants(const trace::TraceProfile& p,
                           const std::string& name) {
  std::size_t n = 0;
  for (const trace::InstantRecord& ir : p.lifecycle)
    if (ir.name == name) ++n;
  return n;
}

TEST(ShardObservability, CleanTracedRunMergesPerWorkerLanes) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  shard::ShardOptions so;
  so.shards = 3;
  shard::ShardRun run;
  const trace::TraceProfile p = traced_profile(circuits, so, &run);
  EXPECT_EQ(run.stats.worker_crashes, 0u);
  ASSERT_EQ(run.worker_lanes.size(), 3u);

  // One pid lane per worker plus the supervisor's own.
  ASSERT_EQ(p.processes.size(), 4u);
  const int sup_pid = static_cast<int>(::getpid());
  std::set<int> pids;
  std::size_t workers_with_path = 0;
  for (const trace::ProcessTotals& pr : p.processes) {
    EXPECT_TRUE(pids.insert(pr.pid).second) << "duplicate pid lane";
    if (pr.pid == sup_pid) {
      EXPECT_NE(pr.name.find("supervisor"), std::string::npos) << pr.name;
    } else {
      EXPECT_NE(pr.name.find("worker-"), std::string::npos) << pr.name;
      EXPECT_GT(pr.busy_us, 0u);
      // Every worker ran its own engine, so it owns a critical path.
      if (pr.critical.available && pr.critical.barrier_us > 0)
        ++workers_with_path;
    }
  }
  EXPECT_TRUE(pids.count(sup_pid));
  EXPECT_EQ(workers_with_path, 3u);
  // The trace-level path is one of the per-process ones (the dominant).
  ASSERT_TRUE(p.critical.available);

  // Forest invariants per lane: nested children fit inside their parent and
  // never drive self time past total time.
  for (const trace::SpanRecord& s : p.spans) {
    EXPECT_LE(s.self_us, s.dur_us);
    if (s.parent >= 0) {
      const trace::SpanRecord& parent =
          p.spans[static_cast<std::size_t>(s.parent)];
      EXPECT_EQ(parent.pid, s.pid);
      EXPECT_GE(s.ts_us, parent.ts_us);
      EXPECT_LE(s.ts_us + s.dur_us, parent.ts_us + parent.dur_us);
    }
  }
  for (const trace::ThreadTotals& t : p.threads)
    EXPECT_LE(t.self_us, t.busy_us);

  // Lifecycle: one worker-start per spawn, each naming a traced pid lane.
  EXPECT_EQ(count_instants(p, "worker-start"), 3u);
  for (const trace::InstantRecord& ir : p.lifecycle) {
    EXPECT_EQ(ir.pid, sup_pid);  // instants live on the supervisor lane
    if (ir.name != "worker-start") continue;
    const double* pid = ir.find_num("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_TRUE(pids.count(static_cast<int>(*pid))) << *pid;
  }

  // Supervisor-blocking breakdown comes from the supervise span.
  ASSERT_TRUE(p.supervisor.available);
  EXPECT_GE(p.supervisor.polls, 1u);
  EXPECT_LE(p.supervisor.poll_wait_us, p.supervisor.supervise_us);

  // The metrics sidecar is valid JSON with a parseable merged block.
  std::ostringstream mos;
  shard::write_shard_metrics_json(mos, run, so.shards);
  std::string error;
  const auto doc = parse_json(mos.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* reporting = doc->find("workers_reporting");
  ASSERT_NE(reporting, nullptr);
  EXPECT_EQ(static_cast<int>(reporting->number), 3);
  const JsonValue* metrics_block = doc->find("metrics");
  ASSERT_NE(metrics_block, nullptr);
  const auto merged = trace::parse_metrics_value(*metrics_block, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_FALSE(merged->counters.empty());
}

TEST(ShardObservability, WorkerAbortEmitsLifecycleInstantsAndKeepsLanes) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  shard::ShardOptions so;
  so.shards = 2;
  so.injections = {{"worker-abort", 1}};
  so.backoff_ms = 10;
  shard::ShardRun run;
  const trace::TraceProfile p = traced_profile(circuits, so, &run);

  EXPECT_GE(run.stats.worker_crashes, 1u);
  EXPECT_GE(run.stats.worker_restarts, 1u);
  EXPECT_EQ(run.stats.cells_failed, 0u);

  // The crashed incarnation dies before shipping its spans, but its
  // replacement ships under a fresh pid — so the merged trace still holds
  // at least `shards` worker lanes next to the supervisor's.
  EXPECT_GE(p.processes.size(), so.shards + 1u);

  // The crash and the restart are both visible as instants, and the
  // restart's worker announces itself with one more worker-start.
  EXPECT_GE(count_instants(p, "worker-crash"), 1u);
  EXPECT_GE(count_instants(p, "worker-restart"), 1u);
  EXPECT_GE(count_instants(p, "worker-start"), so.shards + 1u);

  // Crash instants carry the blamed circuit for postmortems.
  for (const trace::InstantRecord& ir : p.lifecycle) {
    if (ir.name != "worker-crash") continue;
    EXPECT_NE(ir.find_str("death"), nullptr);
    EXPECT_NE(ir.find_str("circuit"), nullptr);
  }
}

TEST(ShardObservability, EveryIncarnationHasOneMemoryPeakEvenWhenSigkilled) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  // worker-oom SIGKILLs circuit 1's worker from inside: it never reaches a
  // clean exit, yet its peak must still be recorded (from ru_maxrss when
  // the supervisor reaps it). No mem limit: sampling is unconditional.
  shard::ShardOptions so;
  so.shards = 2;
  so.injections = {{"worker-oom", 1}};
  so.backoff_ms = 10;
  shard::ShardRun run;
  std::string raw_trace;
  const trace::TraceProfile p = traced_profile(circuits, so, &run, &raw_trace);
  ASSERT_GE(run.stats.worker_crashes, 1u);
  EXPECT_EQ(run.stats.cells_failed, 0u);

  std::set<int> started;
  for (const trace::InstantRecord& ir : p.lifecycle)
    if (ir.name == "worker-start")
      started.insert(static_cast<int>(*ir.find_num("pid")));
  ASSERT_EQ(started.size(), run.stats.workers_spawned);

  std::set<int> sampled;
  for (const shard::WorkerMemory& m : run.worker_memory) {
    EXPECT_GT(m.peak_hwm_kb, 0u) << "pid " << m.pid;
    EXPECT_TRUE(sampled.insert(m.pid).second) << "pid " << m.pid;
  }
  EXPECT_EQ(sampled, started);

  // The sidecar carries the same one-entry-per-incarnation memory block.
  std::ostringstream mos;
  shard::write_shard_metrics_json(mos, run, so.shards);
  std::string error;
  const auto doc = parse_json(mos.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("memory")->find("workers")->items.size(),
            run.stats.workers_spawned);

  // Every incarnation is sampled once it reports (START or its first BEAT),
  // so its first mem.worker-N point reads a process that has run: 2.4-4.5
  // MB here. Sampled in the loop pass that forked it, it read about 480 kB.
  const auto events = parse_json(raw_trace, &error);
  ASSERT_TRUE(events.has_value()) << error;
  std::size_t points = 0;
  for (const JsonValue& e : events->find("traceEvents")->items) {
    const JsonValue* name = e.find("name", JsonValue::Kind::kString);
    if (name == nullptr || !name->string.starts_with("mem.worker-")) continue;
    ++points;
    EXPECT_GE(e.find("args")->find("rss_kb")->number, 1024.0)
        << name->string;
  }
  EXPECT_GE(points, run.stats.workers_spawned - run.stats.worker_crashes);
}

TEST(ShardObservability, MemLimitKillsBloatedWorkerAndRunRecovers) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  // Clean reference: no limit, no fault. Cells are deterministic, so the
  // governed run below must reproduce this report byte for byte.
  shard::ShardOptions clean;
  clean.shards = 2;
  const shard::ShardRun ref = run_or_die(circuits, clean);
  std::ostringstream ref_json;
  write_canonical_flow_json(ref_json, ref.per_circuit, clean.shards,
                            standard_library().name());

  // Governed run: circuit 1's worker balloons by ~160 MiB while a 120 MiB
  // watermark is armed — memory governance (not the heartbeat reaper) must
  // SIGKILL it, and the restarted worker (which skips the fault) must
  // finish the partition.
  shard::ShardOptions so;
  so.shards = 2;
  so.mem_limit_mb = 120;
  so.injections = {{"worker-bloat", 1}};
  so.heartbeat_ms = 100;
  so.backoff_ms = 10;
  shard::ShardRun run;
  std::string raw_trace;
  trace::TraceProfile p;
  {
    TraceGuard guard;
    run = run_or_die(circuits, so);
    std::ostringstream os;
    shard::write_shard_trace(os, run);
    raw_trace = os.str();
    std::string error;
    ASSERT_TRUE(trace::analyze_chrome_trace(raw_trace, &p, &error)) << error;
  }

  // Graceful degradation: the kill is controlled, attributed, recovered.
  EXPECT_GE(run.stats.mem_kills, 1u);
  EXPECT_GE(run.stats.mem_pressure_events, 1u);
  EXPECT_GE(run.stats.worker_restarts, 1u);
  EXPECT_EQ(run.stats.cells_failed, 0u);
  EXPECT_EQ(run.stats.heartbeat_kills, 0u);  // BEATs kept flowing

  // The breach is visible as lifecycle instants with structured args.
  EXPECT_GE(count_instants(p, "mem-pressure"), 1u);
  bool hard_seen = false;
  for (const trace::InstantRecord& ir : p.lifecycle) {
    if (ir.name != "mem-pressure") continue;
    const std::string* level = ir.find_str("level");
    ASSERT_NE(level, nullptr);
    EXPECT_NE(ir.find_num("rss_kb"), nullptr);
    EXPECT_NE(ir.find_num("limit_mb"), nullptr);
    if (*level == "hard") hard_seen = true;
  }
  EXPECT_TRUE(hard_seen);
  EXPECT_GE(count_instants(p, "sigkill"), 1u);
  EXPECT_GE(count_instants(p, "worker-restart"), 1u);

  // The supervisor's samples: the bloated incarnation's kernel-reported
  // peak reached the watermark, and samples landed as ph:"C" counter events
  // on the supervisor lane of the merged trace.
  ASSERT_FALSE(run.worker_memory.empty());
  std::size_t peak = 0;
  for (const shard::WorkerMemory& m : run.worker_memory)
    peak = std::max({peak, m.peak_rss_kb, m.peak_hwm_kb});
  EXPECT_GE(peak, so.mem_limit_mb * 1024);
  EXPECT_NE(raw_trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(raw_trace.find("mem.worker-"), std::string::npos);

  // The sidecar's memory block carries the per-incarnation peaks.
  std::ostringstream mos;
  shard::write_shard_metrics_json(mos, run, so.shards);
  std::string error;
  const auto doc = parse_json(mos.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* memory = doc->find("memory");
  ASSERT_NE(memory, nullptr);
  const JsonValue* limit = memory->find("limit_mb");
  ASSERT_NE(limit, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(limit->number), so.mem_limit_mb);
  const JsonValue* mem_workers = memory->find("workers");
  ASSERT_NE(mem_workers, nullptr);
  EXPECT_GE(mem_workers->items.size(), run.worker_memory.size());

  // And the canonical merged report is byte-identical to the clean run's.
  std::ostringstream got_json;
  write_canonical_flow_json(got_json, run.per_circuit, so.shards,
                            standard_library().name());
  EXPECT_EQ(got_json.str(), ref_json.str());
}

TEST(ShardObservability, MergedMetricsEqualSingleProcessRegistry) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  // Sharded pass first: reset, run, fold worker registries + the
  // supervisor's own (prep ran pre-fork) through the sidecar document.
  metrics::Registry::global().reset();
  shard::ShardOptions so;
  so.shards = 3;
  so.worker_threads = 1;
  const shard::ShardRun run = run_or_die(circuits, so);
  EXPECT_EQ(run.stats.worker_crashes, 0u);
  ASSERT_EQ(run.worker_metrics.size(), 3u);
  std::ostringstream mos;
  shard::write_shard_metrics_json(mos, run, so.shards);

  std::string error;
  const auto doc = parse_json(mos.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* metrics_block = doc->find("metrics");
  ASSERT_NE(metrics_block, nullptr);
  const auto merged = trace::parse_metrics_value(*metrics_block, &error);
  ASSERT_TRUE(merged.has_value()) << error;

  // Single-process baseline: same circuits, one at a time through a private
  // session — exactly the path a shard worker runs.
  metrics::Registry::global().reset();
  FlowSession session(standard_library());
  for (const Network* net : circuits) session.run_circuit(*net);
  const metrics::Snapshot single = metrics::Registry::global().snapshot();

  // Counters are event counts over disjoint circuit partitions: their
  // merged sum must equal the single-process registry exactly.
  EXPECT_EQ(merged->counters, single.counters);
}

}  // namespace
}  // namespace minpower
