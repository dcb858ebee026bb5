// Chaos tests for the crash-isolated sharded flow (shard/supervisor.hpp,
// DESIGN.md §14): workers dying by abort, SIGKILL, or silent hang must never
// lose the run — the supervisor restarts them, re-enqueues only their
// unfinished circuits, and the merged report is byte-identical to an
// uninterrupted run. When the restart budget is exhausted the dead worker's
// cells are marked failed (never dropped), and `--resume` over the journal
// recomputes exactly the missing cells, again byte-identically.
//
// These tests fork real worker processes (ctest label: chaos).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "report/baseline.hpp"
#include "shard/journal.hpp"
#include "shard/supervisor.hpp"
#include "util/json_writer.hpp"

namespace minpower {
namespace {

/// Prepared prefix of the paper suite — the same circuits, in the same
/// order, as the committed QoR baseline (tests/baselines/flow_suite.json).
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

/// Canonical byte-comparable rendering of every cell (the policy the
/// sharded report uses: no metrics, zeroed wall times).
std::string canonical_cells(
    const std::vector<std::vector<FlowResult>>& per_circuit) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  w.begin_array();
  for (const std::vector<FlowResult>& rs : per_circuit)
    for (const FlowResult& r : rs) write_flow_result_json(w, r, policy);
  w.end_array();
  return os.str();
}

/// One cell rendered canonically (for surviving-cell comparisons).
std::string canonical_cell(const FlowResult& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  write_flow_result_json(w, r, policy);
  return os.str();
}

shard::ShardRun run_or_die(const std::vector<const Network*>& circuits,
                           const shard::ShardOptions& options,
                           const FlowOptions& flow = {}) {
  shard::ShardRun run;
  std::string error;
  EXPECT_TRUE(shard::run_sharded_suite(circuits, standard_library(), flow,
                                       options, &run, &error))
      << error;
  return run;
}

TEST(Shard, CleanRunMatchesInProcessEngineAndIsShardCountIndependent) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  EngineOptions eo;
  eo.num_threads = 1;
  FlowSession engine(standard_library(), eo);
  const auto in_process = engine.run_suite(circuits);

  shard::ShardOptions so;
  so.shards = 2;
  const shard::ShardRun two = run_or_die(circuits, so);
  so.shards = 3;
  const shard::ShardRun three = run_or_die(circuits, so);

  EXPECT_EQ(canonical_cells(two.per_circuit), canonical_cells(in_process));
  EXPECT_EQ(canonical_cells(two.per_circuit),
            canonical_cells(three.per_circuit));
  EXPECT_EQ(two.stats.cells_computed, 18u);
  EXPECT_EQ(two.stats.cells_failed, 0u);
  EXPECT_EQ(two.stats.worker_crashes, 0u);
}

TEST(Shard, WorkerAbortRecoversByteExact) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  shard::ShardOptions so;
  so.shards = 2;
  const shard::ShardRun clean = run_or_die(circuits, so);

  so.injections = {{"worker-abort", 1}};
  so.backoff_ms = 10;
  const shard::ShardRun crashed = run_or_die(circuits, so);

  EXPECT_GE(crashed.stats.worker_crashes, 1u);
  EXPECT_GE(crashed.stats.worker_restarts, 1u);
  EXPECT_EQ(crashed.stats.cells_failed, 0u);
  EXPECT_EQ(canonical_cells(crashed.per_circuit),
            canonical_cells(clean.per_circuit));
}

TEST(Shard, SigkilledWorkerRecoversAndMatchesCommittedBaseline) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);

  shard::ShardOptions so;
  so.shards = 2;
  so.backoff_ms = 10;
  // worker-oom raises SIGKILL inside the worker: death without any exit
  // path, the hardest crash the supervisor must absorb.
  so.injections = {{"worker-oom", 1}};
  const shard::ShardRun run = run_or_die(circuits, so);
  EXPECT_GE(run.stats.worker_crashes, 1u);
  EXPECT_EQ(run.stats.cells_failed, 0u);

  std::ostringstream os;
  write_canonical_flow_json(os, run.per_circuit, so.shards,
                            standard_library().name());

  report::FlowReportDoc base;
  report::FlowReportDoc cand;
  std::string error;
  ASSERT_TRUE(report::load_flow_report_file(
      std::string(MP_TEST_DATA_DIR) + "/baselines/flow_suite.json", &base,
      &error))
      << error;
  ASSERT_TRUE(report::load_flow_report(os.str(), "sharded", &cand, &error))
      << error;

  report::CompareOptions opt;  // QoR exact…
  opt.time_band = -1.0;        // …wall times zeroed / machine-dependent
  const report::CompareReport r =
      report::compare_flow_reports(base, cand, opt);
  std::ostringstream verdict;
  report::print_compare(verdict, r);
  EXPECT_FALSE(r.regression()) << verdict.str();
  EXPECT_EQ(r.ok, 18);  // every surviving (= all) cell matches the baseline
}

TEST(Shard, HungWorkerIsKilledByHeartbeatTimeoutAndRecovers) {
  const std::vector<Network> nets = suite_prefix(2);
  const auto circuits = pointers(nets);

  shard::ShardOptions so;
  so.shards = 2;
  const shard::ShardRun clean = run_or_die(circuits, so);

  so.injections = {{"worker-hang", 1}};
  so.heartbeat_ms = 50;
  so.heartbeat_timeout_ms = 500;
  so.backoff_ms = 10;
  const shard::ShardRun hung = run_or_die(circuits, so);

  EXPECT_GE(hung.stats.heartbeat_kills, 1u);
  EXPECT_GE(hung.stats.worker_restarts, 1u);
  EXPECT_EQ(hung.stats.cells_failed, 0u);
  EXPECT_EQ(canonical_cells(hung.per_circuit),
            canonical_cells(clean.per_circuit));
}

TEST(Shard, RetryExhaustionFailsCellsThenResumeCompletesByteExact) {
  const std::vector<Network> nets = suite_prefix(3);
  const auto circuits = pointers(nets);
  const std::string journal =
      ::testing::TempDir() + "shard_exhaustion_journal.jsonl";

  shard::ShardOptions so;
  so.shards = 2;
  const shard::ShardRun clean = run_or_die(circuits, so);

  // Every restart re-fires nothing (faults fire once per run), but with a
  // zero retry budget the first crash already exhausts circuit 1.
  so.injections = {{"worker-abort", 1}};
  so.max_circuit_retries = 0;
  so.backoff_ms = 10;
  so.journal_path = journal;
  const shard::ShardRun partial = run_or_die(circuits, so);

  EXPECT_EQ(partial.stats.cells_failed, 6u);
  EXPECT_EQ(partial.stats.cells_computed, 12u);
  for (std::size_t mi = 0; mi < 6; ++mi) {
    const FlowResult& r = partial.per_circuit[1][mi];
    EXPECT_EQ(r.status.state, TaskState::kFailed);
    EXPECT_NE(r.status.reason.find("retries exhausted"), std::string::npos)
        << r.status.reason;
  }
  // Surviving cells are byte-exact despite the crash next door.
  for (const std::size_t ci : {std::size_t{0}, std::size_t{2}})
    for (std::size_t mi = 0; mi < 6; ++mi)
      EXPECT_EQ(canonical_cell(partial.per_circuit[ci][mi]),
                canonical_cell(clean.per_circuit[ci][mi]));

  // The journal holds exactly the 12 completed cells (failed cells are
  // crash-specific and must be recomputed, not replayed).
  shard::Journal j;
  std::string error;
  ASSERT_TRUE(shard::load_journal(journal, &j, &error)) << error;
  EXPECT_EQ(j.cells.size(), 12u);

  // Resume without the fault: only the missing circuit is recomputed and
  // the merged result is byte-identical to the uninterrupted run.
  shard::ShardOptions ro;
  ro.shards = 2;
  ro.resume_path = journal;
  ro.journal_path = journal;
  const shard::ShardRun resumed = run_or_die(circuits, ro);
  EXPECT_EQ(resumed.stats.cells_resumed, 12u);
  EXPECT_EQ(resumed.stats.cells_computed, 6u);
  EXPECT_EQ(resumed.stats.cells_failed, 0u);
  EXPECT_EQ(canonical_cells(resumed.per_circuit),
            canonical_cells(clean.per_circuit));
  std::remove(journal.c_str());
}

TEST(Shard, WorkerProtocolHasSixRecordsAndMemIsABreach) {
  using shard::WorkerRecord;
  std::string_view payload = "stale";
  // Workers ship no memory samples (the supervisor reads /proc itself),
  // so a MEM line is a protocol breach like any unknown verb.
  EXPECT_EQ(shard::parse_worker_record("MEM {\"rss_kb\":1,\"hwm_kb\":2}",
                                       &payload),
            WorkerRecord::kBreach);
  EXPECT_TRUE(payload.empty());

  EXPECT_EQ(shard::parse_worker_record("BEAT", &payload), WorkerRecord::kBeat);
  EXPECT_EQ(shard::parse_worker_record("DONE", &payload), WorkerRecord::kDone);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(shard::parse_worker_record("START 12", &payload),
            WorkerRecord::kStart);
  EXPECT_EQ(payload, "12");
  EXPECT_EQ(shard::parse_worker_record("CELL 1 2 {}", &payload),
            WorkerRecord::kCell);
  EXPECT_EQ(payload, "1 2 {}");
  EXPECT_EQ(shard::parse_worker_record("TRACE {\"traceEvents\":[]}",
                                       &payload),
            WorkerRecord::kTrace);
  EXPECT_EQ(payload, "{\"traceEvents\":[]}");
  EXPECT_EQ(shard::parse_worker_record("METRICS {}", &payload),
            WorkerRecord::kMetrics);
  EXPECT_EQ(payload, "{}");

  for (const char* line : {"", "BEAT ", "DONE x", "START", "STARTED 1",
                           "cell 1 2 {}", "MEM", " BEAT"})
    EXPECT_EQ(shard::parse_worker_record(line, &payload),
              WorkerRecord::kBreach)
        << "'" << line << "'";
}

TEST(Shard, ResumeRejectsMismatchedSuite) {
  const std::vector<Network> nets = suite_prefix(2);
  const auto circuits = pointers(nets);
  const std::string journal =
      ::testing::TempDir() + "shard_mismatch_journal.jsonl";

  shard::ShardOptions so;
  so.shards = 2;
  so.journal_path = journal;
  run_or_die(circuits, so);

  // Same circuits, different flow options → different suite fingerprint:
  // resuming would splice cells computed under other budgets.
  FlowOptions tightened;
  tightened.bdd_node_limit = 1u << 21;
  shard::ShardOptions ro;
  ro.shards = 2;
  ro.resume_path = journal;
  shard::ShardRun run;
  std::string error;
  EXPECT_FALSE(shard::run_sharded_suite(circuits, standard_library(),
                                        tightened, ro, &run, &error));
  EXPECT_NE(error.find("suite"), std::string::npos) << error;

  // Different circuit list → rejected as well.
  const std::vector<Network> other = suite_prefix(1);
  EXPECT_FALSE(shard::run_sharded_suite(pointers(other), standard_library(),
                                        FlowOptions{}, ro, &run, &error));
  std::remove(journal.c_str());
}

TEST(Shard, JournalCellWithOutOfRangeIntegerIsRejected) {
  const std::string journal =
      ::testing::TempDir() + "shard_huge_gates_journal.jsonl";
  std::string cell = canonical_cell(FlowResult{});
  const std::size_t at = cell.find("\"gates\":0");
  ASSERT_NE(at, std::string::npos) << cell;
  cell.replace(at, std::strlen("\"gates\":0"), "\"gates\":1e300");
  std::ofstream(journal)
      << "{\"schema\":\"minpower.shard.v1\",\"library\":\"lib\","
         "\"suite_hash\":\"0\",\"circuits\":[\"a\"]}\n"
      << "{\"ci\":0,\"mi\":0,\"cell\":" << cell << "}\n";
  shard::Journal j;
  std::string error;
  EXPECT_FALSE(shard::load_journal(journal, &j, &error));
  EXPECT_EQ(error, journal + ":2: field 'gates' is not an integer in range");

  std::ofstream(journal)
      << "{\"schema\":\"minpower.shard.v1\",\"library\":\"lib\","
         "\"suite_hash\":\"0\",\"circuits\":[\"a\"]}\n"
      << "{\"ci\":1e300,\"mi\":0,\"cell\":" << canonical_cell(FlowResult{})
      << "}\n";
  EXPECT_FALSE(shard::load_journal(journal, &j, &error));
  EXPECT_EQ(error, journal + ":2: cell index out of range");
  std::remove(journal.c_str());
}

TEST(Shard, TruncatedJournalTailIsToleratedOnResume) {
  const std::vector<Network> nets = suite_prefix(2);
  const auto circuits = pointers(nets);
  const std::string journal =
      ::testing::TempDir() + "shard_torn_journal.jsonl";

  shard::ShardOptions so;
  so.shards = 2;
  const shard::ShardRun clean = run_or_die(circuits, so);
  so.journal_path = journal;
  run_or_die(circuits, so);

  shard::Journal before;
  std::string error;
  ASSERT_TRUE(shard::load_journal(journal, &before, &error)) << error;
  ASSERT_EQ(before.cells.size(), 12u);

  {  // Supervisor died mid-write: a torn final line with no newline.
    std::ofstream out(journal, std::ios::app);
    out << "{\"ci\":0,\"mi\":3,\"cell\":{\"met";
  }
  shard::Journal torn;
  ASSERT_TRUE(shard::load_journal(journal, &torn, &error)) << error;
  EXPECT_EQ(torn.cells.size(), before.cells.size());

  shard::ShardOptions ro;
  ro.shards = 2;
  ro.resume_path = journal;
  const shard::ShardRun resumed = run_or_die(circuits, ro);
  EXPECT_EQ(resumed.stats.cells_resumed, 12u);
  EXPECT_EQ(resumed.stats.cells_computed, 0u);
  EXPECT_EQ(canonical_cells(resumed.per_circuit),
            canonical_cells(clean.per_circuit));
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace minpower
