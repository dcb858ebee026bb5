// Trace export → profile round trip (DESIGN.md §11): run the flow engine
// under the tracer, feed the exported Chrome trace back through
// analyze_chrome_trace, and check the span forest against the tracer's own
// event count and the nesting invariants the profiler guarantees; plus
// synthetic-trace forest checks and malformed-input rejection.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace minpower {
namespace {

Network prepared(std::uint64_t seed) {
  Network net = testing::random_network(seed, 7, 16, 3);
  prepare_network(net);
  return net;
}

TEST(TraceProfile, RoundTripRecoversEverySpan) {
  trace::clear();
  std::vector<Network> nets;
  for (std::uint64_t seed : {81u, 82u, 83u}) nets.push_back(prepared(seed));
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);

  EngineOptions eo;
  eo.num_threads = 8;
  FlowSession engine(standard_library(), eo);
  trace::set_enabled(true);
  const auto results = engine.run_suite(circuits);
  trace::set_enabled(false);
  ASSERT_EQ(results.size(), circuits.size());

  std::ostringstream os;
  trace::write_chrome_trace(os);
  const std::size_t recorded = trace::num_events();
  ASSERT_GT(recorded, 0u);

  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(os.str(), &p, &error)) << error;

  // Every recorded span must be recovered, none invented.
  EXPECT_EQ(p.num_events, recorded);
  EXPECT_EQ(p.spans.size(), recorded);

  // Forest invariants: parents contain children, self times partition the
  // inclusive duration (non-negative by construction — checked via the
  // child-duration sum), depth is consistent.
  std::vector<std::uint64_t> child_sum(p.spans.size(), 0);
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    const trace::SpanRecord& s = p.spans[i];
    EXPECT_LE(s.self_us, s.dur_us);
    if (s.parent >= 0) {
      const trace::SpanRecord& par = p.spans[static_cast<std::size_t>(s.parent)];
      EXPECT_EQ(par.tid, s.tid);
      EXPECT_EQ(s.depth, par.depth + 1);
      EXPECT_GE(s.ts_us, par.ts_us);
      EXPECT_LE(s.ts_us + s.dur_us, par.ts_us + par.dur_us);
      child_sum[static_cast<std::size_t>(s.parent)] += s.dur_us;
    } else {
      EXPECT_EQ(s.depth, 0);
    }
  }
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    EXPECT_LE(child_sum[i], p.spans[i].dur_us) << p.spans[i].name;
    EXPECT_EQ(p.spans[i].self_us, p.spans[i].dur_us - child_sum[i])
        << p.spans[i].name;
  }

  // Per-thread accounting: the self-time sum equals top-level busy time and
  // never exceeds the thread's own wall-clock extent.
  std::map<int, std::uint64_t> self_by_tid;
  for (const trace::SpanRecord& s : p.spans) self_by_tid[s.tid] += s.self_us;
  ASSERT_EQ(p.threads.size(), self_by_tid.size());
  for (const trace::ThreadTotals& t : p.threads) {
    EXPECT_EQ(t.self_us, self_by_tid[t.tid]);
    EXPECT_EQ(t.self_us, t.busy_us);
    EXPECT_LE(t.self_us, t.wall_us());
    EXPECT_LE(t.wall_us(), p.wall_us);
  }

  // Phase totals cover every span exactly once.
  std::uint64_t phase_count = 0, phase_self = 0, total_self = 0;
  for (const trace::PhaseTotals& ph : p.phases) {
    phase_count += ph.count;
    phase_self += ph.self_us;
    EXPECT_LE(ph.min_us, ph.max_us) << ph.name;
    EXPECT_LE(ph.self_us, ph.total_us) << ph.name;
  }
  for (const trace::SpanRecord& s : p.spans) total_self += s.self_us;
  EXPECT_EQ(phase_count, p.spans.size());
  EXPECT_EQ(phase_self, total_self);

  // The engine emitted all three fan-out stages, so queue waits and the
  // critical path must be populated; the barrier schedule can never beat
  // the pure dependency bound.
  EXPECT_EQ(p.stage1_wait.count, circuits.size() * 3);
  EXPECT_EQ(p.stage2_wait.count, circuits.size() * 6);
  ASSERT_TRUE(p.critical.available);
  EXPECT_GE(p.critical.barrier_us, p.critical.dependency_us);
  ASSERT_EQ(p.critical.barrier_chain.size(), 3u);
  EXPECT_EQ(p.critical.barrier_chain[0].stage, "stage0");
  EXPECT_EQ(p.critical.barrier_chain[1].stage, "stage1");
  EXPECT_EQ(p.critical.barrier_chain[2].stage, "stage2");
  ASSERT_EQ(p.critical.dependency_chain.size(), 3u);

  // Both renderers accept the profile.
  std::ostringstream text, json;
  trace::print_profile(text, p, 10);
  trace::write_profile_json(json, p, "roundtrip.trace.json", 10);
  EXPECT_NE(text.str().find("critical path"), std::string::npos);
  EXPECT_NE(json.str().find("minpower.profile.v1"), std::string::npos);
}

TEST(TraceProfile, SyntheticForestSelfTimes) {
  // tid 1: root [0,100] with children [10,40) and [50,90), grandchild
  // [55,60); tid 2: a lone span. Metadata events must be ignored.
  const char* json = R"({
    "traceEvents": [
      {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
       "args": {"name": "minpower"}},
      {"ph": "X", "name": "root", "cat": "t", "pid": 1, "tid": 1,
       "ts": 0, "dur": 100},
      {"ph": "X", "name": "childA", "cat": "t", "pid": 1, "tid": 1,
       "ts": 10, "dur": 30},
      {"ph": "X", "name": "childB", "cat": "t", "pid": 1, "tid": 1,
       "ts": 50, "dur": 40, "args": {"k": "v", "n": 7}},
      {"ph": "X", "name": "grand", "cat": "t", "pid": 1, "tid": 1,
       "ts": 55, "dur": 5},
      {"ph": "X", "name": "other", "cat": "t", "pid": 1, "tid": 2,
       "ts": 20, "dur": 15}
    ]
  })";
  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(json, &p, &error)) << error;
  ASSERT_EQ(p.spans.size(), 5u);
  EXPECT_EQ(p.wall_us, 100u);

  std::map<std::string, const trace::SpanRecord*> by_name;
  for (const trace::SpanRecord& s : p.spans) by_name[s.name] = &s;
  EXPECT_EQ(by_name["root"]->self_us, 30u);    // 100 − 30 − 40
  EXPECT_EQ(by_name["root"]->parent, -1);
  EXPECT_EQ(by_name["childA"]->self_us, 30u);
  EXPECT_EQ(by_name["childB"]->self_us, 35u);  // 40 − 5
  EXPECT_EQ(by_name["grand"]->depth, 2);
  EXPECT_EQ(p.spans[static_cast<std::size_t>(by_name["grand"]->parent)].name,
            "childB");
  EXPECT_EQ(by_name["other"]->parent, -1);

  ASSERT_NE(by_name["childB"]->find_str("k"), nullptr);
  EXPECT_EQ(*by_name["childB"]->find_str("k"), "v");
  ASSERT_NE(by_name["childB"]->find_num("n"), nullptr);
  EXPECT_EQ(*by_name["childB"]->find_num("n"), 7.0);

  ASSERT_EQ(p.threads.size(), 2u);
  EXPECT_EQ(p.threads[0].tid, 1);
  EXPECT_EQ(p.threads[0].busy_us, 100u);
  EXPECT_EQ(p.threads[1].tid, 2);
  EXPECT_EQ(p.threads[1].busy_us, 15u);

  // No engine stage spans → no critical path, but still a valid profile.
  EXPECT_FALSE(p.critical.available);
}

TEST(TraceProfile, SyntheticEngineCriticalPath) {
  // Two circuits through all three stages on one thread. Barrier model:
  // the slowest task of each stage (a/source 50 + b/decomp[0] 70 +
  // a/map[I] 40 = 160). Dependency model: b/map[IV] 31 needs b/decomp[0]
  // 70 and b/source 10 (111), which beats a/map[I] 40 + a/decomp[0] 20 +
  // a/source 50 (110).
  const char* json = R"({
    "traceEvents": [
      {"ph": "X", "name": "stage0", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 0, "dur": 50,
       "args": {"task": "a/source", "circuit": "a", "queue_wait_us": 0}},
      {"ph": "X", "name": "stage0", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 50, "dur": 10,
       "args": {"task": "b/source", "circuit": "b", "queue_wait_us": 50}},
      {"ph": "X", "name": "stage1", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 60, "dur": 20,
       "args": {"task": "a/decomp[0]", "circuit": "a", "group": 0,
                "queue_wait_us": 0}},
      {"ph": "X", "name": "stage1", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 80, "dur": 70,
       "args": {"task": "b/decomp[0]", "circuit": "b", "group": 0,
                "queue_wait_us": 20}},
      {"ph": "X", "name": "stage2", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 150, "dur": 40,
       "args": {"task": "a/map[I]", "circuit": "a", "method": "I",
                "queue_wait_us": 0}},
      {"ph": "X", "name": "stage2", "cat": "engine", "pid": 1, "tid": 1,
       "ts": 190, "dur": 31,
       "args": {"task": "b/map[IV]", "circuit": "b", "method": "IV",
                "queue_wait_us": 40}}
    ]
  })";
  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(json, &p, &error)) << error;
  ASSERT_TRUE(p.critical.available);
  EXPECT_EQ(p.critical.barrier_us, 160u);
  ASSERT_EQ(p.critical.barrier_chain.size(), 3u);
  EXPECT_EQ(p.critical.barrier_chain[0].task, "a/source");
  EXPECT_EQ(p.critical.barrier_chain[1].task, "b/decomp[0]");
  EXPECT_EQ(p.critical.barrier_chain[2].task, "a/map[I]");
  EXPECT_EQ(p.critical.dependency_us, 111u);
  ASSERT_EQ(p.critical.dependency_chain.size(), 3u);
  EXPECT_EQ(p.critical.dependency_chain[0].stage, "stage0");
  EXPECT_EQ(p.critical.dependency_chain[0].task, "b/source");
  EXPECT_EQ(p.critical.dependency_chain[1].task, "b/decomp[0]");
  EXPECT_EQ(p.critical.dependency_chain[2].task, "b/map[IV]");
  // Stage-0 queue waits are not aggregated: the wait blocks stay stage1/2.
  EXPECT_EQ(p.stage1_wait.count, 2u);
  EXPECT_EQ(p.stage2_wait.count, 2u);
}

TEST(TraceProfile, EmptyTraceIsValid) {
  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(
      trace::analyze_chrome_trace(R"({"traceEvents": []})", &p, &error))
      << error;
  EXPECT_EQ(p.num_events, 0u);
  EXPECT_EQ(p.wall_us, 0u);
  EXPECT_TRUE(p.spans.empty());
  EXPECT_FALSE(p.critical.available);
}

TEST(TraceProfile, RejectsMalformedTraces) {
  trace::TraceProfile p;
  std::string error;
  EXPECT_FALSE(trace::analyze_chrome_trace("{", &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(trace::analyze_chrome_trace("{}", &p, &error));
  EXPECT_FALSE(trace::analyze_chrome_trace(R"({"traceEvents": 5})", &p,
                                           &error));
  // An X event missing required fields is an error, not silently dropped.
  EXPECT_FALSE(trace::analyze_chrome_trace(
      R"({"traceEvents": [{"ph": "X", "name": "a"}]})", &p, &error));
  EXPECT_FALSE(trace::analyze_chrome_trace(
      R"({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1, "tid": 1}]})", &p,
      &error));
}


std::string golden(const std::string& name) {
  const std::string path = std::string(MP_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

trace::Event golden_event(const char* name, const char* cat, char ph,
                          std::uint64_t ts, std::uint64_t dur = 0) {
  trace::Event e;
  e.name = name;
  e.cat = cat;
  e.ph = ph;
  e.ts_us = ts;
  e.dur_us = dur;
  return e;
}

// Pins the merged-trace encoding and both profile renderers on a fixed
// two-process lane set: X/i/C events, string (with escapes), negative,
// unsigned and double args, and two sibling spans with equal (ts, dur) so
// the profiler's stable tie-break (document order) is part of the output.
TEST(TraceProfile, GoldenMergedTraceAndProfile) {
  using U = unsigned long long;
  std::vector<trace::ProcessLane> lanes(2);
  lanes[0].pid = 100;
  lanes[0].name = "supervisor (pid 100)";
  {
    trace::ThreadEvents t;
    t.tid = 1;
    trace::Event sv = golden_event("supervise", "shard", 'X', 0, 1000);
    trace::detail::add_arg(sv, "poll_wait_us", U{800});
    trace::detail::add_arg(sv, "polls", U{20});
    t.events.push_back(sv);
    trace::Event ws = golden_event("worker-start", "shard", 'i', 5);
    trace::detail::add_arg(ws, "pid", 200LL);
    trace::detail::add_arg(ws, "label", std::string_view("w\"0\\"));
    t.events.push_back(ws);
    trace::Event mem = golden_event("mem.worker-0", "shard", 'C', 300);
    trace::detail::add_arg(mem, "rss_kb", U{4096});
    trace::detail::add_arg(mem, "hwm_kb", U{5120});
    t.events.push_back(mem);
    trace::Event mp = golden_event("mem-pressure", "shard", 'i', 600);
    trace::detail::add_arg(mp, "level", std::string_view("soft"));
    trace::detail::add_arg(mp, "ratio", 0.8125);
    t.events.push_back(mp);
    lanes[0].threads.push_back(t);
  }
  lanes[1].pid = 200;
  lanes[1].name = "worker-0 (pid 200)";
  {
    trace::ThreadEvents t;
    t.tid = 1;
    trace::Event s1 = golden_event("stage1", "engine", 'X', 100, 400);
    trace::detail::add_arg(s1, "circuit", std::string_view("c17"));
    trace::detail::add_arg(s1, "group", 1LL);
    trace::detail::add_arg(s1, "task", std::string_view("c17/decomp[1]"));
    trace::detail::add_arg(s1, "queue_wait_us", U{12});
    t.events.push_back(s1);
    trace::Event dc = golden_event("decomp", "decomp", 'X', 110, 100);
    trace::detail::add_arg(dc, "delta", -3LL);
    t.events.push_back(dc);
    trace::Event ac = golden_event("activity", "prob", 'X', 110, 100);
    trace::detail::add_arg(ac, "score", 0.25);
    t.events.push_back(ac);
    trace::Event s2 = golden_event("stage2", "engine", 'X', 520, 300);
    trace::detail::add_arg(s2, "circuit", std::string_view("c17"));
    trace::detail::add_arg(s2, "method", std::string_view("V"));
    trace::detail::add_arg(s2, "task", std::string_view("c17/map[V]"));
    trace::detail::add_arg(s2, "queue_wait_us", U{7});
    trace::detail::add_arg(s2, "gain", -1.5);
    t.events.push_back(s2);
    lanes[1].threads.push_back(t);
    trace::ThreadEvents t3;
    t3.tid = 3;
    trace::Event mp = golden_event("map", "map", 'X', 530, 50);
    trace::detail::add_arg(mp, "gates", U{12});
    t3.events.push_back(mp);
    lanes[1].threads.push_back(t3);
  }

  std::ostringstream file;
  trace::write_merged_chrome_trace(file, lanes);
  EXPECT_EQ(file.str(), golden("profile_golden.trace.json"));

  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(file.str(), &p, &error)) << error;
  std::ostringstream json;
  trace::write_profile_json(json, p, "golden.trace.json", 3);
  EXPECT_EQ(json.str(), golden("profile_golden.json"));
  std::ostringstream text;
  trace::print_profile(text, p, 3);
  EXPECT_EQ(text.str(), golden("profile_golden.txt"));
}

}  // namespace
}  // namespace minpower
