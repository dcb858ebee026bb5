// Unit tests for the cross-process observability plane (DESIGN.md §15):
// span lanes (Chrome trace JSON, decoded by trace/wire.hpp) and the metrics
// block must round-trip exactly, snapshot merging must be
// partition-invariant, the Prometheus exposition
// (trace/prometheus.hpp) must honor the name charset and cumulative-bucket
// contracts, the leveled logger (util/log.hpp) must gate by level, and the
// profiler must rebuild multi-pid traces into per-process forests with
// lifecycle instants and the supervisor-blocking breakdown.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/analysis.hpp"
#include "trace/metrics.hpp"
#include "trace/prometheus.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/log.hpp"

namespace minpower {
namespace {

trace::Event make_event(const char* name, const char* cat, std::int64_t ts,
                        std::int64_t dur, char ph = 'X') {
  trace::Event e;
  e.name = name;
  e.cat = cat;
  e.ts_us = ts;
  e.dur_us = dur;
  e.ph = ph;
  return e;
}

TEST(Wire, EventsRoundTripExactly) {
  std::vector<trace::ThreadEvents> lanes(2);
  lanes[0].tid = 1;
  trace::Event span = make_event("stage1", "engine", 100, 50);
  trace::detail::add_arg(span, "circuit", std::string("c17"));
  trace::detail::add_arg(span, "group", static_cast<long long>(-2));
  trace::detail::add_arg(span, "nodes", static_cast<unsigned long long>(77));
  trace::detail::add_arg(span, "score", 0.5);
  lanes[0].events.push_back(span);
  trace::Event instant = make_event("worker-start", "shard", 120, 0, 'i');
  trace::detail::add_arg(instant, "pid", static_cast<long long>(4242));
  lanes[0].events.push_back(instant);
  lanes[1].tid = 7;
  lanes[1].events.push_back(make_event("map", "map", 10, 3));

  std::ostringstream os;
  trace::write_merged_chrome_trace(os, {trace::ProcessLane{1, {}, lanes}});
  const std::string wire = os.str();
  // One '\n'-terminated line: the pipe protocol ships it as `TRACE <json>`.
  EXPECT_EQ(wire.find('\n'), wire.size() - 1);

  std::string error;
  const auto decoded = trace::parse_chrome_trace(wire, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->size(), 1u);
  const std::vector<trace::ThreadEvents>* parsed = &(*decoded)[0].threads;
  ASSERT_EQ(parsed->size(), 2u);
  const trace::ThreadEvents& t0 = (*parsed)[0];
  EXPECT_EQ(t0.tid, 1);
  ASSERT_EQ(t0.events.size(), 2u);
  const trace::Event& s = t0.events[0];
  EXPECT_EQ(s.name, "stage1");
  EXPECT_EQ(s.cat, "engine");
  EXPECT_EQ(s.ph, 'X');
  EXPECT_EQ(s.ts_us, 100);
  EXPECT_EQ(s.dur_us, 50);
  ASSERT_EQ(s.args.size(), 4u);
  EXPECT_EQ(s.args[0].key, "circuit");
  EXPECT_EQ(s.args[0].s, "c17");
  EXPECT_EQ(s.args[1].i, -2);
  EXPECT_EQ(s.args[2].u, 77u);
  EXPECT_EQ(s.args[3].d, 0.5);
  const trace::Event& i = t0.events[1];
  EXPECT_EQ(i.ph, 'i');
  EXPECT_EQ(i.name, "worker-start");
  EXPECT_EQ((*parsed)[1].tid, 7);
}

TEST(Wire, RejectsMalformedPayloads) {
  std::string error;
  EXPECT_FALSE(trace::parse_chrome_trace("not json", &error).has_value());
  EXPECT_FALSE(trace::parse_chrome_trace("{}", &error).has_value());
  EXPECT_FALSE(trace::parse_metrics_json("[1,2]", &error).has_value());
  // A pid or tid outside int range is an error, not a conversion.
  EXPECT_FALSE(trace::parse_chrome_trace(
                   R"({"traceEvents":[{"ph":"X","name":"a","ts":1,"dur":1,)"
                   R"("tid":1,"pid":1e12}]})",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "pid outside int range");
  EXPECT_FALSE(trace::parse_chrome_trace(
                   R"({"traceEvents":[{"ph":"X","name":"a","ts":1,"dur":1,)"
                   R"("tid":-3e9}]})",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "tid outside int range");
  // A metrics value that is no uint64 is an error, not a conversion.
  for (const char* value : {"-5", "1e30", "2.5"}) {
    error.clear();
    EXPECT_FALSE(trace::parse_metrics_json(
                     std::string(R"({"counters":[{"name":"c","value":)") +
                         value + "}]}",
                     &error)
                     .has_value())
        << value;
    EXPECT_EQ(error, "counters entry 'c': 'value' is not a non-negative "
                     "integer");
  }
  error.clear();
  EXPECT_FALSE(trace::parse_chrome_trace(
                   R"({"traceEvents":[{"ph":"X","name":"a","ts":1e30,)"
                   R"("dur":1,"tid":1}]})",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "ts or dur is not a non-negative integer");
  EXPECT_TRUE(trace::parse_chrome_trace(
                  R"({"traceEvents":[{"ph":"X","name":"a","ts":1,"dur":1,)"
                  R"("tid":-2147483648,"pid":2147483647}]})",
                  &error)
                  .has_value());
}

metrics::Snapshot snapshot_of(
    std::vector<std::pair<std::string, std::uint64_t>> counters,
    std::vector<std::pair<std::string, std::uint64_t>> gauges) {
  metrics::Snapshot s;
  s.counters = std::move(counters);
  s.gauges = std::move(gauges);
  return s;
}

TEST(Wire, MetricsRoundTripAndMerge) {
  metrics::Snapshot a = snapshot_of({{"bdd.ite_calls", 100}, {"x", 1}},
                                    {{"bdd.unique_table_peak", 500}});
  metrics::Snapshot::Hist h;
  h.name = "map.matches_per_node";
  h.count = 3;
  h.sum = 9;
  h.buckets = {{0, 1}, {2, 2}};
  a.histograms.push_back(h);

  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    metrics::write_metrics_json(w, a);
  }
  std::string error;
  const auto back = trace::parse_metrics_json(os.str(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->counters, a.counters);
  EXPECT_EQ(back->gauges, a.gauges);
  ASSERT_EQ(back->histograms.size(), 1u);
  EXPECT_EQ(back->histograms[0].buckets, h.buckets);

  // Merge: counters sum, gauges max, histogram buckets add.
  metrics::Snapshot b = snapshot_of({{"bdd.ite_calls", 11}},
                                    {{"bdd.unique_table_peak", 200}});
  metrics::Snapshot::Hist h2 = h;
  h2.count = 1;
  h2.sum = 4;
  h2.buckets = {{4, 1}};
  b.histograms = {h2};
  const metrics::Snapshot merged = trace::merge_snapshots({a, b});
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "bdd.ite_calls");
  EXPECT_EQ(merged.counters[0].second, 111u);
  EXPECT_EQ(merged.gauges[0].second, 500u);  // max, not sum
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 4u);
  EXPECT_EQ(merged.histograms[0].sum, 13u);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0, 1}, {2, 2}, {4, 1}};
  EXPECT_EQ(merged.histograms[0].buckets, want);

  // Partition invariance: merging {a,b} equals merging {b} then {a} as
  // singleton parts in any split.
  const metrics::Snapshot merged2 =
      trace::merge_snapshots({trace::merge_snapshots({b}), a});
  EXPECT_EQ(merged2.counters, merged.counters);
  EXPECT_EQ(merged2.gauges, merged.gauges);
}

TEST(Prometheus, NameManglingHonorsCharset) {
  EXPECT_EQ(trace::prometheus_name("bdd.ite_calls"), "bdd_ite_calls");
  EXPECT_EQ(trace::prometheus_name("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(trace::prometheus_name("7seg"), "_7seg");
  EXPECT_EQ(trace::prometheus_name(""), "_");
  const std::string n = trace::prometheus_name("weird!@#name");
  for (const char c : n) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    EXPECT_TRUE(ok) << c;
  }
}

TEST(Prometheus, ExpositionFormatAndBucketMonotonicity) {
  metrics::Snapshot s = snapshot_of({{"bdd.ite_calls", 42}},
                                    {{"serve.inflight_peak", 3}});
  metrics::Snapshot::Hist h;
  h.name = "map.matches_per_node";
  h.count = 6;
  h.sum = 30;
  h.buckets = {{0, 1}, {1, 2}, {4, 3}};  // log-2 buckets
  s.histograms.push_back(h);

  std::ostringstream os;
  trace::write_prometheus(os, s);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE bdd_ite_calls_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("bdd_ite_calls_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("serve_inflight_peak 3\n"), std::string::npos);
  // Cumulative bounds: bucket {0}→le="0", [1,1]→le="1", [4,7]→le="7".
  EXPECT_NE(text.find("map_matches_per_node_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("map_matches_per_node_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("map_matches_per_node_bucket{le=\"7\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("map_matches_per_node_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("map_matches_per_node_sum 30\n"), std::string::npos);
  EXPECT_NE(text.find("map_matches_per_node_count 6\n"), std::string::npos);

  // Generic monotonicity scan over every histogram series.
  std::istringstream lines(text);
  std::string line;
  std::string series;
  long long prev = -1;
  while (std::getline(lines, line)) {
    const std::size_t b = line.find("_bucket{le=");
    if (b == std::string::npos) continue;
    const std::string name = line.substr(0, b);
    if (name != series) {
      series = name;
      prev = -1;
    }
    const long long v = std::stoll(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
  }
}

TEST(Logging, LevelGatingAndOverride) {
  const logging::Level before = logging::level();
  logging::set_level(logging::Level::kWarn);
  EXPECT_TRUE(logging::enabled(logging::Level::kError));
  EXPECT_TRUE(logging::enabled(logging::Level::kWarn));
  EXPECT_FALSE(logging::enabled(logging::Level::kInfo));
  EXPECT_FALSE(logging::enabled(logging::Level::kDebug));
  logging::set_level(logging::Level::kDebug);
  EXPECT_TRUE(logging::enabled(logging::Level::kDebug));
  logging::set_level(before);
  EXPECT_STREQ(logging::level_name(logging::Level::kInfo), "info");
}

TEST(TraceCore, InstantsAndPidLaneExport) {
  trace::clear();
  trace::set_enabled(true);
  {
    trace::Instant i("worker-start", "shard");
    i.arg("pid", 7);
  }
  { trace::Span s("work", "engine"); }
  trace::set_enabled(false);

  const std::vector<trace::ThreadEvents> lanes = trace::snapshot_events();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].events.size(), 2u);
  const trace::Event& instant = lanes[0].events[0];
  EXPECT_EQ(instant.ph, 'i');
  EXPECT_EQ(instant.name, "worker-start");
  ASSERT_EQ(instant.args.size(), 1u);
  EXPECT_EQ(instant.args[0].i, 7);
  EXPECT_EQ(lanes[0].events[1].ph, 'X');

  // The exporter renders the instant as a process-scoped mark without a
  // duration.
  std::ostringstream os;
  trace::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"p\""), std::string::npos) << json;

  trace::clear();

  // Disabled handles never record.
  {
    trace::Instant i("ignored", "shard");
    trace::Span s("ignored", "engine");
    EXPECT_FALSE(i.active());
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(trace::num_events(), 0u);
}

TEST(MultiPidProfile, MergedLanesRebuildPerProcessForests) {
  // Synthetic merged trace: a supervisor lane (supervise span + lifecycle
  // instants) and two worker lanes with engine spans, exactly the shape
  // write_shard_trace emits.
  std::vector<trace::ProcessLane> lanes(3);
  lanes[0].pid = 100;
  lanes[0].name = "supervisor (pid 100)";
  trace::ThreadEvents sup;
  sup.tid = 1;
  {
    trace::Event sv = make_event("supervise", "shard", 0, 1000);
    trace::detail::add_arg(sv, "poll_wait_us",
                           static_cast<unsigned long long>(800));
    trace::detail::add_arg(sv, "polls", static_cast<unsigned long long>(20));
    sup.events.push_back(sv);
    trace::Event ws = make_event("worker-start", "shard", 5, 0, 'i');
    trace::detail::add_arg(ws, "pid", static_cast<long long>(200));
    sup.events.push_back(ws);
    sup.events.push_back(make_event("worker-crash", "shard", 400, 0, 'i'));
    sup.events.push_back(make_event("worker-restart", "shard", 450, 0, 'i'));
  }
  lanes[0].threads.push_back(sup);

  for (int wi = 0; wi < 2; ++wi) {
    trace::ProcessLane& lane = lanes[static_cast<std::size_t>(wi) + 1];
    lane.pid = 200 + wi;
    lane.name = "worker-" + std::to_string(wi);
    trace::ThreadEvents te;
    te.tid = 1;
    const std::int64_t base = 100 + 300 * wi;
    trace::Event s1 = make_event("stage1", "engine", base, 40 + 10 * wi);
    trace::detail::add_arg(s1, "circuit", std::string("c") +
                                              std::to_string(wi));
    trace::detail::add_arg(s1, "group", static_cast<long long>(0));
    trace::detail::add_arg(s1, "task", std::string("t1"));
    te.events.push_back(s1);
    trace::Event s2 = make_event("stage2", "engine", base + 60, 100 + 20 * wi);
    trace::detail::add_arg(s2, "circuit", std::string("c") +
                                              std::to_string(wi));
    trace::detail::add_arg(s2, "method", std::string("I"));
    trace::detail::add_arg(s2, "task", std::string("t2"));
    te.events.push_back(s2);
    lane.threads.push_back(te);
  }

  std::ostringstream os;
  trace::write_merged_chrome_trace(os, lanes);

  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(os.str(), &p, &error)) << error;

  ASSERT_EQ(p.processes.size(), 3u);
  EXPECT_EQ(p.processes[0].pid, 100);
  EXPECT_EQ(p.processes[0].name, "supervisor (pid 100)");
  EXPECT_FALSE(p.processes[0].critical.available);
  EXPECT_EQ(p.processes[1].pid, 200);
  ASSERT_TRUE(p.processes[1].critical.available);
  EXPECT_EQ(p.processes[1].critical.barrier_us, 140u);  // 40 + 100
  ASSERT_TRUE(p.processes[2].critical.available);
  EXPECT_EQ(p.processes[2].critical.barrier_us, 170u);  // 50 + 120
  // Trace-level path is the dominant per-process one.
  EXPECT_EQ(p.critical.barrier_us, 170u);

  // Threads carry their pid; self time within each lane sums to busy.
  ASSERT_EQ(p.threads.size(), 3u);
  for (const trace::ThreadTotals& t : p.threads)
    EXPECT_EQ(t.self_us, t.busy_us);  // no nesting in this synthetic trace

  // Lifecycle instants in timestamp order, attributed to the supervisor.
  ASSERT_EQ(p.lifecycle.size(), 3u);
  EXPECT_EQ(p.lifecycle[0].name, "worker-start");
  EXPECT_EQ(p.lifecycle[0].pid, 100);
  ASSERT_NE(p.lifecycle[0].find_num("pid"), nullptr);
  EXPECT_EQ(*p.lifecycle[0].find_num("pid"), 200.0);
  EXPECT_EQ(p.lifecycle[1].name, "worker-crash");
  EXPECT_EQ(p.lifecycle[2].name, "worker-restart");

  // Supervisor-blocking breakdown from the supervise span args.
  ASSERT_TRUE(p.supervisor.available);
  EXPECT_EQ(p.supervisor.supervise_us, 1000u);
  EXPECT_EQ(p.supervisor.poll_wait_us, 800u);
  EXPECT_EQ(p.supervisor.busy_us(), 200u);
  EXPECT_EQ(p.supervisor.polls, 20u);

  // The JSON document renders without tripping assertions and keeps the
  // v1 top-level contract.
  std::ostringstream json;
  trace::write_profile_json(json, p, "synthetic", 10);
  EXPECT_NE(json.str().find("\"num_processes\": 3"), std::string::npos);
  std::ostringstream text;
  trace::print_profile(text, p, 10);
  EXPECT_NE(text.str().find("process lanes:"), std::string::npos);
  EXPECT_NE(text.str().find("lifecycle events:"), std::string::npos);
  EXPECT_NE(text.str().find("supervisor: supervise"), std::string::npos);
}

}  // namespace
}  // namespace minpower
