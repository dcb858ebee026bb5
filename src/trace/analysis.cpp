#include "trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>

#include "trace/wire.hpp"
#include "util/json_writer.hpp"

namespace minpower::trace {

namespace {

/// Decomposition group of an engine method label ("I".."VI"); mirrors the
/// engine's rule (method index % 3). Returns -1 for anything unrecognized.
int group_of_method(const std::string& m) {
  if (m == "I" || m == "IV") return 0;
  if (m == "II" || m == "V") return 1;
  if (m == "III" || m == "VI") return 2;
  return -1;
}

/// Exact q-quantile of an ascending sample vector (nearest-rank).
std::uint64_t quantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

WaitStats wait_stats(std::vector<std::uint64_t> samples) {
  WaitStats w;
  if (samples.empty()) return w;
  std::sort(samples.begin(), samples.end());
  w.count = samples.size();
  w.min_us = samples.front();
  w.max_us = samples.back();
  std::uint64_t sum = 0;
  for (const std::uint64_t s : samples) sum += s;
  w.mean_us = static_cast<double>(sum) / static_cast<double>(samples.size());
  w.p50_us = quantile(samples, 0.50);
  w.p90_us = quantile(samples, 0.90);
  w.p99_us = quantile(samples, 0.99);
  return w;
}

/// Keep the slower of `slot` and `s` in `slot`.
void keep_slowest(const SpanRecord*& slot, const SpanRecord* s) {
  if (slot == nullptr || s->dur_us > slot->dur_us) slot = s;
}

/// One process's engine spans: stage 0 by circuit, stage 1 by (circuit,
/// group) — the slowest attempt of each if one repeats (e.g. two run_suite
/// calls in one trace), conservative for the path — and every stage-2 task.
struct EngineSpans {
  std::map<std::string, const SpanRecord*> stage0;
  std::map<std::pair<std::string, int>, const SpanRecord*> stage1;
  std::vector<const SpanRecord*> stage2;
};

/// Critical path of one process's engine spans (barrier and dependency
/// models — see the header comment).
CriticalPath engine_critical_path(const EngineSpans& e) {
  CriticalPath cp;
  if (e.stage0.empty() && e.stage1.empty() && e.stage2.empty()) return cp;
  cp.available = true;
  auto label_of = [](const SpanRecord& s) {
    const std::string* task = s.find_str("task");
    return task != nullptr ? *task : s.name;
  };
  const SpanRecord* worst[3] = {nullptr, nullptr, nullptr};
  for (const auto& [key, s] : e.stage0) keep_slowest(worst[0], s);
  for (const auto& [key, s] : e.stage1) keep_slowest(worst[1], s);
  for (const SpanRecord* s : e.stage2) keep_slowest(worst[2], s);
  static const char* const kStage[3] = {"stage0", "stage1", "stage2"};
  for (int k = 0; k < 3; ++k)
    if (worst[k] != nullptr) {
      cp.barrier_chain.push_back(
          {kStage[k], label_of(*worst[k]), worst[k]->dur_us});
      cp.barrier_us += worst[k]->dur_us;
    }

  // Dependency model: chain each task of the last stage present to its own
  // circuit's stage-1 group and stage-0 source pass only.
  const auto source_of = [&e](const SpanRecord& s) -> const SpanRecord* {
    const std::string* circuit = s.find_str("circuit");
    if (circuit == nullptr) return nullptr;
    const auto it = e.stage0.find(*circuit);
    return it != e.stage0.end() ? it->second : nullptr;
  };
  const auto offer = [&](const SpanRecord* s0, const SpanRecord* s1,
                         const SpanRecord* s2) {
    const SpanRecord* chain[3] = {s0, s1, s2};
    std::uint64_t us = 0;
    for (const SpanRecord* s : chain)
      if (s != nullptr) us += s->dur_us;
    if (!cp.dependency_chain.empty() && us <= cp.dependency_us) return;
    cp.dependency_us = us;
    cp.dependency_chain.clear();
    for (int k = 0; k < 3; ++k)
      if (chain[k] != nullptr)
        cp.dependency_chain.push_back(
            {kStage[k], label_of(*chain[k]), chain[k]->dur_us});
  };
  for (const SpanRecord* s2 : e.stage2) {
    const std::string* circuit = s2->find_str("circuit");
    const std::string* method = s2->find_str("method");
    const SpanRecord* s1 = nullptr;
    if (circuit != nullptr && method != nullptr) {
      const int g = group_of_method(*method);
      const auto it = g >= 0 ? e.stage1.find({*circuit, g}) : e.stage1.end();
      if (it != e.stage1.end()) s1 = it->second;
    }
    offer(source_of(*s2), s1, s2);
  }
  if (e.stage2.empty())
    for (const auto& [key, s1] : e.stage1) offer(source_of(*s1), s1, nullptr);
  return cp;
}

}  // namespace

const std::string* SpanRecord::find_str(std::string_view key) const {
  for (const auto& [k, v] : str_args)
    if (k == key) return &v;
  return nullptr;
}

const double* SpanRecord::find_num(std::string_view key) const {
  for (const auto& [k, v] : num_args)
    if (k == key) return &v;
  return nullptr;
}

const std::string* InstantRecord::find_str(std::string_view key) const {
  for (const auto& [k, v] : str_args)
    if (k == key) return &v;
  return nullptr;
}

const double* InstantRecord::find_num(std::string_view key) const {
  for (const auto& [k, v] : num_args)
    if (k == key) return &v;
  return nullptr;
}

bool analyze_chrome_trace(std::string_view json, TraceProfile* out,
                          std::string* error) {
  *out = TraceProfile{};
  const std::optional<std::vector<ProcessLane>> lanes =
      parse_chrome_trace(json, error);
  if (!lanes) return false;

  // Flatten the lanes back into records; within a (pid, tid) lane this is
  // document order, which the forest's tie-break below relies on.
  std::vector<SpanRecord> raw;
  for (const ProcessLane& lane : *lanes)
    for (const ThreadEvents& t : lane.threads)
      for (const Event& e : t.events) {
        if (e.ph == 'C') continue;
        std::vector<std::pair<std::string, std::string>> str_args;
        std::vector<std::pair<std::string, double>> num_args;
        for (const Arg& a : e.args) {
          if (a.kind == Arg::Kind::kString)
            str_args.emplace_back(a.key, a.s);
          else
            num_args.emplace_back(
                a.key, a.kind == Arg::Kind::kDouble ? a.d
                       : a.kind == Arg::Kind::kInt  ? static_cast<double>(a.i)
                                                    : static_cast<double>(a.u));
        }
        if (e.ph == 'X')
          raw.push_back(SpanRecord{e.name, e.cat, e.ts_us, e.dur_us, 0,
                                   lane.pid, t.tid, -1, 0, std::move(str_args),
                                   std::move(num_args)});
        else
          out->lifecycle.push_back(InstantRecord{
              e.name, e.cat, e.ts_us, lane.pid, t.tid, std::move(str_args),
              std::move(num_args)});
      }
  std::sort(out->lifecycle.begin(), out->lifecycle.end(),
            [](const InstantRecord& a, const InstantRecord& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.name < b.name;
            });

  // Rebuild the forest per (pid, tid) lane: sort by (start, −duration) so
  // a parent precedes the children it contains, then nest with an
  // open-span stack.
  std::map<std::pair<int, int>, std::vector<std::size_t>> by_lane;
  for (std::size_t i = 0; i < raw.size(); ++i)
    by_lane[{raw[i].pid, raw[i].tid}].push_back(i);

  out->num_events = raw.size();
  out->spans.reserve(raw.size());
  std::uint64_t min_ts = UINT64_MAX;
  std::uint64_t max_end = 0;

  for (auto& [lane, indices] : by_lane) {
    const int tid = lane.second;
    std::sort(indices.begin(), indices.end(),
              [&raw](std::size_t a, std::size_t b) {
                if (raw[a].ts_us != raw[b].ts_us)
                  return raw[a].ts_us < raw[b].ts_us;
                if (raw[a].dur_us != raw[b].dur_us)
                  return raw[a].dur_us > raw[b].dur_us;
                return a < b;
              });
    ThreadTotals tt;
    tt.pid = lane.first;
    tt.tid = tid;
    tt.first_ts_us = UINT64_MAX;
    std::vector<int> stack;  // indices into out->spans
    for (const std::size_t ri : indices) {
      SpanRecord s = std::move(raw[ri]);
      const std::uint64_t end = s.ts_us + s.dur_us;
      while (!stack.empty()) {
        const SpanRecord& top = out->spans[static_cast<std::size_t>(
            stack.back())];
        if (s.ts_us < top.ts_us + top.dur_us && end <= top.ts_us + top.dur_us)
          break;  // contained: top is the parent
        stack.pop_back();
      }
      s.self_us = s.dur_us;
      if (!stack.empty()) {
        s.parent = stack.back();
        s.depth = out->spans[static_cast<std::size_t>(s.parent)].depth + 1;
        SpanRecord& parent = out->spans[static_cast<std::size_t>(s.parent)];
        // Direct-child time comes off the parent's self time. Containment
        // plus per-thread sequencing guarantees this never underflows.
        parent.self_us -= std::min(parent.self_us, s.dur_us);
      } else {
        tt.busy_us += s.dur_us;
      }
      tt.events += 1;
      tt.first_ts_us = std::min(tt.first_ts_us, s.ts_us);
      tt.last_end_us = std::max(tt.last_end_us, end);
      min_ts = std::min(min_ts, s.ts_us);
      max_end = std::max(max_end, end);
      const int index = static_cast<int>(out->spans.size());
      out->spans.push_back(std::move(s));
      stack.push_back(index);
    }
    if (tt.first_ts_us == UINT64_MAX) tt.first_ts_us = 0;
    for (std::size_t i = out->spans.size() - tt.events; i < out->spans.size();
         ++i)
      tt.self_us += out->spans[i].self_us;
    out->threads.push_back(tt);
  }
  out->wall_us = max_end >= min_ts && min_ts != UINT64_MAX ? max_end - min_ts
                                                           : 0;

  // Per-process rollups over the thread lanes; instants count toward the
  // owning pid so a lane that only crashed (no shipped spans) still shows.
  std::map<int, ProcessTotals> procs;
  for (const ThreadTotals& t : out->threads) {
    ProcessTotals& pr = procs[t.pid];
    if (pr.num_threads == 0) {
      pr.pid = t.pid;
      pr.first_ts_us = t.first_ts_us;
      pr.last_end_us = t.last_end_us;
    }
    pr.num_threads += 1;
    pr.events += t.events;
    pr.busy_us += t.busy_us;
    pr.self_us += t.self_us;
    pr.first_ts_us = std::min(pr.first_ts_us, t.first_ts_us);
    pr.last_end_us = std::max(pr.last_end_us, t.last_end_us);
  }
  for (const InstantRecord& ir : out->lifecycle) {
    if (procs.find(ir.pid) == procs.end()) {
      ProcessTotals& pr = procs[ir.pid];
      pr.pid = ir.pid;
      pr.first_ts_us = ir.ts_us;
      pr.last_end_us = ir.ts_us;
    }
  }
  for (const ProcessLane& lane : *lanes)
    if (const auto it = procs.find(lane.pid); it != procs.end())
      it->second.name = lane.name;

  // Per-phase aggregation over (name, cat).
  std::map<std::pair<std::string, std::string>, PhaseTotals> phases;
  for (const SpanRecord& s : out->spans) {
    PhaseTotals& p = phases[{s.name, s.cat}];
    if (p.count == 0) {
      p.name = s.name;
      p.cat = s.cat;
      p.min_us = s.dur_us;
    }
    p.count += 1;
    p.total_us += s.dur_us;
    p.self_us += s.self_us;
    p.min_us = std::min(p.min_us, s.dur_us);
    p.max_us = std::max(p.max_us, s.dur_us);
  }
  for (auto& [key, p] : phases) out->phases.push_back(std::move(p));
  std::sort(out->phases.begin(), out->phases.end(),
            [](const PhaseTotals& a, const PhaseTotals& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });

  // Engine-stage analysis: queue waits (global) + a critical path per
  // process — merged worker lanes each ran their own engine.
  std::vector<std::uint64_t> wait1;
  std::vector<std::uint64_t> wait2;
  std::map<int, EngineSpans> engine_by_pid;
  // A span-arg count; one that is negative, fractional or too large counts
  // as 0.
  const auto count_of = [](double v) {
    return json_integer<std::uint64_t>(v).value_or(0);
  };
  for (const SpanRecord& s : out->spans) {
    if (s.cat == "shard" && s.name == "supervise") {
      out->supervisor.available = true;
      out->supervisor.supervise_us += s.dur_us;
      if (const double* w = s.find_num("poll_wait_us"))
        out->supervisor.poll_wait_us += count_of(*w);
      if (const double* n = s.find_num("polls"))
        out->supervisor.polls += count_of(*n);
      continue;
    }
    if (s.cat != "engine") continue;
    if (s.name == "stage0") {
      if (const std::string* circuit = s.find_str("circuit"))
        keep_slowest(engine_by_pid[s.pid].stage0[*circuit], &s);
    } else if (s.name == "stage1") {
      if (const double* w = s.find_num("queue_wait_us"))
        wait1.push_back(count_of(*w));
      const std::string* circuit = s.find_str("circuit");
      const double* g = s.find_num("group");
      const std::optional<int> group =
          g != nullptr ? json_integer<int>(*g) : std::nullopt;
      if (circuit != nullptr && group)
        keep_slowest(engine_by_pid[s.pid].stage1[{*circuit, *group}], &s);
    } else if (s.name == "stage2") {
      if (const double* w = s.find_num("queue_wait_us"))
        wait2.push_back(count_of(*w));
      engine_by_pid[s.pid].stage2.push_back(&s);
    }
  }
  out->stage1_wait = wait_stats(std::move(wait1));
  out->stage2_wait = wait_stats(std::move(wait2));

  for (const auto& [pid, spans] : engine_by_pid) {
    CriticalPath cp = engine_critical_path(spans);
    // The dominant per-process path becomes the trace-level one — for a
    // flat single-pid trace this is exactly the old single-forest answer.
    if (!out->critical.available || cp.barrier_us > out->critical.barrier_us)
      out->critical = cp;
    if (const auto pit = procs.find(pid); pit != procs.end())
      pit->second.critical = std::move(cp);
  }

  out->processes.reserve(procs.size());
  for (auto& [pid, pr] : procs) out->processes.push_back(std::move(pr));
  return true;
}

namespace {

void write_phase_row(JsonWriter& w, const PhaseTotals& p) {
  w.begin_object();
  w.field("name", p.name);
  w.field("cat", p.cat);
  w.field("count", p.count);
  w.field("total_us", p.total_us);
  w.field("self_us", p.self_us);
  w.field("min_us", p.min_us);
  w.field("max_us", p.max_us);
  w.field("mean_us",
          p.count ? static_cast<double>(p.total_us) /
                        static_cast<double>(p.count)
                  : 0.0);
  w.end_object();
}

void write_wait(JsonWriter& w, const char* key, const WaitStats& s) {
  w.key(key);
  w.begin_object();
  w.field("count", s.count);
  w.field("min_us", s.min_us);
  w.field("mean_us", s.mean_us);
  w.field("p50_us", s.p50_us);
  w.field("p90_us", s.p90_us);
  w.field("p99_us", s.p99_us);
  w.field("max_us", s.max_us);
  w.end_object();
}

void write_chain(JsonWriter& w, const char* key,
                 const std::vector<PathStep>& chain) {
  w.key(key);
  w.begin_array();
  for (const PathStep& step : chain) {
    w.begin_object();
    w.field("stage", step.stage);
    w.field("task", step.task);
    w.field("dur_us", step.dur_us);
    w.end_object();
  }
  w.end_array();
}

void write_critical(JsonWriter& w, const char* key, const CriticalPath& cp) {
  w.key(key);
  w.begin_object();
  w.field("available", cp.available);
  w.field("barrier_us", cp.barrier_us);
  write_chain(w, "barrier_chain", cp.barrier_chain);
  w.field("dependency_us", cp.dependency_us);
  write_chain(w, "dependency_chain", cp.dependency_chain);
  w.field("barrier_slack_us", cp.barrier_us > cp.dependency_us
                                  ? cp.barrier_us - cp.dependency_us
                                  : 0);
  w.end_object();
}

double ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

void write_profile_json(std::ostream& os, const TraceProfile& p,
                        const std::string& source, int top_n) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.profile.v1");
  w.field("source", source);
  w.field("num_events", static_cast<unsigned long long>(p.num_events));
  w.field("wall_us", p.wall_us);
  w.field("num_threads", static_cast<unsigned long long>(p.threads.size()));
  w.field("num_processes",
          static_cast<unsigned long long>(p.processes.size()));
  w.key("phases");
  w.begin_array();
  for (const PhaseTotals& ph : p.phases) write_phase_row(w, ph);
  w.end_array();
  w.key("hotspots");
  w.begin_array();
  for (std::size_t i = 0;
       i < p.phases.size() && i < static_cast<std::size_t>(top_n); ++i)
    write_phase_row(w, p.phases[i]);
  w.end_array();
  w.key("threads");
  w.begin_array();
  for (const ThreadTotals& t : p.threads) {
    w.begin_object();
    w.field("pid", t.pid);
    w.field("tid", t.tid);
    w.field("events", t.events);
    w.field("busy_us", t.busy_us);
    w.field("self_us", t.self_us);
    w.field("first_ts_us", t.first_ts_us);
    w.field("last_end_us", t.last_end_us);
    w.field("wall_us", t.wall_us());
    w.field("utilization",
            p.wall_us ? static_cast<double>(t.busy_us) /
                            static_cast<double>(p.wall_us)
                      : 0.0);
    w.end_object();
  }
  w.end_array();
  w.key("processes");
  w.begin_array();
  for (const ProcessTotals& pr : p.processes) {
    w.begin_object();
    w.field("pid", pr.pid);
    w.field("name", pr.name);
    w.field("num_threads", static_cast<unsigned long long>(pr.num_threads));
    w.field("events", pr.events);
    w.field("busy_us", pr.busy_us);
    w.field("self_us", pr.self_us);
    w.field("first_ts_us", pr.first_ts_us);
    w.field("last_end_us", pr.last_end_us);
    w.field("wall_us", pr.wall_us());
    w.field("utilization",
            p.wall_us ? static_cast<double>(pr.busy_us) /
                            static_cast<double>(p.wall_us)
                      : 0.0);
    write_critical(w, "critical_path", pr.critical);
    w.end_object();
  }
  w.end_array();
  w.key("lifecycle");
  w.begin_array();
  for (const InstantRecord& ir : p.lifecycle) {
    w.begin_object();
    w.field("ts_us", ir.ts_us);
    w.field("name", ir.name);
    w.field("cat", ir.cat);
    w.field("pid", ir.pid);
    w.key("args");
    w.begin_object();
    for (const auto& [k, v] : ir.str_args) w.field(k.c_str(), v);
    for (const auto& [k, v] : ir.num_args) w.field(k.c_str(), v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("queue_wait");
  w.begin_object();
  write_wait(w, "stage1", p.stage1_wait);
  write_wait(w, "stage2", p.stage2_wait);
  w.end_object();
  write_critical(w, "critical_path", p.critical);
  w.key("supervisor");
  w.begin_object();
  w.field("available", p.supervisor.available);
  w.field("supervise_us", p.supervisor.supervise_us);
  w.field("poll_wait_us", p.supervisor.poll_wait_us);
  w.field("busy_us", p.supervisor.busy_us());
  w.field("polls", p.supervisor.polls);
  w.end_object();
  w.end_object();
  os << '\n';
}

void print_profile(std::ostream& os, const TraceProfile& p, int top_n) {
  char buf[320];
  if (p.processes.size() > 1) {
    std::snprintf(buf, sizeof(buf),
                  "trace: %zu spans on %zu threads across %zu processes, "
                  "wall %.3f ms\n",
                  p.num_events, p.threads.size(), p.processes.size(),
                  ms(p.wall_us));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "trace: %zu spans on %zu threads, wall %.3f ms\n",
                  p.num_events, p.threads.size(), ms(p.wall_us));
  }
  os << buf;
  if (p.spans.empty() && p.lifecycle.empty()) return;

  if (!p.phases.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "\n%-12s %-8s %6s %12s %12s %10s %10s %8s\n", "phase", "cat",
                  "count", "total ms", "self ms", "min ms", "max ms",
                  "self %");
    os << buf;
    os << std::string(86, '-') << '\n';
    std::uint64_t self_sum = 0;
    for (const PhaseTotals& ph : p.phases) self_sum += ph.self_us;
    int rows = 0;
    for (const PhaseTotals& ph : p.phases) {
      if (rows++ >= top_n) break;
      std::snprintf(buf, sizeof(buf),
                    "%-12s %-8s %6llu %12.3f %12.3f %10.3f %10.3f %7.1f%%\n",
                    ph.name.c_str(), ph.cat.c_str(),
                    static_cast<unsigned long long>(ph.count), ms(ph.total_us),
                    ms(ph.self_us), ms(ph.min_us), ms(ph.max_us),
                    self_sum ? 100.0 * static_cast<double>(ph.self_us) /
                                   static_cast<double>(self_sum)
                             : 0.0);
      os << buf;
    }
    if (p.phases.size() > static_cast<std::size_t>(top_n)) {
      std::snprintf(buf, sizeof(buf), "(%zu more phases; see --json)\n",
                    p.phases.size() - static_cast<std::size_t>(top_n));
      os << buf;
    }
  }

  const bool multi = p.processes.size() > 1;
  if (!p.threads.empty()) {
    if (multi) {
      os << "\npid      thread   events    busy ms    self ms  utilization\n";
      os << std::string(61, '-') << '\n';
    } else {
      os << "\nthread   events    busy ms    self ms  utilization\n";
      os << std::string(52, '-') << '\n';
    }
    for (const ThreadTotals& t : p.threads) {
      const double util = p.wall_us ? 100.0 * static_cast<double>(t.busy_us) /
                                          static_cast<double>(p.wall_us)
                                    : 0.0;
      if (multi) {
        std::snprintf(buf, sizeof(buf),
                      "%-8d %-8d %6llu %10.3f %10.3f %11.1f%%\n", t.pid,
                      t.tid, static_cast<unsigned long long>(t.events),
                      ms(t.busy_us), ms(t.self_us), util);
      } else {
        std::snprintf(buf, sizeof(buf), "%-8d %6llu %10.3f %10.3f %11.1f%%\n",
                      t.tid, static_cast<unsigned long long>(t.events),
                      ms(t.busy_us), ms(t.self_us), util);
      }
      os << buf;
    }
  }

  if (multi) {
    os << "\nprocess lanes:\n";
    for (const ProcessTotals& pr : p.processes) {
      std::snprintf(buf, sizeof(buf),
                    "  pid %-7d %-28s threads=%zu events=%llu busy=%.3f ms "
                    "wall=%.3f ms util=%.1f%%\n",
                    pr.pid, pr.name.empty() ? "?" : pr.name.c_str(),
                    pr.num_threads,
                    static_cast<unsigned long long>(pr.events), ms(pr.busy_us),
                    ms(pr.wall_us()),
                    p.wall_us ? 100.0 * static_cast<double>(pr.busy_us) /
                                    static_cast<double>(p.wall_us)
                              : 0.0);
      os << buf;
      if (pr.critical.available) {
        std::snprintf(buf, sizeof(buf),
                      "    critical path %.3f ms (dependency bound %.3f ms)",
                      ms(pr.critical.barrier_us), ms(pr.critical.dependency_us));
        os << buf;
        for (const PathStep& step : pr.critical.barrier_chain) {
          std::snprintf(buf, sizeof(buf), "  %s:%s %.3f ms",
                        step.stage.c_str(), step.task.c_str(),
                        ms(step.dur_us));
          os << buf;
        }
        os << '\n';
      }
    }
  }

  if (!p.lifecycle.empty()) {
    os << "\nlifecycle events:\n";
    for (const InstantRecord& ir : p.lifecycle) {
      std::snprintf(buf, sizeof(buf), "  %12.3f ms  %-18s pid=%d", ms(ir.ts_us),
                    ir.name.c_str(), ir.pid);
      os << buf;
      for (const auto& [k, v] : ir.str_args) os << ' ' << k << '=' << v;
      for (const auto& [k, v] : ir.num_args) {
        std::snprintf(buf, sizeof(buf), " %s=%.0f", k.c_str(), v);
        os << buf;
      }
      os << '\n';
    }
  }

  if (p.supervisor.available) {
    const std::uint64_t su = p.supervisor.supervise_us;
    std::snprintf(buf, sizeof(buf),
                  "\nsupervisor: supervise %.3f ms, blocked in poll %.3f ms "
                  "(%.1f%%), busy %.3f ms, %llu polls\n",
                  ms(su), ms(p.supervisor.poll_wait_us),
                  su ? 100.0 * static_cast<double>(p.supervisor.poll_wait_us) /
                           static_cast<double>(su)
                     : 0.0,
                  ms(p.supervisor.busy_us()),
                  static_cast<unsigned long long>(p.supervisor.polls));
    os << buf;
  }

  auto print_wait = [&](const char* stage, const WaitStats& s) {
    if (s.count == 0) return;
    std::snprintf(buf, sizeof(buf),
                  "%s queue wait: n=%llu mean=%.3f ms p50=%.3f p90=%.3f "
                  "p99=%.3f max=%.3f\n",
                  stage, static_cast<unsigned long long>(s.count),
                  s.mean_us / 1000.0, ms(s.p50_us), ms(s.p90_us), ms(s.p99_us),
                  ms(s.max_us));
    os << buf;
  };
  os << '\n';
  print_wait("stage1", p.stage1_wait);
  print_wait("stage2", p.stage2_wait);

  if (p.critical.available) {
    os << "\ncritical path (barrier schedule):\n";
    for (const PathStep& step : p.critical.barrier_chain) {
      std::snprintf(buf, sizeof(buf), "  %-7s %-24s %10.3f ms\n",
                    step.stage.c_str(), step.task.c_str(), ms(step.dur_us));
      os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  total %.3f ms  (dependency-only bound %.3f ms, barrier "
                  "slack %.3f ms)\n",
                  ms(p.critical.barrier_us), ms(p.critical.dependency_us),
                  ms(p.critical.barrier_us > p.critical.dependency_us
                         ? p.critical.barrier_us - p.critical.dependency_us
                         : 0));
    os << buf;
  }
}

}  // namespace minpower::trace
