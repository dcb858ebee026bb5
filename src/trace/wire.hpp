#pragma once
// Decoding side of the observability data that crosses processes
// (DESIGN.md §15). Two payloads ride the shard pipe protocol as single-line
// JSON, one per record:
//
//   TRACE <json>    — a worker's own lane, written by
//                     write_merged_chrome_trace (trace.hpp) and read back by
//                     parse_chrome_trace: the same Chrome trace-event form
//                     as a trace file, timestamps already in the shared
//                     CLOCK_MONOTONIC timebase.
//   METRICS <json>  — metrics::write_metrics_json (the minpower.flow.v1
//                     metrics block) / parse_metrics_json here.
//
// parse_chrome_trace is the one traceEvents decoder: the supervisor uses it
// on the pipe and the profiler (trace/analysis.hpp) on trace files.
//
// merge_snapshots() folds worker registries into one: counters sum (event
// counts over disjoint circuit partitions are additive), gauges take the max
// (high-water marks), histograms add bucket-wise. On a clean run the merged
// result equals the registry a single process would have produced for the
// same suite — the acceptance check test_shard_observability relies on.
// Restarted circuits re-run work, so equality is only guaranteed without
// fault injection.
//
// Numbers survive the round trip through the double-typed JSON parser
// exactly up to 2^53; span args and metric values in practice stay far
// below that, and ts/dur microsecond stamps overflow 2^53 only after ~285
// years of uptime.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/json_reader.hpp"

namespace minpower::trace {

namespace detail {

/// A JSON arg value back to its exporter type: integral numbers below 2^53
/// become kInt (negative) or kUint, other numbers kDouble. Non-scalar kinds
/// never appear in span args and are dropped.
inline void add_json_arg(Event& e, const std::string& key, const JsonValue& v) {
  if (v.kind == JsonValue::Kind::kString) {
    add_arg(e, key, std::string_view(v.string));
  } else if (v.kind == JsonValue::Kind::kNumber) {
    const double d = v.number;
    if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
      if (d < 0)
        add_arg(e, key, static_cast<long long>(d));
      else
        add_arg(e, key, static_cast<unsigned long long>(d));
    } else {
      add_arg(e, key, d);
    }
  }
}

/// Member `key` of `obj` as an integer of type T: `fallback` when it is
/// absent or not a number, std::nullopt when json_integer rejects it.
template <typename T>
std::optional<T> integer_member(const JsonValue& obj, const char* key,
                                std::optional<T> fallback) {
  const JsonValue* v = obj.find(key, JsonValue::Kind::kNumber);
  if (v == nullptr) return fallback;
  return json_integer<T>(v->number);
}

}  // namespace detail

/// Decode a Chrome trace-event document into one ProcessLane per pid (in
/// order of first appearance) with one ThreadEvents per tid (likewise), so
/// a document written by write_merged_chrome_trace reads back in its own
/// order. `ph:"X"` needs name/ts/dur/tid, `ph:"i"` needs name/ts, and a pid
/// or tid must fit an int; otherwise the whole document is rejected.
/// `ph:"C"` samples are kept as they come; a process_name record names its
/// lane; other records are skipped. An absent pid means 1. Returns
/// std::nullopt and fills `error` (when non-null) on malformed input.
MP_TRACE_COLD inline std::optional<std::vector<ProcessLane>>
parse_chrome_trace(std::string_view text, std::string* error = nullptr) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<JsonValue> doc = parse_json(text, &parse_error);
  if (!doc) return fail("invalid JSON: " + parse_error);
  const JsonValue* events = doc->find("traceEvents", JsonValue::Kind::kArray);
  if (events == nullptr)
    return fail("no traceEvents array in the document");

  std::vector<ProcessLane> lanes;
  std::map<int, std::size_t> lane_of;                    // pid → lane
  std::map<std::pair<int, int>, std::size_t> thread_of;  // (pid, tid) → its
                                                         // index in the lane
  const auto lane = [&](int pid) -> ProcessLane& {
    const auto [it, added] = lane_of.emplace(pid, lanes.size());
    if (added) lanes.push_back(ProcessLane{pid, {}, {}});
    return lanes[it->second];
  };
  using Kind = JsonValue::Kind;
  for (const JsonValue& ev : events->items) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr) continue;
    const bool meta = ph->string == "M";
    if (!meta && ph->string != "X" && ph->string != "i" && ph->string != "C")
      continue;
    const std::optional<int> pid = detail::integer_member<int>(ev, "pid", 1);
    if (!pid) return fail("pid outside int range");
    const JsonValue* args = ev.find("args", Kind::kObject);
    if (meta) {
      ProcessLane& p = lane(*pid);
      if (ev.string_or("name") == "process_name" && args != nullptr &&
          args->find("name", Kind::kString) != nullptr)
        p.name = args->string_or("name");
      continue;
    }
    const bool named = ev.find("name", Kind::kString) != nullptr;
    const bool stamped = ev.find("ts", Kind::kNumber) != nullptr;
    Event e;
    e.ph = ph->string[0];
    if (e.ph == 'X' && !(named && stamped &&
                         ev.find("dur", Kind::kNumber) != nullptr &&
                         ev.find("tid", Kind::kNumber) != nullptr))
      return fail("complete event missing name/ts/dur/tid");
    if (e.ph == 'i' && !(named && stamped))
      return fail("instant event missing name/ts");
    e.name = ev.string_or("name");
    e.cat = ev.string_or("cat");
    const std::optional<std::uint64_t> ts =
        detail::integer_member<std::uint64_t>(ev, "ts", 0);
    const std::optional<std::uint64_t> dur =
        detail::integer_member<std::uint64_t>(ev, "dur", 0);
    if (!ts || !dur) return fail("ts or dur is not a non-negative integer");
    e.ts_us = *ts;
    if (e.ph == 'X') e.dur_us = *dur;
    if (args != nullptr)
      for (const auto& [k, v] : args->members) detail::add_json_arg(e, k, v);
    const std::optional<int> tid = detail::integer_member<int>(ev, "tid", 0);
    if (!tid) return fail("tid outside int range");
    ProcessLane& p = lane(*pid);
    const auto [it, added] = thread_of.emplace(std::pair{*pid, *tid},
                                               p.threads.size());
    if (added) p.threads.push_back(ThreadEvents{*tid, {}});
    p.threads[it->second].events.push_back(std::move(e));
  }
  return lanes;
}

/// Parse a metrics block produced by metrics::write_metrics_json (either a
/// standalone document or an already-located JSON object value). A value,
/// count, sum or bucket field that is not a non-negative integer rejects the
/// block, naming the entry and the field.
MP_TRACE_COLD inline std::optional<metrics::Snapshot> parse_metrics_value(
    const JsonValue& doc, std::string* error = nullptr) {
  std::string why;  // the first defect found
  // Field `field` of an entry of array `key` as a count: false, with `why`
  // set, unless it is a non-negative integer.
  const auto count = [&why](const JsonValue& e, const char* key,
                            const char* field, std::uint64_t* out) {
    const std::optional<std::uint64_t> v =
        detail::integer_member<std::uint64_t>(e, field, std::nullopt);
    if (!v)
      why = std::string(key) + " entry '" + e.string_or("name") + "': '" +
            field + "' is not a non-negative integer";
    *out = v.value_or(0);
    return v.has_value();
  };
  // The entries of array `key` of `obj`; none when it is absent.
  const auto items = [](const JsonValue& obj,
                        const char* key) -> const std::vector<JsonValue>& {
    static const std::vector<JsonValue> kNone;
    const JsonValue* arr = obj.find(key, JsonValue::Kind::kArray);
    return arr != nullptr ? arr->items : kNone;
  };
  const auto read = [&](metrics::Snapshot& s) {
    if (doc.kind != JsonValue::Kind::kObject) {
      why = "metrics block is not an object";
      return false;
    }
    for (const auto& [key, into] :
         {std::pair{"counters", &s.counters}, std::pair{"gauges", &s.gauges}})
      for (const JsonValue& e : items(doc, key)) {
        std::uint64_t value = 0;
        if (!count(e, key, "value", &value)) return false;
        into->emplace_back(e.string_or("name"), value);
      }
    for (const JsonValue& h : items(doc, "histograms")) {
      metrics::Snapshot::Hist& out = s.histograms.emplace_back();
      out.name = h.string_or("name");
      if (!count(h, "histograms", "count", &out.count) ||
          !count(h, "histograms", "sum", &out.sum))
        return false;
      for (const JsonValue& b : items(h, "buckets")) {
        auto& [lo, n] = out.buckets.emplace_back();
        if (!count(b, "buckets", "lo", &lo) ||
            !count(b, "buckets", "count", &n))
          return false;
      }
    }
    return true;
  };
  metrics::Snapshot s;
  if (read(s)) return s;
  if (error != nullptr && error->empty()) *error = why;
  return std::nullopt;
}

MP_TRACE_COLD inline std::optional<metrics::Snapshot> parse_metrics_json(
    std::string_view text, std::string* error = nullptr) {
  const std::optional<JsonValue> doc = parse_json(text, error);
  if (!doc) return std::nullopt;
  return parse_metrics_value(*doc, error);
}

/// Fold per-process snapshots into one, sorted by name: counters sum,
/// gauges max, histogram counts/sums/buckets add. The result of merging N
/// clean disjoint partitions equals a single process's registry for the
/// same total workload (see header comment).
MP_TRACE_COLD inline metrics::Snapshot merge_snapshots(
    const std::vector<metrics::Snapshot>& parts) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  struct HistAcc {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::map<std::uint64_t, std::uint64_t> buckets;
  };
  std::map<std::string, HistAcc> hists;
  for (const metrics::Snapshot& s : parts) {
    for (const auto& [name, value] : s.counters) counters[name] += value;
    for (const auto& [name, value] : s.gauges) {
      auto& slot = gauges[name];
      slot = std::max(slot, value);
    }
    for (const metrics::Snapshot::Hist& h : s.histograms) {
      HistAcc& acc = hists[h.name];
      acc.count += h.count;
      acc.sum += h.sum;
      for (const auto& [lo, n] : h.buckets) acc.buckets[lo] += n;
    }
  }
  metrics::Snapshot out;
  for (const auto& [name, value] : counters)
    out.counters.emplace_back(name, value);
  for (const auto& [name, value] : gauges) out.gauges.emplace_back(name, value);
  for (const auto& [name, acc] : hists) {
    metrics::Snapshot::Hist h;
    h.name = name;
    h.count = acc.count;
    h.sum = acc.sum;
    for (const auto& [lo, n] : acc.buckets) h.buckets.emplace_back(lo, n);
    out.histograms.push_back(std::move(h));
  }
  return out;
}

}  // namespace minpower::trace
