#include "report/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>

#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower::report {

std::uint64_t histogram_percentile(const metrics::Snapshot::Hist& h,
                                   double q) {
  if (h.count == 0 || h.buckets.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(h.count));
  if (rank < 1.0) rank = 1.0;
  std::uint64_t cum = 0;
  for (const auto& [lo, n] : h.buckets) {
    cum += n;
    if (static_cast<double>(cum) >= rank) return lo;
  }
  return h.buckets.back().first;
}

bool load_flow_report(std::string_view json_text, const std::string& label,
                      FlowReportDoc* out, std::string* error) {
  std::string parse_error;
  const auto doc = parse_json(json_text, &parse_error);
  if (!doc)
    return set_error(error, label + ": invalid JSON: " + parse_error);
  if (doc->kind != JsonValue::Kind::kObject)
    return set_error(error, label + ": not a JSON object");
  const std::string schema = doc->string_or("schema");
  if (schema != "minpower.flow.v1")
    return set_error(error, label + ": unexpected schema '" + schema +
                                "' (want minpower.flow.v1)");
  std::string decode_error;
  if (!parse_flow_json(*doc, out, &decode_error))
    return set_error(error, label + ": " + decode_error);
  out->path = label;
  return true;
}

bool load_flow_report_file(const std::string& path, FlowReportDoc* out,
                           std::string* error) {
  std::ifstream in(path);
  if (!in.good()) return set_error(error, "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return load_flow_report(buf.str(), path, out, error);
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kQorRegressed: return "qor-regressed";
    case Verdict::kQorImproved: return "qor-improved";
    case Verdict::kStatusChanged: return "status-changed";
    case Verdict::kWorkChanged: return "work-changed";
    case Verdict::kSlow: return "slow";
    case Verdict::kSkipped: return "skipped";
    case Verdict::kNew: return "new";
  }
  return "?";
}

namespace {

/// Per-phase times with a baseline below this floor are ignored (they are
/// scheduling noise, not signal).
constexpr double kTimeFloorMs = 1.0;

/// The deterministic work fields of a cell, locked exactly like QoR.
template <auto Field>
double work_field(const PhaseStats& p) {
  return static_cast<double>(p.*Field);
}
using WorkField = std::pair<const char*, double (*)(const PhaseStats&)>;
constexpr WorkField kWorkFields[] = {
    {"bdd_nodes", work_field<&PhaseStats::bdd_nodes>},
    {"matches", work_field<&PhaseStats::matches>},
    {"curve_points", work_field<&PhaseStats::curve_points>},
    {"redecomp_iterations", work_field<&PhaseStats::redecomp_iterations>},
    {"decomp_passes", work_field<&PhaseStats::decomp_passes>},
    {"activity_passes", work_field<&PhaseStats::activity_passes>},
    {"exact_fallbacks", work_field<&PhaseStats::exact_fallbacks>},
    {"activity_retries", work_field<&PhaseStats::activity_retries>},
    {"shared_decomp", work_field<&PhaseStats::shared_decomp>},
    {"shared_activity", work_field<&PhaseStats::shared_activity>},
};

}  // namespace

CompareReport compare_flow_reports(const FlowReportDoc& base,
                                   const FlowReportDoc& cand,
                                   const CompareOptions& options) {
  CompareReport r;
  r.baseline_path = base.path;
  r.candidate_path = cand.path;
  r.options = options;
  r.base_elapsed_ms = base.elapsed_ms;
  r.cand_elapsed_ms = cand.elapsed_ms;

  using CellKey = std::pair<std::string, std::string>;  // circuit, method
  const auto key_of = [](const FlowResult& x) {
    return CellKey{x.circuit, method_name(x.method)};
  };
  std::map<CellKey, const FlowResult*> cand_cells;
  for (const std::vector<FlowResult>& row : cand.per_circuit)
    for (const FlowResult& c : row) cand_cells[key_of(c)] = &c;
  std::map<CellKey, const FlowResult*> base_cells;
  for (const std::vector<FlowResult>& row : base.per_circuit)
    for (const FlowResult& b : row) base_cells[key_of(b)] = &b;

  // Baseline-driven pass: every baseline cell gets a verdict.
  for (const std::vector<FlowResult>& row : base.per_circuit)
    for (const FlowResult& b : row) {
      CellResult cell;
      std::tie(cell.circuit, cell.method) = key_of(b);
      const auto it = cand_cells.find(key_of(b));
      if (it == cand_cells.end()) {
        cell.verdict = Verdict::kSkipped;
        r.skipped += 1;
        r.cells.push_back(std::move(cell));
        continue;
      }
      const FlowResult& c = *it->second;
      const std::tuple<const char*, double, double> qor[] = {
          {"power_uw", b.power_uw, c.power_uw},
          {"area", b.area, c.area},
          {"delay_ns", b.delay, c.delay},
          {"gates", static_cast<double>(b.gates),
           static_cast<double>(c.gates)},
      };
      // Record one offending metric; the cell keeps its worst verdict.
      const auto flag = [&cell](std::string metric, double bv, double cv,
                                Verdict v) {
        cell.deltas.push_back({std::move(metric), bv, cv});
        cell.verdict = std::max(cell.verdict, v);
      };
      for (const auto& [name, bv, cv] : qor)
        if (cv != bv)
          flag(name, bv, cv,
               cv > bv ? Verdict::kQorRegressed : Verdict::kQorImproved);
      if (c.status.state != b.status.state)
        flag(std::string("status:") + task_state_name(b.status.state) +
                 "->" + task_state_name(c.status.state),
             0, 0, Verdict::kStatusChanged);
      if (options.check_metrics)
        for (const auto& [name, field] : kWorkFields)
          if (field(c.phases) != field(b.phases))
            flag(name, field(b.phases), field(c.phases),
                 Verdict::kWorkChanged);
      if (options.check_metrics && options.time_band >= 0.0) {
        const std::pair<const char*, double PhaseStats::*> times[] = {
            {"decomp_ms", &PhaseStats::decomp_ms},
            {"activity_ms", &PhaseStats::activity_ms},
            {"map_ms", &PhaseStats::map_ms},
            {"eval_ms", &PhaseStats::eval_ms},
        };
        for (const auto& [name, field] : times) {
          const double bv = b.phases.*field;
          const double cv = c.phases.*field;
          if (bv >= kTimeFloorMs && cv > bv * (1.0 + options.time_band))
            flag(name, bv, cv, Verdict::kSlow);
        }
      }
      switch (cell.verdict) {
        case Verdict::kOk: r.ok += 1; break;
        case Verdict::kQorRegressed: r.qor_regressed += 1; break;
        case Verdict::kQorImproved: r.qor_improved += 1; break;
        case Verdict::kStatusChanged: r.status_changed += 1; break;
        case Verdict::kWorkChanged: r.work_changed += 1; break;
        case Verdict::kSlow: r.slow += 1; break;
        default: break;
      }
      r.cells.push_back(std::move(cell));
    }
  // Candidate-only cells are informational (a regression under
  // require_all).
  for (const std::vector<FlowResult>& row : cand.per_circuit)
    for (const FlowResult& c : row) {
      if (base_cells.count(key_of(c))) continue;
      CellResult cell;
      std::tie(cell.circuit, cell.method) = key_of(c);
      cell.verdict = Verdict::kNew;
      r.added += 1;
      r.cells.push_back(std::move(cell));
    }

  // Registry metrics: exact, but only comparable over identical circuit
  // sets (counters are whole-run totals).
  const auto circuit_names = [](const FlowDoc& d) {
    std::vector<std::string> names;
    for (const std::vector<FlowResult>& row : d.per_circuit)
      names.push_back(row.empty() ? std::string() : row.front().circuit);
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> base_names = circuit_names(base);
  const std::vector<std::string> cand_names = circuit_names(cand);
  if (!options.check_metrics) {
    r.metrics_skip_reason = "disabled (--qor-only)";
  } else if (base_names != cand_names) {
    r.metrics_skip_reason =
        "circuit sets differ (subset run); registry totals not comparable";
  } else {
    r.metrics_checked = true;
    auto diff_pairs =
        [&r](const char* kind,
             const std::vector<std::pair<std::string, std::uint64_t>>& bs,
             const std::vector<std::pair<std::string, std::uint64_t>>& cs,
             std::vector<MetricDiff>& out) {
          std::map<std::string, std::uint64_t> bm(bs.begin(), bs.end());
          std::map<std::string, std::uint64_t> cm(cs.begin(), cs.end());
          for (const auto& [name, bv] : bm) {
            const auto it = cm.find(name);
            const std::uint64_t cv = it == cm.end() ? 0 : it->second;
            if (cv != bv) out.push_back({name, bv, cv});
          }
          for (const auto& [name, cv] : cm)
            if (!bm.count(name) && cv != 0)
              r.added_metrics.push_back({kind, name, cv});
        };
    diff_pairs("counter", base.metrics.counters, cand.metrics.counters,
               r.counter_diffs);
    diff_pairs("gauge", base.metrics.gauges, cand.metrics.gauges,
               r.gauge_diffs);

    using Hist = metrics::Snapshot::Hist;
    std::map<std::string, const Hist*> cand_hists;
    for (const Hist& h : cand.metrics.histograms) cand_hists[h.name] = &h;
    std::map<std::string, const Hist*> base_hists;
    for (const Hist& h : base.metrics.histograms) base_hists[h.name] = &h;
    static const Hist kEmpty;
    auto hist_diff = [&](const Hist& b, const Hist& c,
                         const std::string& name) {
      if (b.count == c.count && b.sum == c.sum && b.buckets == c.buckets)
        return;
      HistDiff d;
      d.name = name;
      d.base_count = b.count;
      d.cand_count = c.count;
      d.base_sum = b.sum;
      d.cand_sum = c.sum;
      d.base_p50 = histogram_percentile(b, 0.50);
      d.cand_p50 = histogram_percentile(c, 0.50);
      d.base_p90 = histogram_percentile(b, 0.90);
      d.cand_p90 = histogram_percentile(c, 0.90);
      d.base_p99 = histogram_percentile(b, 0.99);
      d.cand_p99 = histogram_percentile(c, 0.99);
      r.histogram_diffs.push_back(std::move(d));
    };
    for (const auto& [name, b] : base_hists) {
      const auto it = cand_hists.find(name);
      hist_diff(*b, it == cand_hists.end() ? kEmpty : *it->second, name);
    }
    for (const auto& [name, c] : cand_hists)
      if (!base_hists.count(name) && c->count != 0)
        r.added_metrics.push_back({"histogram", name, c->count});
  }

  // Whole-run wall time (subset runs excluded: shorter input, shorter run).
  if (options.check_metrics && options.time_band >= 0.0 &&
      base_names == cand_names && base.elapsed_ms >= kTimeFloorMs)
    r.elapsed_slow = cand.elapsed_ms > base.elapsed_ms *
                                           (1.0 + options.time_band);
  return r;
}

void write_compare_json(std::ostream& os, const CompareReport& r) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.compare.v1");
  w.field("baseline", r.baseline_path);
  w.field("candidate", r.candidate_path);
  w.key("options");
  w.begin_object();
  w.field("time_band", r.options.time_band);
  w.field("time_floor_ms", kTimeFloorMs);
  w.field("require_all", r.options.require_all);
  w.end_object();
  w.key("summary");
  w.begin_object();
  w.field("cells", static_cast<int>(r.cells.size()));
  w.field("ok", r.ok);
  w.field("qor_regressed", r.qor_regressed);
  w.field("qor_improved", r.qor_improved);
  w.field("status_changed", r.status_changed);
  w.field("work_changed", r.work_changed);
  w.field("slow", r.slow);
  w.field("skipped", r.skipped);
  w.field("new", r.added);
  w.field("metrics_checked", r.metrics_checked);
  w.field("metric_diffs",
          static_cast<int>(r.counter_diffs.size() + r.gauge_diffs.size() +
                           r.histogram_diffs.size()));
  w.field("metrics_added", static_cast<int>(r.added_metrics.size()));
  w.field("elapsed_slow", r.elapsed_slow);
  w.field("verdict", r.regression() ? "regression" : "ok");
  w.end_object();
  w.key("cells");
  w.begin_array();
  for (const CellResult& c : r.cells) {
    if (c.verdict == Verdict::kOk) continue;  // keep the document small
    w.begin_object();
    w.field("circuit", c.circuit);
    w.field("method", c.method);
    w.field("verdict", verdict_name(c.verdict));
    w.key("deltas");
    w.begin_array();
    for (const Delta& d : c.deltas) {
      w.begin_object();
      w.field("metric", d.metric);
      w.field("base", d.base);
      w.field("cand", d.cand);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.begin_object();
  w.field("checked", r.metrics_checked);
  w.field("skip_reason", r.metrics_skip_reason);
  auto write_diffs = [&w](const char* key,
                          const std::vector<MetricDiff>& diffs) {
    w.key(key);
    w.begin_array();
    for (const MetricDiff& d : diffs) {
      w.begin_object();
      w.field("name", d.name);
      w.field("base", d.base);
      w.field("cand", d.cand);
      w.end_object();
    }
    w.end_array();
  };
  write_diffs("counters", r.counter_diffs);
  write_diffs("gauges", r.gauge_diffs);
  w.key("histograms");
  w.begin_array();
  for (const HistDiff& d : r.histogram_diffs) {
    w.begin_object();
    w.field("name", d.name);
    w.field("base_count", d.base_count);
    w.field("cand_count", d.cand_count);
    w.field("base_sum", d.base_sum);
    w.field("cand_sum", d.cand_sum);
    w.field("base_p50", d.base_p50);
    w.field("cand_p50", d.cand_p50);
    w.field("base_p90", d.base_p90);
    w.field("cand_p90", d.cand_p90);
    w.field("base_p99", d.base_p99);
    w.field("cand_p99", d.cand_p99);
    w.end_object();
  }
  w.end_array();
  w.key("added");
  w.begin_array();
  for (const AddedMetric& a : r.added_metrics) {
    w.begin_object();
    w.field("kind", a.kind);
    w.field("name", a.name);
    w.field("value", a.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("time");
  w.begin_object();
  w.field("base_elapsed_ms", r.base_elapsed_ms);
  w.field("cand_elapsed_ms", r.cand_elapsed_ms);
  w.field("elapsed_slow", r.elapsed_slow);
  w.end_object();
  w.end_object();
  os << '\n';
}

void print_compare(std::ostream& os, const CompareReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "compare: %s vs %s\n  %d ok, %d qor-regressed, %d "
                "qor-improved, %d status-changed, %d work-changed, %d slow, "
                "%d skipped, %d new\n",
                r.baseline_path.c_str(), r.candidate_path.c_str(), r.ok,
                r.qor_regressed, r.qor_improved, r.status_changed,
                r.work_changed, r.slow, r.skipped, r.added);
  os << buf;
  for (const CellResult& c : r.cells) {
    if (c.verdict == Verdict::kOk) continue;
    if (!r.options.require_all &&
        (c.verdict == Verdict::kSkipped || c.verdict == Verdict::kNew))
      continue;  // listed only where they fail the gate
    std::snprintf(buf, sizeof(buf), "  %-10s %-4s %s", c.circuit.c_str(),
                  c.method.c_str(), verdict_name(c.verdict));
    os << buf;
    for (const Delta& d : c.deltas) {
      std::snprintf(buf, sizeof(buf), "  %s %.17g -> %.17g",
                    d.metric.c_str(), d.base, d.cand);
      os << buf;
    }
    os << '\n';
  }
  if (r.metrics_checked) {
    for (const auto& [kind, diffs] :
         {std::pair{"counter", &r.counter_diffs},
          std::pair{"gauge", &r.gauge_diffs}})
      for (const MetricDiff& d : *diffs) {
        std::snprintf(buf, sizeof(buf), "  %s %s: %llu -> %llu\n", kind,
                      d.name.c_str(), static_cast<unsigned long long>(d.base),
                      static_cast<unsigned long long>(d.cand));
        os << buf;
      }
    for (const HistDiff& d : r.histogram_diffs) {
      std::snprintf(
          buf, sizeof(buf),
          "  histogram %s: count %llu -> %llu, sum %llu -> %llu, p50 %llu -> "
          "%llu, p99 %llu -> %llu\n",
          d.name.c_str(), static_cast<unsigned long long>(d.base_count),
          static_cast<unsigned long long>(d.cand_count),
          static_cast<unsigned long long>(d.base_sum),
          static_cast<unsigned long long>(d.cand_sum),
          static_cast<unsigned long long>(d.base_p50),
          static_cast<unsigned long long>(d.cand_p50),
          static_cast<unsigned long long>(d.base_p99),
          static_cast<unsigned long long>(d.cand_p99));
      os << buf;
    }
    for (const AddedMetric& a : r.added_metrics) {
      std::snprintf(buf, sizeof(buf), "  added %s %s: %llu\n", a.kind.c_str(),
                    a.name.c_str(), static_cast<unsigned long long>(a.value));
      os << buf;
    }
  } else {
    os << "  metrics: skipped — " << r.metrics_skip_reason << '\n';
  }
  if (r.elapsed_slow) {
    std::snprintf(buf, sizeof(buf), "  elapsed: %.1f ms -> %.1f ms (slow)\n",
                  r.base_elapsed_ms, r.cand_elapsed_ms);
    os << buf;
  }
  os << (r.regression() ? "REGRESSION\n" : "OK\n");
}

}  // namespace minpower::report
