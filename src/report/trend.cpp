#include "report/trend.hpp"

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

namespace {

/// Identity of one sweep point: the same configuration re-measured across
/// commits must collide so the gate compares like with like.
using PointKey = std::tuple<std::string, std::uint64_t, std::uint64_t, double>;

PointKey key_of(const TrajectoryPoint& p) {
  return {p.family, p.target_gates, p.seed, p.suite};
}

/// The memory peak used for the bdd-bytes fit: prefer the whole-arena peak,
/// fall back to the node-array peak for records predating the arena gauge.
double bdd_bytes_of(const TrajectoryPoint& p) {
  return p.peak_bdd_arena_bytes > 0.0 ? p.peak_bdd_arena_bytes
                                      : p.peak_bdd_node_bytes;
}

bool parse_point(const JsonValue& obj, TrajectoryPoint* out) {
  if (obj.kind != JsonValue::Kind::kObject) return false;
  if (obj.string_or("schema") != "minpower.bench_trajectory.v1") return false;
  out->family = obj.string_or("family");
  if (out->family.empty()) out->family = "paper-suite";
  out->seed = obj.number_or<std::uint64_t>("seed");
  out->target_gates = obj.number_or<std::uint64_t>("target_gates");
  out->gates = obj.number_or("gates");
  out->suite = obj.number_or("suite");
  out->threads = obj.number_or("threads");
  out->shards = obj.number_or("shards");
  out->wall_ms = obj.number_or("wall_ms");
  out->map_curve_cap = obj.number_or<std::uint64_t>("map_curve_cap");
  out->peak_bdd_nodes = obj.number_or("peak_bdd_nodes");
  out->peak_bdd_node_bytes = obj.number_or("peak_bdd_node_bytes");
  out->peak_bdd_arena_bytes = obj.number_or("peak_bdd_arena_bytes");
  out->peak_rss_kb = obj.number_or("peak_rss_kb");
  out->degradations = obj.number_or("degradations");
  out->failures = obj.number_or("failures");
  out->retries = obj.number_or("retries");
  return true;
}

/// What is wrong with the first field a trend fit or point match needs:
/// absent or not a number, or (seed, target_gates) not a non-negative
/// integer. Empty when every field is usable.
std::string bad_field(const JsonValue& obj) {
  for (const char* key : {"seed", "target_gates", "gates", "suite", "wall_ms"})
    if (const JsonValue* v = obj.find(key);
        v == nullptr || v->kind != JsonValue::Kind::kNumber)
      return std::string("lacks required field '") + key + "'";
  for (const char* key : {"seed", "target_gates"})
    if (!json_integer<std::uint64_t>(obj.find(key)->number))
      return std::string("field '") + key + "' is not a non-negative integer";
  return {};
}

}  // namespace

bool load_trajectory(std::string_view text, const std::string& label,
                     TrajectoryDoc* out, std::string* error) {
  out->path = label;
  // Collect non-empty lines first so "last line" is well-defined whether or
  // not the file ends in a newline.
  std::vector<std::pair<std::size_t, std::string_view>> lines;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    std::string_view line = text.substr(pos, end - pos);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.remove_suffix(1);
    if (!line.empty()) lines.emplace_back(line_no, line);
    if (end == text.size()) break;
    pos = end + 1;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    std::string parse_error;
    const auto doc = parse_json(lines[i].second, &parse_error);
    TrajectoryPoint p;
    if (!doc || !parse_point(*doc, &p)) {
      // A torn or foreign tail (a run killed mid-append) is dropped; the
      // same damage mid-file means the file is not a trajectory.
      if (last) break;
      return set_error(error, label + ":" + std::to_string(lines[i].first) +
                                  ": not a minpower.bench_trajectory.v1 "
                                  "record");
    }
    if (const std::string bad = bad_field(*doc); !bad.empty())
      return set_error(error, label + ":" + std::to_string(lines[i].first) +
                                  ": trajectory record " + bad);
    out->points.push_back(std::move(p));
  }
  if (out->points.empty())
    return set_error(error, label + ": no trajectory records");
  return true;
}

bool load_trajectory_file(const std::string& path, TrajectoryDoc* out,
                          std::string* error) {
  std::ifstream in(path);
  if (!in.good()) return set_error(error, "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return load_trajectory(buf.str(), path, out, error);
}

void write_trajectory_point(std::ostream& os, const TrajectoryPoint& p) {
  {
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.field("schema", "minpower.bench_trajectory.v1");
    w.field("family", p.family);
    w.field("seed", static_cast<unsigned long long>(p.seed));
    w.field("target_gates", static_cast<unsigned long long>(p.target_gates));
    w.field("gates", p.gates);
    w.field("suite", p.suite);
    w.field("threads", p.threads);
    w.field("shards", p.shards);
    w.field("wall_ms", p.wall_ms);
    w.field("map_curve_cap", static_cast<unsigned long long>(p.map_curve_cap));
    w.field("peak_bdd_nodes", p.peak_bdd_nodes);
    w.field("peak_bdd_node_bytes", p.peak_bdd_node_bytes);
    w.field("peak_bdd_arena_bytes", p.peak_bdd_arena_bytes);
    w.field("peak_rss_kb", p.peak_rss_kb);
    w.field("degradations", p.degradations);
    w.field("failures", p.failures);
    w.field("retries", p.retries);
    w.end_object();
  }
  os << '\n';
}

bool append_trajectory_point(const std::string& path, const TrajectoryPoint& p,
                             std::string* error) {
  std::ofstream out(path, std::ios::app);
  if (!out.good()) return set_error(error, "cannot open " + path);
  write_trajectory_point(out, p);
  return true;
}

namespace {

SlopeFit fit_log2(const std::vector<std::pair<double, double>>& xy) {
  SlopeFit f;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double first_x = 0;
  bool distinct = false;
  int n = 0;
  for (const auto& [gates, metric] : xy) {
    if (gates <= 0.0 || metric <= 0.0) continue;
    const double x = std::log2(gates);
    const double y = std::log2(metric);
    if (n == 0)
      first_x = x;
    else if (x != first_x)
      distinct = true;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  f.points = n;
  if (n < 2 || !distinct) return f;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  f.available = denom != 0.0;
  if (!f.available) return f;
  f.slope = (static_cast<double>(n) * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / static_cast<double>(n);
  return f;
}

std::vector<FamilyTrend> fit_families(const TrajectoryDoc& doc) {
  std::vector<FamilyTrend> out;
  std::vector<std::string> order;  // first-seen family order
  std::map<std::string, std::vector<const TrajectoryPoint*>> grouped;
  for (const TrajectoryPoint& p : doc.points) {
    auto [it, fresh] = grouped.try_emplace(p.family);
    if (fresh) order.push_back(p.family);
    it->second.push_back(&p);
  }
  for (const std::string& family : order) {
    const auto& pts = grouped[family];
    FamilyTrend t;
    t.family = family;
    t.points = static_cast<int>(pts.size());
    std::vector<std::pair<double, double>> time_xy, rss_xy, bdd_xy;
    for (const TrajectoryPoint* p : pts) {
      if (p->gates > 0.0) {
        if (t.min_gates == 0.0 || p->gates < t.min_gates)
          t.min_gates = p->gates;
        if (p->gates > t.max_gates) t.max_gates = p->gates;
      }
      time_xy.emplace_back(p->gates, p->wall_ms);
      rss_xy.emplace_back(p->gates, p->peak_rss_kb);
      bdd_xy.emplace_back(p->gates, bdd_bytes_of(*p));
      t.degradations += p->degradations;
      t.failures += p->failures;
      t.retries += p->retries;
    }
    t.time = fit_log2(time_xy);
    t.rss = fit_log2(rss_xy);
    t.bdd_bytes = fit_log2(bdd_xy);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

TrendReport analyze_trend(const TrajectoryDoc& cand, const TrajectoryDoc* base,
                          const TrendOptions& options) {
  TrendReport r;
  r.candidate_path = cand.path;
  r.options = options;
  r.families = fit_families(cand);
  if (base == nullptr) return r;
  r.baseline_path = base->path;
  r.baseline_families = fit_families(*base);

  // Per-point bands. Repeated measurements of the same key keep the last
  // record (latest append wins) on both sides.
  std::map<PointKey, const TrajectoryPoint*> base_pts;
  for (const TrajectoryPoint& p : base->points) base_pts[key_of(p)] = &p;
  std::map<PointKey, const TrajectoryPoint*> cand_pts;
  for (const TrajectoryPoint& p : cand.points) cand_pts[key_of(p)] = &p;
  for (const auto& [key, c] : cand_pts) {
    const auto it = base_pts.find(key);
    if (it == base_pts.end()) continue;
    const TrajectoryPoint& b = *it->second;
    r.matched_points += 1;
    auto check = [&](const char* metric, double bv, double cv, double band,
                     double floor) {
      if (bv <= floor || cv <= bv * (1.0 + band)) return;
      r.point_regressions.push_back(
          {c->family, c->target_gates, c->seed, metric, bv, cv});
    };
    check("wall_ms", b.wall_ms, c->wall_ms, options.time_band,
          options.time_floor_ms);
    check("peak_rss_kb", b.peak_rss_kb, c->peak_rss_kb, options.mem_band, 0.0);
    check("peak_bdd_bytes", bdd_bytes_of(b), bdd_bytes_of(*c),
          options.mem_band, 0.0);
  }

  // Slope bands: complexity-class drift.
  std::map<std::string, const FamilyTrend*> base_fams;
  for (const FamilyTrend& t : r.baseline_families) base_fams[t.family] = &t;
  for (const FamilyTrend& c : r.families) {
    const auto it = base_fams.find(c.family);
    if (it == base_fams.end()) continue;
    const FamilyTrend& b = *it->second;
    auto check = [&](const char* metric, const SlopeFit& bs,
                     const SlopeFit& cs) {
      if (!bs.available || !cs.available) return;
      if (cs.slope <= bs.slope + options.slope_band) return;
      r.slope_regressions.push_back({c.family, 0, 0, metric, bs.slope,
                                     cs.slope});
    };
    check("wall_ms_slope", b.time, c.time);
    check("peak_rss_kb_slope", b.rss, c.rss);
    check("peak_bdd_bytes_slope", b.bdd_bytes, c.bdd_bytes);
  }
  return r;
}

namespace {

void write_families(JsonWriter& w, const char* key,
                    const std::vector<FamilyTrend>& families) {
  w.key(key);
  w.begin_array();
  for (const FamilyTrend& t : families) {
    w.begin_object();
    w.field("family", t.family);
    w.field("points", t.points);
    w.field("min_gates", t.min_gates);
    w.field("max_gates", t.max_gates);
    auto fit = [&w](const char* name, const SlopeFit& f) {
      w.key(name);
      w.begin_object();
      w.field("available", f.available);
      w.field("slope", f.slope);
      w.field("intercept", f.intercept);
      w.field("points", f.points);
      w.end_object();
    };
    fit("wall_ms", t.time);
    fit("peak_rss_kb", t.rss);
    fit("peak_bdd_bytes", t.bdd_bytes);
    w.field("degradations", t.degradations);
    w.field("failures", t.failures);
    w.field("retries", t.retries);
    w.end_object();
  }
  w.end_array();
}

void write_deltas(JsonWriter& w, const char* key,
                  const std::vector<TrendDelta>& deltas) {
  w.key(key);
  w.begin_array();
  for (const TrendDelta& d : deltas) {
    w.begin_object();
    w.field("family", d.family);
    w.field("target_gates", d.target_gates);
    w.field("seed", d.seed);
    w.field("metric", d.metric);
    w.field("base", d.base);
    w.field("cand", d.cand);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void write_trend_json(std::ostream& os, const TrendReport& r) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.trend.v1");
  w.field("candidate", r.candidate_path);
  w.field("baseline", r.baseline_path);
  w.key("options");
  w.begin_object();
  w.field("time_band", r.options.time_band);
  w.field("mem_band", r.options.mem_band);
  w.field("slope_band", r.options.slope_band);
  w.field("time_floor_ms", r.options.time_floor_ms);
  w.end_object();
  w.key("summary");
  w.begin_object();
  w.field("families", static_cast<int>(r.families.size()));
  w.field("matched_points", r.matched_points);
  w.field("point_regressions", static_cast<int>(r.point_regressions.size()));
  w.field("slope_regressions", static_cast<int>(r.slope_regressions.size()));
  w.field("verdict", r.regression() ? "regression" : "ok");
  w.end_object();
  write_families(w, "families", r.families);
  if (!r.baseline_path.empty())
    write_families(w, "baseline_families", r.baseline_families);
  write_deltas(w, "point_regressions", r.point_regressions);
  write_deltas(w, "slope_regressions", r.slope_regressions);
  w.end_object();
  os << '\n';
}

void print_trend(std::ostream& os, const TrendReport& r) {
  char buf[512];
  os << "trend: " << r.candidate_path;
  if (!r.baseline_path.empty()) os << " vs " << r.baseline_path;
  os << '\n';
  os << "  family        pts   gates            wall^   rss^    bddB^   "
        "degr  fail  retry\n";
  auto slope_str = [](const SlopeFit& f, char out[16]) {
    if (f.available)
      std::snprintf(out, 16, "%.2f", f.slope);
    else
      std::snprintf(out, 16, "n/a");
  };
  for (const FamilyTrend& t : r.families) {
    char ts[16], rs[16], bs[16];
    slope_str(t.time, ts);
    slope_str(t.rss, rs);
    slope_str(t.bdd_bytes, bs);
    std::snprintf(buf, sizeof(buf),
                  "  %-12s %4d   %7.0f-%-7.0f %-7s %-7s %-7s %4.0f  %4.0f  "
                  "%5.0f\n",
                  t.family.c_str(), t.points, t.min_gates, t.max_gates, ts, rs,
                  bs, t.degradations, t.failures, t.retries);
    os << buf;
  }
  if (!r.baseline_path.empty()) {
    std::snprintf(buf, sizeof(buf), "  matched %d point(s) against baseline\n",
                  r.matched_points);
    os << buf;
  }
  for (const TrendDelta& d : r.point_regressions) {
    std::snprintf(buf, sizeof(buf),
                  "  POINT %s target=%llu seed=%llu %s: %.17g -> %.17g\n",
                  d.family.c_str(),
                  static_cast<unsigned long long>(d.target_gates),
                  static_cast<unsigned long long>(d.seed), d.metric.c_str(),
                  d.base, d.cand);
    os << buf;
  }
  for (const TrendDelta& d : r.slope_regressions) {
    std::snprintf(buf, sizeof(buf), "  SLOPE %s %s: %.3f -> %.3f\n",
                  d.family.c_str(), d.metric.c_str(), d.base, d.cand);
    os << buf;
  }
  os << (r.regression() ? "REGRESSION\n" : "OK\n");
}

}  // namespace minpower::report
