#pragma once
// Scale-trajectory trend gate (DESIGN.md §16) — the scale-axis sibling of
// the QoR compare gate (baseline.hpp).
//
// Input is one or more `minpower.bench_trajectory.v1` JSONL files, as
// appended by `bench_flow --append` / `bench_flow --scale`: one compact
// JSON object per line, each a single (family, target_gates, seed) sweep
// point carrying gates, wall ms, peak BDD node bytes, peak worker RSS and
// degradation/retry/failure counts. A torn trailing line (a sweep killed
// mid-append) is tolerated and dropped, like the shard journal.
//
// Analysis fits per-family log2-log2 slopes — d log2(metric) / d log2(gates)
// for wall time, peak RSS and peak BDD arena bytes — over the distinct
// sweep points, the straight-line summary of "how does cost scale with
// circuit size". With a committed reference trajectory the gate compares:
//
//   - per-point ratios: a candidate point matching a baseline point (same
//     family/target_gates/seed/suite) whose wall_ms or memory peak exceeds
//     baseline·(1+band) regresses (wall times below a floor are noise and
//     ignored);
//   - per-family slopes: a fitted slope exceeding the baseline slope by
//     more than slope_band regresses — catching complexity-class drift
//     that per-point bands at small sizes would miss.
//
// Consumed by `minpower trend <traj...>`, which prints the fitted-slope
// table, emits `minpower.trend.v1`, and exits 3 on regression.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace minpower::report {

/// One trajectory record, as bench_flow appends it and the gate reads it.
/// Unknown fields are ignored; missing numeric fields default to 0 (older
/// records simply lack the memory telemetry).
struct TrajectoryPoint {
  std::string family = "paper-suite";  // chain | cone | mesh | paper-suite
  std::uint64_t seed = 0;
  std::uint64_t target_gates = 0;  // requested size (0: fixed suites)
  double gates = 0.0;              // generated internal node count
  double suite = 0.0;              // circuits in the run
  double threads = 0.0;
  double shards = 0.0;             // 0: in-process
  double wall_ms = 0.0;
  std::uint64_t map_curve_cap = 0;  // 0: exact (uncapped) mapper curves
  double peak_bdd_nodes = 0.0;
  double peak_bdd_node_bytes = 0.0;
  double peak_bdd_arena_bytes = 0.0;
  double peak_rss_kb = 0.0;  // process high-water (max worker's if sharded)
  double degradations = 0.0;
  double failures = 0.0;
  double retries = 0.0;

  bool operator==(const TrajectoryPoint&) const = default;
};

struct TrajectoryDoc {
  std::string path;  // label for messages
  std::vector<TrajectoryPoint> points;
};

/// Parse trajectory JSONL text. A malformed or schema-less final line is
/// dropped (torn tail); a malformed interior line, or any record without
/// seed, target_gates, gates, suite and wall_ms, fails the load.
bool load_trajectory(std::string_view text, const std::string& label,
                     TrajectoryDoc* out, std::string* error);

/// Read + parse one file, appending to `out->points` (callers merge several
/// trajectory files into one candidate document).
bool load_trajectory_file(const std::string& path, TrajectoryDoc* out,
                          std::string* error);

/// One point as a compact JSONL line ('\n'-terminated) that load_trajectory
/// reads back field for field (doubles are written as %.17g).
void write_trajectory_point(std::ostream& os, const TrajectoryPoint& p);

/// Append one point's line to the file at `path`. False (with `error`) when
/// the file cannot be opened.
bool append_trajectory_point(const std::string& path, const TrajectoryPoint& p,
                             std::string* error);

/// Least-squares line through (log2 gates, log2 metric). Unavailable until
/// two points with distinct positive gate counts and positive metric exist.
struct SlopeFit {
  bool available = false;
  double slope = 0.0;      // d log2(metric) / d log2(gates)
  double intercept = 0.0;  // log2(metric) at log2(gates) = 0
  int points = 0;
};

/// Per-family trend summary over every point of that family.
struct FamilyTrend {
  std::string family;
  int points = 0;
  double min_gates = 0.0;
  double max_gates = 0.0;
  SlopeFit time;       // wall_ms vs gates
  SlopeFit rss;        // peak_rss_kb vs gates
  SlopeFit bdd_bytes;  // peak BDD arena/node bytes vs gates
  double degradations = 0.0;  // totals across the family's points
  double failures = 0.0;
  double retries = 0.0;
};

struct TrendOptions {
  /// Per-point wall-time ratio band vs the baseline point (0.25 = +25%).
  double time_band = 0.25;
  /// Per-point memory ratio band (peak RSS and peak BDD bytes).
  double mem_band = 0.25;
  /// Allowed absolute increase of a fitted slope vs the baseline fit.
  double slope_band = 0.15;
  /// Candidate/baseline wall times both below this floor are ignored.
  double time_floor_ms = 5.0;
};

/// One offending point or slope. For slope regressions `target_gates` is 0
/// and base/cand are the fitted slopes.
struct TrendDelta {
  std::string family;
  std::uint64_t target_gates = 0;
  std::uint64_t seed = 0;
  std::string metric;  // wall_ms | peak_rss_kb | peak_bdd_bytes | *_slope
  double base = 0.0;
  double cand = 0.0;
};

struct TrendReport {
  std::string candidate_path;
  std::string baseline_path;  // empty: no gate, fits only
  TrendOptions options;
  std::vector<FamilyTrend> families;           // candidate fits
  std::vector<FamilyTrend> baseline_families;  // baseline fits (if any)
  std::vector<TrendDelta> point_regressions;
  std::vector<TrendDelta> slope_regressions;
  int matched_points = 0;  // candidate points with a baseline twin

  bool regression() const {
    return !point_regressions.empty() || !slope_regressions.empty();
  }
};

/// Fit candidate (and baseline, when non-null) trajectories and apply the
/// bands. Pure: no I/O.
TrendReport analyze_trend(const TrajectoryDoc& cand,
                          const TrajectoryDoc* base,
                          const TrendOptions& options);

/// Emit the `minpower.trend.v1` document.
void write_trend_json(std::ostream& os, const TrendReport& r);

/// Human-readable table: per-family fitted slopes plus every regression.
void print_trend(std::ostream& os, const TrendReport& r);

}  // namespace minpower::report
