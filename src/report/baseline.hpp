#pragma once
// QoR baseline / regression-compare subsystem (DESIGN.md §11).
//
// Loads two `minpower.flow.v1` reports and diffs them cell by cell, where a
// cell is one (circuit × method) result. This module is the one place that
// decides which report fields are deterministic and must match exactly:
//
//   - QoR values (power_uw, area, delay_ns, gates) and the task status are
//     an *exact lock*: any drift — including an improvement — is a gate
//     failure, because baselines record what the code computes, and
//     improvements must be banked by regenerating the baseline deliberately
//     (MINPOWER_REGEN_BASELINE=1).
//   - Each cell's work fields (the deterministic PhaseStats counts:
//     bdd_nodes, matches, curve_points, redecomp_iterations, the pass,
//     fallback and retry counts, and the shared flags) are an exact lock
//     too. They are independent of threads, shards and cache state, so the
//     lock holds on subset candidates as well.
//   - Metrics-registry counters/gauges/histograms are deterministic and
//     thread-count independent (DESIGN.md §10), so they compare exactly —
//     but only when both reports cover the same circuit set; a subset run
//     (the CI gate) skips them with a recorded reason. Histogram drift is
//     additionally summarized as p50/p90/p99 shifts estimated from the
//     log-2 buckets (the estimate is the inclusive lower bound of the
//     bucket holding the quantile sample).
//   - Wall times are noisy, so they gate only on *slowdown* beyond a
//     configurable band (default +20%), and per-phase times below a 1 ms
//     floor are ignored entirely.
//
// Cells present only in the baseline are "skipped" and cells only in the
// candidate are "new"; neither fails the gate unless require_all is set.
// Likewise a registry entry only the candidate has is listed as added; a
// base entry that changed or went missing fails.
//
// Consumed by `minpower compare <baseline> <candidate>`, which prints the
// verdict table, emits `minpower.compare.v1`, and exits 3 on regression.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "flow/session.hpp"

namespace minpower::report {

/// Nearest-rank q-quantile estimated from the log-2 buckets: the inclusive
/// lower bound of the bucket containing the ⌈q·count⌉-th sample. Exact for
/// the bucket, a factor-2 under-estimate of the sample at worst.
std::uint64_t histogram_percentile(const metrics::Snapshot::Hist& h,
                                   double q);

/// A `minpower.flow.v1` report, decoded by parse_flow_json, with the path
/// that labels it in messages and compare reports.
struct FlowReportDoc : FlowDoc {
  std::string path;
};

/// Parse a report from JSON text. Returns false (with `error`, prefixed by
/// `label`) on malformed JSON, a wrong or missing schema marker, or any
/// defect parse_flow_json reports.
bool load_flow_report(std::string_view json_text, const std::string& label,
                      FlowReportDoc* out, std::string* error);

/// Convenience: read + parse a report file.
bool load_flow_report_file(const std::string& path, FlowReportDoc* out,
                           std::string* error);

struct CompareOptions {
  /// Allowed fractional wall-time slowdown (0.2 = +20%). Negative
  /// disables every wall-time check. Speedups never fail.
  double time_band = 0.20;
  /// The candidate must hold exactly the baseline's cells (full-suite
  /// lock): missing cells and candidate-only cells are regressions instead
  /// of "skipped" / "new" (subset gate).
  bool require_all = false;
  /// Check everything beyond QoR and status: the per-cell work fields, the
  /// metrics-registry block and wall times. Disable (`--qor-only`) when
  /// vetting an intentional engine change whose work legitimately moves
  /// but whose QoR must stay locked — the gate that precedes a deliberate
  /// baseline regeneration — or when the candidate has no registry block
  /// and zeroed wall times (canonical sharded and served documents).
  bool check_metrics = true;
};

/// A compared cell's verdict. kOk through kQorRegressed are in rising
/// precedence: a cell with several findings takes the worst.
enum class Verdict {
  kOk,             // everything locked matches
  kSlow,           // wall time beyond the slowdown band
  kWorkChanged,    // a deterministic work field differs (e.g. matches)
  kStatusChanged,  // task state differs (e.g. ok → degraded)
  kQorImproved,    // QoR value drifted better — still fails the exact lock
  kQorRegressed,   // QoR value drifted worse
  kSkipped,        // in baseline only (subset candidate)
  kNew,            // in candidate only
};

const char* verdict_name(Verdict v);

/// One offending metric of a cell.
struct Delta {
  std::string metric;
  double base = 0.0;
  double cand = 0.0;
};

struct CellResult {
  std::string circuit;
  std::string method;
  Verdict verdict = Verdict::kOk;
  std::vector<Delta> deltas;  // offending metrics only
};

struct MetricDiff {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t cand = 0;
};

/// A registry entry only the candidate has (a new counter, gauge or
/// histogram). Listed, never a regression — like a candidate-only cell.
struct AddedMetric {
  std::string kind;  // counter | gauge | histogram
  std::string name;
  std::uint64_t value = 0;  // a histogram's sample count
};

struct HistDiff {
  std::string name;
  std::uint64_t base_count = 0, cand_count = 0;
  std::uint64_t base_sum = 0, cand_sum = 0;
  std::uint64_t base_p50 = 0, cand_p50 = 0;
  std::uint64_t base_p90 = 0, cand_p90 = 0;
  std::uint64_t base_p99 = 0, cand_p99 = 0;
};

struct CompareReport {
  std::string baseline_path;
  std::string candidate_path;
  CompareOptions options;
  std::vector<CellResult> cells;  // every baseline ∪ candidate cell
  // Registry comparison (exact); skipped when circuit sets differ.
  bool metrics_checked = false;
  std::string metrics_skip_reason;
  std::vector<MetricDiff> counter_diffs;  // differing entries only
  std::vector<MetricDiff> gauge_diffs;
  std::vector<HistDiff> histogram_diffs;
  std::vector<AddedMetric> added_metrics;
  // Whole-run wall time.
  double base_elapsed_ms = 0.0;
  double cand_elapsed_ms = 0.0;
  bool elapsed_slow = false;
  // Verdict tallies over `cells`.
  int ok = 0, qor_regressed = 0, qor_improved = 0, status_changed = 0,
      work_changed = 0, slow = 0, skipped = 0, added = 0;

  bool regression() const {
    const int failed_cells =
        qor_regressed + qor_improved + status_changed + work_changed + slow;
    return failed_cells > 0 || !counter_diffs.empty() || !gauge_diffs.empty() ||
           !histogram_diffs.empty() || elapsed_slow ||
           (options.require_all && skipped + added > 0);
  }
};

CompareReport compare_flow_reports(const FlowReportDoc& base,
                                   const FlowReportDoc& cand,
                                   const CompareOptions& options);

/// Emit the `minpower.compare.v1` document.
void write_compare_json(std::ostream& os, const CompareReport& r);

/// Human-readable verdict table: summary line + every non-ok cell with its
/// offending metrics, plus registry and wall-time findings.
void print_compare(std::ostream& os, const CompareReport& r);

}  // namespace minpower::report
