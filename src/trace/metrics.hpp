#pragma once
// Metrics registry: named counters, max-gauges, and log-scale histograms for
// the synthesis pipeline (DESIGN.md §10).
//
// The determinism contract: every metric records *event counts* — BDD
// unique-table probes, Huffman merges, curve points kept/pruned, checkpoint
// hits — never timings, so the registry snapshot is byte-identical across
// thread counts and repeated runs (integer addition and max commute; the
// flow engine performs the same work regardless of scheduling). Wall-clock
// measurements belong to the span tracer (trace/trace.hpp), not here.
//
// Hot-path cost: an increment is one relaxed atomic add. The hottest
// producers (BddManager) accumulate in plain members and flush once per
// manager lifetime, so per-operation instrumentation cost there is zero.
// BDD engine names (DESIGN.md §12): bdd.unique_lookups (unique-table
// probes), bdd.ite_calls / bdd.ite_cache_hits (tagged computed-table ops —
// ITE and the one-call XOR — and their cache hits), bdd.not_calls /
// bdd.not_cache_hits (complement ops against the dense NOT memo), the
// bdd.unique_table_peak gauge, and the bdd.final_nodes histogram.
// Handles returned by `counter()/gauge()/histogram()` stay valid for the
// process lifetime — `reset()` zeroes values but never invalidates them —
// so call sites may cache them in function-local statics.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "trace/cold.hpp"
#include "util/json_writer.hpp"

namespace minpower::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// High-water-mark gauge: keeps the maximum value ever recorded.
class Gauge {
 public:
  void record_max(std::uint64_t v) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log-scale (powers-of-two) histogram of non-negative integer samples.
/// Bucket 0 holds the value 0; bucket i ≥ 1 holds [2^(i-1), 2^i − 1].
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    int b = 1;
    while (v >>= 1) ++b;
    return b;  // 1 + floor(log2(v)), ≤ 64
  }

  /// Inclusive lower bound of a bucket.
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of every registered metric, sorted by name — the unit
/// the determinism tests byte-compare and write_flow_json serializes.
struct Snapshot {
  struct Hist {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Non-empty buckets only: (inclusive lower bound, sample count).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<Hist> histograms;
};

class Registry {
 public:
  static Registry& global() {
    static Registry r;
    return r;
  }

  MP_TRACE_OUTLINE Counter& counter(std::string_view name) {
    return fetch(counters_, name);
  }
  MP_TRACE_OUTLINE Gauge& gauge(std::string_view name) {
    return fetch(gauges_, name);
  }
  MP_TRACE_OUTLINE Histogram& histogram(std::string_view name) {
    return fetch(histograms_, name);
  }

  /// Sorted-by-name copy of all values (std::map iteration order).
  MP_TRACE_COLD Snapshot snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    for (const auto& [name, c] : counters_)
      s.counters.emplace_back(name, c->value());
    for (const auto& [name, g] : gauges_)
      s.gauges.emplace_back(name, g->value());
    for (const auto& [name, h] : histograms_) {
      Snapshot::Hist out;
      out.name = name;
      out.count = h->count();
      out.sum = h->sum();
      for (int b = 0; b < Histogram::kBuckets; ++b)
        if (const std::uint64_t n = h->bucket(b))
          out.buckets.emplace_back(Histogram::bucket_lo(b), n);
      s.histograms.push_back(std::move(out));
    }
    return s;
  }

  /// Zero every value. Registered metrics (and cached handles) stay valid.
  MP_TRACE_COLD void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
  }

 private:
  Registry() = default;

  template <typename M>
  M& fetch(std::map<std::string, std::unique_ptr<M>, std::less<>>& table,
           std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = table.find(name);
    if (it != table.end()) return *it->second;
    auto& slot = table[std::string(name)];
    slot = std::make_unique<M>();
    return *slot;
  }

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

MP_TRACE_OUTLINE inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
MP_TRACE_OUTLINE inline Gauge& gauge(std::string_view name) {
  return Registry::global().gauge(name);
}
MP_TRACE_OUTLINE inline Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

/// Cache-miss path of count_checkpoint: name materialization + registry
/// lookup, out of line so the call sites only inline the cache hit.
MP_TRACE_COLD inline Counter& checkpoint_counter_slow(const char* site) {
  return Registry::global().counter(std::string("budget.checkpoint.") + site);
}

/// Per-site checkpoint accounting for budget_checkpoint (util/budget.hpp).
/// Sites arrive as string literals from tight loops, so a one-entry
/// thread-local cache keyed on the literal's address makes the repeat hit
/// a pointer compare plus one relaxed add.
inline void count_checkpoint(const char* site) {
  thread_local const char* cached_site = nullptr;
  thread_local Counter* cached_counter = nullptr;
  if (site != cached_site) {
    cached_site = site;
    cached_counter = &checkpoint_counter_slow(site);
  }
  cached_counter->add(1);
}

/// Emit a snapshot as one JSON object value (the `metrics` block of
/// `minpower.flow.v1`): arrays of {name, value} plus histogram objects, so
/// the schema skeleton is stable no matter which metrics are registered.
MP_TRACE_COLD inline void write_metrics_json(JsonWriter& w, const Snapshot& s) {
  w.begin_object();
  w.key("counters");
  w.begin_array();
  for (const auto& [name, value] : s.counters) {
    w.begin_object();
    w.field("name", name);
    w.field("value", value);
    w.end_object();
  }
  w.end_array();
  w.key("gauges");
  w.begin_array();
  for (const auto& [name, value] : s.gauges) {
    w.begin_object();
    w.field("name", name);
    w.field("value", value);
    w.end_object();
  }
  w.end_array();
  w.key("histograms");
  w.begin_array();
  for (const Snapshot::Hist& h : s.histograms) {
    w.begin_object();
    w.field("name", h.name);
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.key("buckets");
    w.begin_array();
    for (const auto& [lo, n] : h.buckets) {
      w.begin_object();
      w.field("lo", lo);
      w.field("count", n);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace minpower::metrics
