#pragma once
// Small statistics accumulators used by the benchmark harnesses to report
// the aggregate numbers the paper quotes (average % power improvement etc.),
// and the wall-clock helper the flow's phase timings share.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace minpower {

/// Streaming mean/min/max/stddev accumulator (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  long long count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  long long n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean of strictly positive samples; the standard way to average
/// per-circuit ratios (power improvement factors) across a benchmark suite.
class GeoMean {
 public:
  void add(double x) {
    MP_CHECK_MSG(x > 0.0, "geometric mean requires positive samples");
    log_sum_ += std::log(x);
    ++n_;
  }
  long long count() const { return n_; }
  double value() const {
    return n_ ? std::exp(log_sum_ / static_cast<double>(n_)) : 1.0;
  }

 private:
  double log_sum_ = 0.0;
  long long n_ = 0;
};

/// Percentage change helper: positive result means `b` is larger than `a`.
inline double percent_change(double a, double b) {
  if (a == 0.0) return 0.0;
  return 100.0 * (b - a) / a;
}

/// Milliseconds elapsed on the steady clock since `t0`.
inline double elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace minpower
