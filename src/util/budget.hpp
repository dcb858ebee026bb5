#pragma once
// Resource governance for the synthesis pipeline.
//
// A Budget bounds one unit of work (typically one flow-engine task): a BDD
// node cap, an optional wall-clock deadline, and an optional step counter.
// Exceeding a budget raises ResourceExhausted — a *recoverable* error, in
// contrast to MP_CHECK, which stays reserved for invariant corruption and
// still aborts. Long-running loops call `budget_checkpoint("<site>")`; the
// active budget (if any) is found through a thread-local, so deep algorithm
// code needs no signature changes and standalone library use (no budget)
// pays one thread-local read per checkpoint.
//
// Deterministic fault injection: MINPOWER_INJECT_FAULT=<site>:<ordinal>
// (comma-separated list) arms faults against the task with that ordinal —
// a deterministic task id assigned by the engine (its slot index: stage-1
// groups, then stage-2 methods, then stage-0 source passes; see
// flow/session.hpp), NOT a temporal counter, so injection is independent of
// thread count and scheduling. Sites:
//   * a checkpoint name ("decomp", "activity", "map", "bdd") — that
//     checkpoint throws ResourceExhausted when it runs in the armed task;
//   * "bdd-limit" — BddManagers built by the armed task get a tiny node
//     cap, forcing the genuine node-limit machinery to fire;
//   * "deadline" — the armed task's deadline is created already expired,
//     so its first checkpoint fails through the real deadline path;
//   * process-level sites consumed by the shard supervisor (shard/
//     supervisor.hpp), where the ordinal is a *global circuit index* and
//     the fault fires in the worker process that owns that circuit:
//     "worker-abort" calls std::abort() (SIGABRT), "worker-oom" raises
//     SIGKILL (the un-catchable OOM-killer shape), "worker-hang" stops
//     heartbeating and sleeps until the supervisor's heartbeat timeout
//     kills the worker, "worker-bloat" allocates and holds a ~160 MiB
//     ballast across several heartbeat periods so the --mem-limit-mb
//     watermarks trip. These sites never match an in-process checkpoint
//     name, so they are inert outside sharded runs.

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/metrics.hpp"

namespace minpower {

/// Default BddManager node cap (synthesis-sized circuits stay far below).
inline constexpr std::size_t kDefaultBddNodeLimit = 60'000'000;

/// Node cap forced by a "bdd-limit" fault injection: big enough to build
/// the terminals and a few variables, small enough that a BDD pass over
/// all but the smallest networks blows through it (a small source network
/// may fit, while its decomposed subject does not).
inline constexpr std::size_t kInjectedBddNodeLimit = 64;

/// A resource limit was exceeded. Catchable and recoverable: callers retry
/// with a smaller budget, fall back to a cheaper estimator, or record the
/// task as failed — they do not die.
class ResourceExhausted : public std::runtime_error {
 public:
  ResourceExhausted(std::string site, const std::string& what)
      : std::runtime_error(what), site_(std::move(site)) {}

  /// Stable identifier of the limit that fired ("bdd-limit", "deadline",
  /// "exact-overrun", or the checkpoint name for injected faults).
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// One armed fault: fire at `site` in the task with deterministic id
/// `ordinal`.
struct FaultInjection {
  std::string site;
  long ordinal = 0;
};

/// Parse "<site>:<ordinal>[,<site>:<ordinal>...]". Throws
/// std::runtime_error on malformed input (typos should fail fast, not
/// silently disarm a CI fault test).
inline std::vector<FaultInjection> parse_fault_injections(
    std::string_view spec) {
  std::vector<FaultInjection> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= item.size())
      throw std::runtime_error("bad fault injection '" + std::string(item) +
                               "' (want <site>:<ordinal>)");
    FaultInjection f;
    f.site = std::string(item.substr(0, colon));
    const std::string nth(item.substr(colon + 1));
    std::size_t used = 0;
    try {
      f.ordinal = std::stol(nth, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != nth.size() || f.ordinal < 0)
      throw std::runtime_error("bad fault injection ordinal '" + nth + "'");
    out.push_back(std::move(f));
  }
  return out;
}

/// Read MINPOWER_INJECT_FAULT afresh (no caching — tests set and clear the
/// variable between runs in one process).
inline std::vector<FaultInjection> fault_injections_from_env() {
  const char* spec = std::getenv("MINPOWER_INJECT_FAULT");
  if (spec == nullptr || spec[0] == '\0') return {};
  return parse_fault_injections(spec);
}

class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  /// BDD node cap applied to every BddManager built while this budget is
  /// current.
  std::size_t bdd_node_limit = kDefaultBddNodeLimit;

  /// Wall-clock deadline; Clock::time_point::max() = none.
  Clock::time_point deadline = Clock::time_point::max();

  /// Checkpoint-count cap; 0 = unlimited.
  std::size_t step_limit = 0;

  /// Deterministic task id used for fault-injection matching (-1 = no
  /// injection can match).
  long ordinal = -1;

  /// Human-readable owner ("alu2/activity[1]"), reported in diagnostics.
  std::string label;

  /// Arm every injection whose ordinal matches this budget. A "deadline"
  /// injection expires the deadline immediately so the next checkpoint
  /// fails through the genuine deadline path.
  void arm(const std::vector<FaultInjection>& table) {
    for (const FaultInjection& f : table) {
      if (f.ordinal != ordinal) continue;
      armed_.push_back(f.site);
      if (f.site == "deadline") deadline = Clock::now() - std::chrono::hours(1);
    }
  }

  bool injected(std::string_view site) const {
    for (const std::string& s : armed_)
      if (s == site) return true;
    return false;
  }

  std::size_t steps() const { return steps_; }

  /// One unit of forward progress at `site`. Throws ResourceExhausted when
  /// the step budget or the deadline is exhausted, or when a fault is
  /// injected at this site.
  void checkpoint(const char* site) {
    ++steps_;
    if (step_limit != 0 && steps_ > step_limit)
      throw ResourceExhausted(
          site, label + ": step budget exhausted (" +
                    std::to_string(step_limit) + " checkpoints) at " + site);
    if (deadline != Clock::time_point::max() && Clock::now() > deadline)
      throw ResourceExhausted(
          "deadline", label + ": deadline exceeded after " +
                          std::to_string(steps_) + " checkpoints at " + site);
    if (injected(site))
      throw ResourceExhausted(
          site, label + ": injected fault at " + site + ":" +
                    std::to_string(ordinal));
  }

  /// The budget governing the calling thread's current task, or nullptr.
  static Budget* current() { return current_slot(); }

 private:
  friend class BudgetScope;
  static Budget*& current_slot() {
    thread_local Budget* current = nullptr;
    return current;
  }

  std::vector<std::string> armed_;
  std::size_t steps_ = 0;
};

/// RAII: makes `b` the calling thread's current budget; restores the
/// previous one (nesting supported).
class BudgetScope {
 public:
  explicit BudgetScope(Budget& b) : prev_(Budget::current_slot()) {
    Budget::current_slot() = &b;
  }
  ~BudgetScope() { Budget::current_slot() = prev_; }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  Budget* prev_;
};

/// Checkpoint against the current budget, if any. Every call also bumps the
/// per-site metrics counter `budget.checkpoint.<site>` (a progress measure
/// that is deterministic across thread counts), budget or not.
inline void budget_checkpoint(const char* site) {
  metrics::count_checkpoint(site);
  if (Budget* b = Budget::current()) b->checkpoint(site);
}

}  // namespace minpower
