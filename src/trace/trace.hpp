#pragma once
// RAII span tracer with Chrome trace-event / Perfetto JSON export
// (DESIGN.md §10).
//
//   trace::set_enabled(true);
//   {
//     trace::Span s("map", "map");
//     s.arg("circuit", net.name());
//     ... work ...
//   }  // span recorded on scope exit
//   std::ofstream os("out.trace.json");
//   trace::write_chrome_trace(os);
//
// Cost model: when tracing is off a Span constructor is one relaxed atomic
// load and a branch — no strings are materialized, no clock is read. When
// on, each thread appends finished spans to its own buffer (registered once
// under a mutex, then written lock-free by its owning thread), so there is
// no cross-thread contention on the hot path.
//
// Export contract: call write_chrome_trace()/clear()/num_events()/
// snapshot_events() only after the traced worker threads have been joined
// and all spans have closed (thread join is the synchronization point that
// makes the buffers safe to read). FlowSession joins its pool before
// returning, so exporting after run_suite() is always safe.
//
// Chrome trace-event JSON is the one encoding ({"traceEvents":[...]}):
// `ph:"X"` complete events carrying ts/dur in microseconds plus pid/tid and
// an args object, `ph:"i"` process-scoped instant events (trace::Instant —
// supervisor lifecycle marks), `ph:"C"` counter samples, and `ph:"M"`
// metadata naming the processes and threads. Open it at chrome://tracing
// or https://ui.perfetto.dev. write_merged_chrome_trace() renders a set of
// ProcessLanes; write_chrome_trace() is its one-lane (pid 1) case, and a
// shard worker ships its own lane over the pipe in the same form
// (trace/wire.hpp decodes it, DESIGN.md §15).
//
// Timebase: set_enabled(true) pins the tracer origin, so the first span of
// a run starts after it. The origin is sampled from CLOCK_MONOTONIC
// (system-wide) and fork() inherits the singleton, so a worker forked after
// tracing was enabled stamps microseconds directly comparable to the
// supervisor's.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/cold.hpp"
#include "util/json_writer.hpp"

namespace minpower::trace {

inline std::atomic<bool> g_enabled{false};

inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// One span argument; the value keeps its native type so the exporter can
/// emit JSON numbers as numbers.
struct Arg {
  enum class Kind { kString, kDouble, kInt, kUint };
  std::string key;
  Kind kind = Kind::kString;
  std::string s;
  double d = 0.0;
  long long i = 0;
  unsigned long long u = 0;
};

/// A finished span (`ph:"X"`), instant mark (`ph:"i"`, dur ignored), or
/// counter sample (`ph:"C"`, numeric args become the counter series): times
/// are microseconds since the tracer origin.
struct Event {
  std::string name;
  std::string cat;
  char ph = 'X';
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::vector<Arg> args;
};

namespace detail {

inline void add_arg(Event& e, std::string_view key, std::string_view value) {
  Arg a;
  a.key.assign(key.data(), key.size());
  a.kind = Arg::Kind::kString;
  a.s.assign(value.data(), value.size());
  e.args.push_back(std::move(a));
}
inline void add_arg(Event& e, std::string_view key, double value) {
  Arg a;
  a.key.assign(key.data(), key.size());
  a.kind = Arg::Kind::kDouble;
  a.d = value;
  e.args.push_back(std::move(a));
}
inline void add_arg(Event& e, std::string_view key, long long value) {
  Arg a;
  a.key.assign(key.data(), key.size());
  a.kind = Arg::Kind::kInt;
  a.i = value;
  e.args.push_back(std::move(a));
}
inline void add_arg(Event& e, std::string_view key,
                    unsigned long long value) {
  Arg a;
  a.key.assign(key.data(), key.size());
  a.kind = Arg::Kind::kUint;
  a.u = value;
  e.args.push_back(std::move(a));
}

inline std::uint64_t to_us(std::chrono::steady_clock::duration d) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

}  // namespace detail

/// One thread's lane of a (possibly remote) process: `tid` is the exporting
/// tracer's thread id, events are in record order.
struct ThreadEvents {
  int tid = 0;
  std::vector<Event> events;
};

/// Everything one process contributes to a merged trace.
struct ProcessLane {
  int pid = 1;
  std::string name;  // process_name metadata, e.g. "worker-2 (pid 714)"
  std::vector<ThreadEvents> threads;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  Clock::time_point origin() const { return origin_; }

  MP_TRACE_COLD void record(Event e) {
    local_buffer().events.push_back(std::move(e));
  }

  /// Total recorded events; see the export contract above.
  MP_TRACE_COLD std::size_t num_events() {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->events.size();
    return n;
  }

  /// Drop all recorded events (buffers stay registered).
  MP_TRACE_COLD void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) b->events.clear();
  }

  /// Copy of every recorded event, grouped per thread in tid order — the
  /// unit a shard worker ships over the pipe and the supervisor merges into
  /// one file. Same export contract as write_chrome_trace.
  MP_TRACE_COLD std::vector<ThreadEvents> snapshot_events() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ThreadEvents> out;
    for (const auto& b : buffers_)
      if (!b->events.empty()) out.push_back(ThreadEvents{b->tid, b->events});
    std::sort(out.begin(), out.end(),
              [](const ThreadEvents& a, const ThreadEvents& b) {
                return a.tid < b.tid;
              });
    return out;
  }

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::vector<Event> events;
  };

  Tracer() : origin_(Clock::now()) {}

  /// The calling thread's buffer, registered on first use. The registry
  /// holds a shared_ptr so events survive thread exit until export.
  MP_TRACE_COLD ThreadBuffer& local_buffer() {
    thread_local std::shared_ptr<ThreadBuffer> buf;
    if (!buf) {
      buf = std::make_shared<ThreadBuffer>();
      std::lock_guard<std::mutex> lock(mu_);
      buf->tid = next_tid_++;
      buffers_.push_back(buf);
    }
    return *buf;
  }

  Clock::time_point origin_;
  std::mutex mu_;
  int next_tid_ = 1;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// Tracing turns on and off process-wide; turning it on constructs the
/// tracer, which pins the origin every later timestamp is measured from.
inline void set_enabled(bool on) {
  if (on) (void)Tracer::instance();
  g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

/// What Span and Instant share: the enabled check and the clock read, made
/// once at construction, and the typed arg overloads, each a no-op when the
/// check failed.
class EventBuilder {
 public:
  EventBuilder(const EventBuilder&) = delete;
  EventBuilder& operator=(const EventBuilder&) = delete;

  bool active() const { return active_; }

  MP_TRACE_OUTLINE void arg(std::string_view key, std::string_view value) {
    if (active_) add_arg(event_, key, value);
  }
  void arg(std::string_view key, const char* value) {
    arg(key, std::string_view(value));
  }
  void arg(std::string_view key, const std::string& value) {
    arg(key, std::string_view(value));
  }
  MP_TRACE_OUTLINE void arg(std::string_view key, double value) {
    if (active_) add_arg(event_, key, value);
  }
  MP_TRACE_OUTLINE void arg(std::string_view key, long long value) {
    if (active_) add_arg(event_, key, value);
  }
  MP_TRACE_OUTLINE void arg(std::string_view key, unsigned long long value) {
    if (active_) add_arg(event_, key, value);
  }
  void arg(std::string_view key, int value) {
    arg(key, static_cast<long long>(value));
  }
  void arg(std::string_view key, long value) {
    arg(key, static_cast<long long>(value));
  }
  void arg(std::string_view key, unsigned value) {
    arg(key, static_cast<unsigned long long>(value));
  }
  void arg(std::string_view key, unsigned long value) {
    arg(key, static_cast<unsigned long long>(value));
  }

 protected:
  EventBuilder(std::string_view name, std::string_view cat, char ph)
      : active_(enabled()) {
    if (active_) begin(name, cat, ph);
  }
  ~EventBuilder() = default;

  bool active_;
  Tracer::Clock::time_point start_{};
  Event event_;

 private:
  MP_TRACE_COLD void begin(std::string_view name, std::string_view cat,
                           char ph) {
    event_.name.assign(name.data(), name.size());
    event_.cat.assign(cat.data(), cat.size());
    event_.ph = ph;
    start_ = Tracer::Clock::now();
  }
};

}  // namespace detail

/// RAII span: times the enclosing scope and records a `ph:"X"` event on
/// destruction. A no-op (one relaxed load, no allocation) when tracing is
/// disabled; the enabled check happens once, at construction.
class Span : public detail::EventBuilder {
 public:
  Span(std::string_view name, std::string_view cat)
      : EventBuilder(name, cat, 'X') {}

  ~Span() {
    if (active_) finish();
  }

 private:
  MP_TRACE_COLD void finish() {
    const auto end = Tracer::Clock::now();
    Tracer& t = Tracer::instance();
    // Floor both endpoints against the origin and difference them: flooring
    // is monotonic, so a child span can never appear to outlive its parent
    // by a truncated microsecond.
    event_.ts_us = detail::to_us(start_ - t.origin());
    event_.dur_us = detail::to_us(end - t.origin()) - event_.ts_us;
    t.record(std::move(event_));
  }
};

/// RAII instant mark: records a process-scoped `ph:"i"` event stamped at
/// construction time; args may be attached before the scope closes. Used
/// for supervisor lifecycle marks (worker start, heartbeat timeout,
/// restart, …). Same disabled-cost contract as Span.
class Instant : public detail::EventBuilder {
 public:
  Instant(std::string_view name, std::string_view cat)
      : EventBuilder(name, cat, 'i') {}

  ~Instant() {
    if (active_) finish();
  }

 private:
  MP_TRACE_COLD void finish() {
    Tracer& t = Tracer::instance();
    event_.ts_us = detail::to_us(start_ - t.origin());
    t.record(std::move(event_));
  }
};

inline std::size_t num_events() { return Tracer::instance().num_events(); }
inline void clear() { Tracer::instance().clear(); }
inline std::vector<ThreadEvents> snapshot_events() {
  return Tracer::instance().snapshot_events();
}

namespace detail {

/// One Chrome trace-event object (`ph:"X"` complete, `ph:"i"` instant at
/// process scope, or `ph:"C"` counter sample) under the given pid/tid
/// lane.
inline void write_event_json(JsonWriter& w, const Event& e, int pid, int tid) {
  w.begin_object();
  w.field("name", e.name);
  w.field("cat", e.cat);
  if (e.ph == 'i') {
    w.field("ph", "i");
    w.field("s", "p");
    w.field("ts", static_cast<unsigned long long>(e.ts_us));
  } else if (e.ph == 'C') {
    w.field("ph", "C");
    w.field("ts", static_cast<unsigned long long>(e.ts_us));
  } else {
    w.field("ph", "X");
    w.field("ts", static_cast<unsigned long long>(e.ts_us));
    w.field("dur", static_cast<unsigned long long>(e.dur_us));
  }
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("args");
  w.begin_object();
  for (const Arg& a : e.args) {
    w.key(a.key);
    switch (a.kind) {
      case Arg::Kind::kString: w.value(a.s); break;
      case Arg::Kind::kDouble: w.value(a.d); break;
      case Arg::Kind::kInt: w.value(a.i); break;
      case Arg::Kind::kUint: w.value(a.u); break;
    }
  }
  w.end_object();
  w.end_object();
}

inline void write_metadata(JsonWriter& w, const char* name, int pid, int tid,
                           const std::string& value) {
  w.begin_object();
  w.field("name", name);
  w.field("ph", "M");
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("args");
  w.begin_object();
  w.field("name", value);
  w.end_object();
  w.end_object();
}

}  // namespace detail

/// Render a set of per-process event lists (the local tracer's snapshot
/// plus lanes shipped from remote workers) into one Chrome trace-event
/// file: per-lane process_name/thread_name metadata, then every event under
/// its owning pid/tid.
MP_TRACE_COLD inline void write_merged_chrome_trace(
    std::ostream& os, const std::vector<ProcessLane>& lanes) {
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const ProcessLane& p : lanes) {
    detail::write_metadata(w, "process_name", p.pid, /*tid=*/0,
                           p.name.empty() ? "minpower" : p.name);
    for (const ThreadEvents& t : p.threads)
      detail::write_metadata(w, "thread_name", p.pid, t.tid,
                             "thread-" + std::to_string(t.tid));
  }
  for (const ProcessLane& p : lanes)
    for (const ThreadEvents& t : p.threads)
      for (const Event& e : t.events)
        detail::write_event_json(w, e, p.pid, t.tid);
  w.end_array();
  w.end_object();
  os << '\n';
}

/// Emit everything recorded so far as a one-lane (pid 1) Chrome trace.
inline void write_chrome_trace(std::ostream& os) {
  write_merged_chrome_trace(os, {ProcessLane{1, {}, snapshot_events()}});
}

}  // namespace minpower::trace
