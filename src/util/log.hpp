#pragma once
// Leveled, mutex-serialized stderr logger for the long-running layers
// (serve, shard supervisor). Replaces ad-hoc fprintf diagnostics so chaos
// tests and operators get parseable output:
//
//   [shard:info] worker 3 (pid 712) started, circuits 12..17
//
// One line per call, written with a single fwrite under a process-wide
// mutex, so concurrent connection handlers and the supervisor loop never
// interleave bytes. Level is `[component:level]`-tagged and gated by
// MINPOWER_LOG_LEVEL (error|warn|info|debug, or 0–3), default info; the
// env is read once at first use, set_level() overrides at runtime.
// Canonical stdout artifacts (reports, traces, exposition) never go
// through here — this is diagnostics only.

#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

namespace minpower::logging {

enum class Level : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

inline const char* level_name(Level l) {
  switch (l) {
    case Level::kError: return "error";
    case Level::kWarn: return "warn";
    case Level::kInfo: return "info";
    case Level::kDebug: return "debug";
  }
  return "?";
}

namespace log_detail {

inline Level level_from_env() {
  const char* env = std::getenv("MINPOWER_LOG_LEVEL");
  if (!env || !*env) return Level::kInfo;
  if (std::isdigit(static_cast<unsigned char>(env[0]))) {
    const long n = std::strtol(env, nullptr, 10);
    if (n <= 0) return Level::kError;
    if (n >= 3) return Level::kDebug;
    return static_cast<Level>(n);
  }
  std::string s(env);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "error") return Level::kError;
  if (s == "warn" || s == "warning") return Level::kWarn;
  if (s == "debug") return Level::kDebug;
  return Level::kInfo;
}

inline std::atomic<int>& level_slot() {
  static std::atomic<int> slot{static_cast<int>(level_from_env())};
  return slot;
}

inline std::mutex& mu() {
  static std::mutex m;
  return m;
}

}  // namespace log_detail

inline Level level() {
  return static_cast<Level>(
      log_detail::level_slot().load(std::memory_order_relaxed));
}
inline void set_level(Level l) {
  log_detail::level_slot().store(static_cast<int>(l),
                                 std::memory_order_relaxed);
}
inline bool enabled(Level l) {
  return static_cast<int>(l) <= static_cast<int>(level());
}

inline void vlogf(Level l, const char* component, const char* fmt,
                  va_list ap) {
  char msg[1024];
  std::vsnprintf(msg, sizeof msg, fmt, ap);
  char line[1200];
  const int n = std::snprintf(line, sizeof line, "[%s:%s] %s\n", component,
                              level_name(l), msg);
  if (n <= 0) return;
  std::lock_guard<std::mutex> lock(log_detail::mu());
  std::fwrite(line, 1, static_cast<std::size_t>(n) < sizeof line
                           ? static_cast<std::size_t>(n)
                           : sizeof line - 1,
              stderr);
}

#if defined(__GNUC__) || defined(__clang__)
#define MP_LOG_PRINTF(fmt_idx, arg_idx) \
  __attribute__((format(printf, fmt_idx, arg_idx)))
#else
#define MP_LOG_PRINTF(fmt_idx, arg_idx)
#endif

inline void logf(Level l, const char* component, const char* fmt, ...)
    MP_LOG_PRINTF(3, 4);
inline void logf(Level l, const char* component, const char* fmt, ...) {
  if (!enabled(l)) return;
  va_list ap;
  va_start(ap, fmt);
  vlogf(l, component, fmt, ap);
  va_end(ap);
}

}  // namespace minpower::logging
