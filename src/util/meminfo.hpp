#pragma once
// Minimal /proc/<pid>/status sampler for OS-level memory telemetry
// (DESIGN.md §16). Reads the kernel's own accounting of a process —
// VmRSS (current resident set) and VmHWM (resident high-water mark) —
// which is what the OOM killer actually judges, as opposed to the
// deterministic byte-accounted BDD arena gauges in the metrics registry.
//
// These values are inherently non-deterministic (allocator, kernel page
// accounting, ASLR); they must NEVER enter the metrics registry or the
// canonical flow report. They travel only into the shard_metrics sidecar
// `memory` block, ph:"C" trace counters, and bench trajectory records. The
// shard supervisor samples its workers here; the workers never sample
// themselves.

#include <cstdio>
#include <cstring>
#include <string>

namespace minpower {

struct MemSample {
  std::size_t rss_kb = 0;  // VmRSS: current resident set size
  std::size_t hwm_kb = 0;  // VmHWM: peak resident set size
};

namespace meminfo_detail {

inline bool sample_status_file(const char* path, MemSample* out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  MemSample s;
  bool saw_any = false;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long kb = 0;
    if (std::sscanf(line, "VmRSS: %lu", &kb) == 1) {
      s.rss_kb = kb;
      saw_any = true;
    } else if (std::sscanf(line, "VmHWM: %lu", &kb) == 1) {
      s.hwm_kb = kb;
      saw_any = true;
    }
    if (s.rss_kb != 0 && s.hwm_kb != 0) break;
  }
  std::fclose(f);
  if (!saw_any) return false;
  *out = s;
  return true;
}

}  // namespace meminfo_detail

/// Sample a process's memory from /proc/<pid>/status. Returns false (out
/// untouched) when the file is unreadable (process gone, non-Linux) or
/// neither field is present.
inline bool sample_process_memory(long pid, MemSample* out) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%ld/status", pid);
  return meminfo_detail::sample_status_file(path, out);
}

/// Sample the calling process (an in-process flow run's own peak).
inline bool sample_self_memory(MemSample* out) {
  return meminfo_detail::sample_status_file("/proc/self/status", out);
}

}  // namespace minpower
