#pragma once
// Structured JSONL access log for `minpower serve` (DESIGN.md §15) —
// `--access-log <path>` appends exactly one JSON object per request line
// handled by a connection worker:
//
//   {"id":7,"peer":"127.0.0.1:51324","verb":"FLOW","bytes_in":143,
//    "bytes_out":2048,"outcome":"ok","wall_us":1234,"hits":12,"misses":0,
//    "prepared":true}
//
// `id` is the server's monotonic request counter (shared with STATS), so a
// log line can be correlated with the `request` trace span carrying the
// same request_id. `bytes_in` counts the FLOW payload (0 for verbs without
// bodies), `bytes_out` the response body. `outcome` is "ok" for answered
// requests, "error" for ERR responses, and the connection verbs report
// themselves ("pong", "quit", "shutdown"). `prepared` is true when a FLOW
// body was answered from the prepared-network memo (no parse, no
// rugged-lite; serve/server.hpp). One line is built in memory and
// appended with a single mutex-serialized fwrite + flush, so concurrent
// workers never interleave bytes and a crashed server keeps every answered
// request's record. Disabled (all calls no-ops) unless open() succeeded.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>

#include "util/json_writer.hpp"

namespace minpower::serve {

class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog() {
    if (file_ != nullptr) std::fclose(file_);
  }

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Open (append) the log file. False with `error` on failure; the log
  /// then stays disabled rather than taking the server down.
  bool open(const std::string& path, std::string* error) {
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
      if (error != nullptr)
        *error = "cannot open access log " + path + ": " +
                 std::strerror(errno);
      return false;
    }
    return true;
  }

  bool enabled() const { return file_ != nullptr; }

  struct Entry {
    std::uint64_t id = 0;
    std::string peer;
    std::string verb;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::string outcome;  // "ok" / "error" / "pong" / "quit" / "shutdown"
    std::uint64_t wall_us = 0;
    std::uint64_t hits = 0;    // session cache hits (FLOW only)
    std::uint64_t misses = 0;  // session cache misses (FLOW only)
    bool prepared = false;     // prepared-network memo hit (FLOW only)
  };

  void write(const Entry& e) {
    if (file_ == nullptr) return;
    std::ostringstream line;
    {
      JsonWriter w(line, /*pretty=*/false);
      w.begin_object();
      w.field("id", e.id);
      w.field("peer", e.peer);
      w.field("verb", e.verb);
      w.field("bytes_in", e.bytes_in);
      w.field("bytes_out", e.bytes_out);
      w.field("outcome", e.outcome);
      w.field("wall_us", e.wall_us);
      w.field("hits", e.hits);
      w.field("misses", e.misses);
      w.field("prepared", e.prepared);
      w.end_object();
    }
    line << '\n';
    const std::string text = line.str();
    std::lock_guard<std::mutex> lock(mu_);
    std::fwrite(text.data(), 1, text.size(), file_);
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
  std::mutex mu_;
};

}  // namespace minpower::serve
