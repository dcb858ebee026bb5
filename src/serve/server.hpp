#pragma once
// `minpower serve` — a persistent synthesis service over a line protocol
// (DESIGN.md §13).
//
// One caching FlowSession is shared by every request, so repeated or
// structurally identical circuits hit the session's method-result cache
// instead of recomputing. Concurrency comes from
// serving requests in parallel (each request runs the flow single-threaded);
// admission control is a bounded pending-connection queue — when it is full
// the server answers a structured busy error instead of queueing unbounded
// work — plus the per-request Budget deadline inherited from FlowOptions.
//
// Protocol (requests are '\n'-terminated ASCII header lines; FLOW carries a
// length-prefixed raw BLIF body):
//
//   PING                          → PONG
//   STATS                         → OK <nbytes>\n<minpower.serve.v1 stats>
//   METRICS                       → OK <nbytes>\n<Prometheus exposition>
//   FLOW <nbytes> [key=value ...] → OK <nbytes> hits=<h> misses=<m>\n<body>
//   <nbytes of BLIF>                (body: minpower.flow.v1 document)
//   SHUTDOWN                      → OK 0\n  (server begins shutdown)
//   QUIT                          → connection closed
//
// Prepared-network memo: parse plus rugged-lite is a pure function of the
// FLOW body bytes, so the server keeps the prepared Network of recent bodies
// in a bounded LRU (util/lru.hpp) keyed on a digest of the bytes. A hit is
// confirmed by comparing the stored bytes (the digest is not
// cryptographic) and runs the session on the stored network; per-request
// options still key the result cache. Bodies that fail to parse, and
// requests that throw, are never stored.
//
// Observability (DESIGN.md §15): every FLOW request runs under a `request`
// trace span (cat "serve", request_id arg) with memo/parse/session/render
// child phases (no parse on a memo hit) and cache hit/miss args;
// `--access-log` appends one JSONL object per request line
// (serve/access_log.hpp); METRICS scrapes the process metrics registry as
// Prometheus text exposition (trace/prometheus.hpp) without touching the
// STATS document.
//
// Recognized FLOW options: deadline_ms, bdd_limit, step_limit, vdd,
// t_cycle, po_load, style=static|dynp|dynn. Anything else is a structured
// error. Response bodies are rendered with wall times zeroed and without
// the metrics block, so identical requests yield byte-identical bodies.
//
// Errors (malformed header, oversized payload, bad option token, BLIF parse
// failure, failed flow) answer `ERR <nbytes>\n` + a minpower.serve.v1 error
// document and — whenever the request framing is still intact — keep the
// connection open for the next request. Load-condition errors (busy
// admission queue, graceful drain, idle reap) carry `"retryable": true` so
// clients know to back off and retry rather than give up.
//
// Lifecycle hardening: signal_drain() (async-signal-safe, wired to
// SIGTERM/SIGINT by the CLI) begins a graceful drain — stop accepting,
// finish in-flight requests, answer new ones with a retryable error, then
// release wait(). Connections idle past ServerOptions::idle_timeout_ms are
// reaped so leaked clients cannot pin worker slots.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "flow/session.hpp"
#include "serve/access_log.hpp"
#include "trace/metrics.hpp"
#include "util/hash.hpp"
#include "util/lru.hpp"

namespace minpower::serve {

class LineReader;  // net.hpp

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 → ephemeral; Server::port() has the result
  /// Request worker threads; each runs its request's flow single-threaded,
  /// so this is also the maximum number of in-flight syntheses.
  unsigned workers = 4;
  /// Accepted connections waiting for a worker; beyond this the server
  /// answers a busy error and closes (admission control).
  std::size_t max_pending = 64;
  /// FLOW payload cap; larger requests are rejected without reading.
  std::size_t max_request_bytes = 8u << 20;
  /// Reap connections idle longer than this (a leaked client otherwise pins
  /// a worker slot forever). 0 disables the reaper. The reaped connection
  /// is sent a structured, retryable error before closing.
  int idle_timeout_ms = 60'000;
  /// Per-request defaults; FLOW key=value tokens override per request.
  FlowOptions flow;
  SessionOptions session = {/*enable_cache=*/true};
  bool verbose = false;
  /// JSONL access log path ("" = disabled): one object per request line
  /// (serve/access_log.hpp) with the monotonic request id, peer, verb,
  /// byte counts, outcome, wall time, and cache hits/misses.
  std::string access_log;
};

/// Monotonic service totals (also mirrored into the metrics registry as
/// serve.* counters / gauges).
struct ServeStats {
  std::uint64_t requests = 0;         // header lines handled
  std::uint64_t flow_ok = 0;          // FLOW answered OK
  std::uint64_t errors = 0;           // ERR responses
  std::uint64_t busy_rejections = 0;  // connections refused at admission
  std::uint64_t idle_reaped = 0;      // connections closed by the reaper
  std::uint64_t drain_rejections = 0; // requests refused during drain
  std::uint64_t queue_depth_peak = 0;
  std::uint64_t inflight_peak = 0;
  std::uint64_t prepare_hits = 0;     // FLOW bodies served from the memo
  std::uint64_t prepare_misses = 0;   // FLOW bodies parsed afresh
};

/// Cap on the request bytes the prepared-network memo stores, summed over
/// its entries. Without it, hundreds of entries of up to max_request_bytes
/// each could pin gigabytes.
inline constexpr std::size_t kPreparedMemoBytes = std::size_t{64} << 20;

/// FLOW body bytes → the network try_read_blif_string + prepare_network
/// made of them, in a bounded LRU keyed on a StreamHash digest of the bytes.
class PreparedMemo {
 public:
  struct Entry {
    std::string bytes;
    Network net;
  };

  /// At most `max_entries` entries and kPreparedMemoBytes stored bytes.
  explicit PreparedMemo(std::size_t max_entries)
      : lru_(max_entries, kPreparedMemoBytes) {}

  static Hash128 digest(std::string_view bytes) {
    StreamHash h;
    h.str(bytes);
    return h.digest();
  }

  /// The entry stored under `key` if its bytes are exactly `bytes`. The
  /// digest is not cryptographic and the bytes come from clients, so the
  /// key alone never decides a hit.
  std::shared_ptr<const Entry> find(const Hash128& key,
                                    std::string_view bytes) {
    std::shared_ptr<const Entry> e = lru_.lookup(key);
    if (e && e->bytes != bytes) return nullptr;
    return e;
  }

  void insert(const Hash128& key, std::shared_ptr<const Entry> e) {
    const std::size_t weight = e->bytes.size();
    lru_.insert(key, std::move(e), weight);
  }

  std::size_t size() const { return lru_.size(); }
  std::size_t stored_bytes() const { return lru_.weight(); }

 private:
  LruCache<Entry> lru_;
};

class Server {
 public:
  explicit Server(const Library& lib, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept loop and workers. False (with
  /// `error`) if the socket setup fails; the server is then inert.
  bool start(std::string* error);

  /// The bound port (after start(); resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Stop accepting, drain queued connections, join all threads.
  /// Idempotent; also safe when start() failed or was never called.
  void stop();

  /// Block until a SHUTDOWN request (or a concurrent stop()) ends the
  /// server, then tear it down. Returns when all threads are joined.
  void wait();

  /// Begin a graceful drain: stop accepting, answer new requests on live
  /// connections with a structured retryable error, let in-flight requests
  /// finish, then release wait(). Async-signal-safe (one write to a
  /// self-pipe) — this is the SIGTERM/SIGINT handler's entry point.
  void signal_drain();

  /// True once a drain (signal_drain or stop) has begun.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  FlowSession& session() { return session_; }
  ServeStats stats() const;
  const PreparedMemo& memo() const { return memo_; }

 private:
  void accept_loop();
  void worker_loop();
  void drain_watch_loop();
  void serve_connection(int fd);
  bool handle_flow(int fd, LineReader& reader, const std::string& line,
                   AccessLog::Entry* acc);
  const Library& lib_;
  ServerOptions options_;
  FlowSession session_;
  /// One circuit fills six result rows, so the memo holds a sixth of the
  /// result cache's entries.
  PreparedMemo memo_;
  AccessLog access_log_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int drain_pipe_[2] = {-1, -1};  // self-pipe: signal handler → watcher
  std::mutex stop_mu_;  // serializes stop() (wait() vs destructor)
  std::thread accept_thread_;
  std::thread drain_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
  bool stopping_ = false;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> flow_ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> drain_rejections_{0};
  std::atomic<bool> draining_{false};
  metrics::Gauge queue_depth_peak_;
  std::atomic<std::uint64_t> inflight_{0};
  metrics::Gauge inflight_peak_;
  std::atomic<std::uint64_t> prepare_hits_{0};
  std::atomic<std::uint64_t> prepare_misses_{0};
};

}  // namespace minpower::serve
