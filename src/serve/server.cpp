#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "io/blif.hpp"
#include "serve/net.hpp"
#include "trace/metrics.hpp"
#include "trace/prometheus.hpp"
#include "trace/trace.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace minpower::serve {

namespace {

constexpr std::size_t kMaxHeaderLine = 4096;

/// `ERR <nbytes>\n` + minpower.serve.v1 error body. `line` carries the BLIF
/// parser's line number (0 elsewhere). `retryable` marks load conditions
/// (busy queue, drain, idle reap) the client may retry after a backoff, as
/// opposed to caller mistakes that would fail identically again.
std::string render_error(const std::string& message, int line,
                         bool retryable) {
  std::ostringstream body;
  {
    JsonWriter w(body);
    w.begin_object();
    w.field("schema", "minpower.serve.v1");
    w.field("status", "error");
    w.key("error");
    w.begin_object();
    w.field("message", message);
    w.field("line", line);
    w.field("retryable", retryable);
    w.end_object();
    w.end_object();
  }
  body << '\n';
  return body.str();
}

bool send_error(int fd, const std::string& message, int line = 0,
                bool retryable = false) {
  const std::string body = render_error(message, line, retryable);
  // One send per response: a header segment alone would sit in the Nagle
  // buffer waiting for the client's delayed ACK.
  return send_all(fd, "ERR " + std::to_string(body.size()) + "\n" + body);
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream in(line);
  std::string t;
  while (in >> t) toks.push_back(std::move(t));
  return toks;
}

/// Apply one FLOW `key=value` token onto the request's FlowOptions.
bool apply_option(const std::string& token, FlowOptions* flow,
                  std::string* error) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    *error = "bad option token '" + token + "' (want key=value)";
    return false;
  }
  const std::string key = token.substr(0, eq);
  const std::string val = token.substr(eq + 1);
  auto bad_value = [&] {
    *error = "bad value '" + val + "' for option " + key;
    return false;
  };
  // A real value must parse and lie in its option's domain: `min` is the
  // smallest accepted value, exclusive when `open`.
  const auto real = [&val](double* out, double min, bool open) {
    const std::optional<double> v = parse_number<double>(val);
    if (!v || *v < min || (open && *v == min)) return false;
    *out = *v;
    return true;
  };
  const std::optional<std::uint64_t> u = parse_number<std::uint64_t>(val);
  if (key == "deadline_ms") {
    if (!real(&flow->task_deadline_ms, 0.0, false)) return bad_value();
  } else if (key == "bdd_limit") {
    if (!u || *u == 0) return bad_value();
    flow->bdd_node_limit = *u;
  } else if (key == "step_limit") {
    if (!u) return bad_value();
    flow->task_step_limit = *u;
  } else if (key == "map_curve_cap") {
    if (!u) return bad_value();
    flow->max_curve_points = *u;
  } else if (key == "vdd") {
    if (!real(&flow->vdd, 0.0, true)) return bad_value();
  } else if (key == "t_cycle") {
    if (!real(&flow->t_cycle, 0.0, true)) return bad_value();
  } else if (key == "po_load") {
    if (!real(&flow->po_load, 0.0, false)) return bad_value();
  } else if (key == "style") {
    if (val == "static") flow->style = CircuitStyle::kStatic;
    else if (val == "dynp") flow->style = CircuitStyle::kDynamicP;
    else if (val == "dynn") flow->style = CircuitStyle::kDynamicN;
    else return bad_value();
  } else {
    *error = "unknown option '" + key + "'";
    return false;
  }
  return true;
}

}  // namespace

Server::Server(const Library& lib, ServerOptions options)
    : lib_(lib),
      options_(std::move(options)),
      session_(
          lib,
          EngineOptions{options_.flow, /*num_threads=*/1, {},
                        options_.verbose},
          options_.session) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  };
  if (!options_.access_log.empty()) {
    std::string log_error;
    if (!access_log_.open(options_.access_log, &log_error))
      return fail(log_error);
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail(std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    return fail("invalid host address " + options_.host);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return fail("bind " + options_.host + ":" +
                std::to_string(options_.port) + ": " + std::strerror(errno));
  if (::listen(listen_fd_, 128) != 0) return fail(std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0)
    return fail(std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  if (::pipe(drain_pipe_) != 0) return fail(std::strerror(errno));

  const unsigned workers = options_.workers != 0 ? options_.workers : 1;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  drain_thread_ = std::thread([this] { drain_watch_loop(); });
  return true;
}

void Server::signal_drain() {
  // Async-signal-safe: one write to the self-pipe; the watcher thread does
  // everything that needs locks.
  if (drain_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
  }
}

void Server::drain_watch_loop() {
  char byte = 0;
  for (;;) {
    const ssize_t n = ::read(drain_pipe_[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // write end closed: server is stopping anyway
    draining_.store(true, std::memory_order_release);
    // Deliberately keep the listener open: connections already past the TCP
    // handshake but still in the backlog must be accepted and answered with
    // the structured retryable refusal, not dropped with a raw EOF. The
    // accept loop refuses everything while draining_; stop() (reached once
    // wait() releases below) is what actually tears the listener down.
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      shutdown_requested_ = true;
    }
    wait_cv_.notify_all();
  }
}

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_ && listen_fd_ < 0 && workers_.empty()) return;
    stopping_ = true;
  }
  draining_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown() first, then close.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  // Wake the drain watcher (EOF on the self-pipe) and join it before the
  // workers so no drain transition races the teardown.
  if (drain_pipe_[1] >= 0) {
    close_fd(drain_pipe_[1]);
    drain_pipe_[1] = -1;
  }
  if (drain_thread_.joinable()) drain_thread_.join();
  close_fd(drain_pipe_[0]);
  drain_pipe_[0] = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  close_fd(listen_fd_);
  listen_fd_ = -1;
  // Reject anything still queued (accepted but never served).
  std::deque<int> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    orphans.swap(pending_);
  }
  for (const int fd : orphans) {
    send_error(fd, "server shutting down", 0, /*retryable=*/true);
    close_fd(fd);
  }
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    shutdown_requested_ = true;
  }
  wait_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    wait_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  stop();
}

ServeStats Server::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.flow_ok = flow_ok_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.drain_rejections = drain_rejections_.load(std::memory_order_relaxed);
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.inflight_peak = inflight_peak_.load(std::memory_order_relaxed);
  return s;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) {
        if (fd >= 0) close_fd(fd);
        return;
      }
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener gone
    }
    set_nodelay(fd);
    if (draining_.load(std::memory_order_acquire)) {
      // Accept raced the drain transition: structured retryable refusal.
      drain_rejections_.fetch_add(1, std::memory_order_relaxed);
      send_error(fd, "server draining; retry later", 0, /*retryable=*/true);
      close_fd(fd);
      continue;
    }
    bool admitted = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.max_pending) {
        pending_.push_back(fd);
        depth = pending_.size();
        admitted = true;
      }
    }
    if (!admitted) {
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("serve.busy_rejections").add(1);
      send_error(fd, "server busy: pending queue full", 0,
                 /*retryable=*/true);
      close_fd(fd);
      continue;
    }
    std::uint64_t peak = queue_depth_peak_.load(std::memory_order_relaxed);
    while (depth > peak && !queue_depth_peak_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
    metrics::gauge("serve.queue_depth_peak").record_max(depth);
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping, nothing left to drain
      fd = pending_.front();
      pending_.pop_front();
    }
    const std::uint64_t inflight =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = inflight_peak_.load(std::memory_order_relaxed);
    while (inflight > peak && !inflight_peak_.compare_exchange_weak(
                                  peak, inflight, std::memory_order_relaxed)) {
    }
    metrics::gauge("serve.inflight_peak").record_max(inflight);
    serve_connection(fd);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::serve_connection(int fd) {
  LineReader reader(fd);
  const std::string peer = peer_name(fd);
  // Short recv ticks: a blocked read wakes every tick so the connection can
  // notice a drain and the idle reaper can fire. The tick is a fraction of
  // the idle timeout so short test timeouts stay accurate.
  const int idle_ms = options_.idle_timeout_ms;
  int tick_ms = 250;
  if (idle_ms > 0) tick_ms = std::clamp(idle_ms / 4, 10, 250);
  set_recv_timeout(fd, tick_ms);
  auto last_activity = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) break;
    }
    std::string line;
    const LineReader::Status s = reader.read_line(&line, kMaxHeaderLine);
    if (s == LineReader::Status::kTimeout) {
      if (draining_.load(std::memory_order_acquire)) {
        // A request sent from here on would go unanswered; tell the idle
        // client to come back once the server is, instead of going silent.
        drain_rejections_.fetch_add(1, std::memory_order_relaxed);
        send_error(fd, "server draining; retry later", 0, /*retryable=*/true);
        break;
      }
      if (idle_ms > 0 && std::chrono::steady_clock::now() - last_activity >
                             std::chrono::milliseconds(idle_ms)) {
        idle_reaped_.fetch_add(1, std::memory_order_relaxed);
        metrics::counter("serve.idle_reaped").add(1);
        send_error(fd,
                   "idle connection reaped after " + std::to_string(idle_ms) +
                       " ms",
                   0, /*retryable=*/true);
        break;
      }
      continue;
    }
    last_activity = std::chrono::steady_clock::now();
    if (s == LineReader::Status::kOverflow) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("serve.errors").add(1);
      send_error(fd, "header line too long");
      break;
    }
    if (s != LineReader::Status::kOk) break;  // EOF / peer gone
    const std::uint64_t rid =
        requests_.fetch_add(1, std::memory_order_relaxed) + 1;
    metrics::counter("serve.requests").add(1);
    const std::string verb = line.substr(0, line.find(' '));
    logging::logf(options_.verbose ? logging::Level::kInfo
                                   : logging::Level::kDebug,
                  "serve", "#%llu %s from %s",
                  static_cast<unsigned long long>(rid), verb.c_str(),
                  peer.c_str());

    AccessLog::Entry acc;
    acc.id = rid;
    acc.peer = peer;
    acc.verb = verb;
    const auto req_start = std::chrono::steady_clock::now();
    bool keep = true;
    {
      trace::Span req_span("request", "serve");
      req_span.arg("request_id", static_cast<long long>(rid));
      req_span.arg("verb", verb);

      if (line == "PING") {
        acc.outcome = "pong";
        acc.bytes_out = 5;
        keep = send_all(fd, "PONG\n");
      } else if (line == "QUIT") {
        acc.outcome = "quit";
        keep = false;
      } else if (line == "SHUTDOWN") {
        send_all(fd, "OK 0\n");
        acc.outcome = "shutdown";
        acc.bytes_out = 5;
        {
          std::lock_guard<std::mutex> lock(wait_mu_);
          shutdown_requested_ = true;
        }
        wait_cv_.notify_all();
        keep = false;
      } else if (line == "STATS") {
        const ServeStats st = stats();
        const SessionStats ss = session_.stats();
        std::ostringstream body;
        {
          JsonWriter w(body);
          w.begin_object();
          w.field("schema", "minpower.serve.v1");
          w.field("status", "ok");
          w.key("serve");
          w.begin_object();
          w.field("requests", st.requests);
          w.field("flow_ok", st.flow_ok);
          w.field("errors", st.errors);
          w.field("busy_rejections", st.busy_rejections);
          w.field("idle_reaped", st.idle_reaped);
          w.field("drain_rejections", st.drain_rejections);
          w.field("queue_depth_peak", st.queue_depth_peak);
          w.field("inflight_peak", st.inflight_peak);
          w.end_object();
          w.key("session");
          w.begin_object();
          w.field("result_hits", ss.result_hits);
          w.field("result_misses", ss.result_misses);
          w.field("evictions", ss.evictions);
          w.end_object();
          w.end_object();
        }
        body << '\n';
        const std::string text = body.str();
        acc.outcome = "ok";
        acc.bytes_out = text.size();
        keep = send_all(fd, "OK " + std::to_string(text.size()) + "\n" + text);
      } else if (line == "METRICS") {
        // Live Prometheus scrape of the process registry. Deliberately a
        // separate verb: STATS stays the stable JSON document, METRICS the
        // exposition-format view of every serve.*/bdd.*/flow.* series.
        std::ostringstream body;
        trace::write_prometheus(body, metrics::Registry::global().snapshot());
        const std::string text = body.str();
        acc.outcome = "ok";
        acc.bytes_out = text.size();
        keep = send_all(fd, "OK " + std::to_string(text.size()) + "\n" + text);
      } else if (line.rfind("FLOW ", 0) == 0 || line == "FLOW") {
        keep = handle_flow(fd, reader, line, &acc);
      } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
        metrics::counter("serve.errors").add(1);
        acc.outcome = "error";
        keep = send_error(fd, "unknown request '" + verb + "'");
      }
    }
    acc.wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - req_start)
            .count());
    access_log_.write(acc);
    if (!keep) break;
  }
  close_fd(fd);
}

/// One FLOW request. Returns false when the connection must close (framing
/// lost or peer gone); a well-framed bad request answers ERR and returns
/// true so the connection can carry the next request.
bool Server::handle_flow(int fd, LineReader& reader, const std::string& line,
                         AccessLog::Entry* acc) {
  auto err = [&](const std::string& message, int blif_line = 0) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("serve.errors").add(1);
    acc->outcome = "error";
    return send_error(fd, message, blif_line);
  };
  const std::vector<std::string> toks = split_tokens(line);
  const std::optional<std::uint64_t> header_bytes =
      toks.size() < 2 ? std::nullopt : parse_number<std::uint64_t>(toks[1]);
  if (!header_bytes) {
    // Without a parsable length the body cannot be skipped: close.
    err("malformed FLOW header (want: FLOW <nbytes> [key=value ...])");
    return false;
  }
  const std::uint64_t nbytes = *header_bytes;
  if (nbytes == 0) {
    err("empty FLOW payload");
    return false;
  }
  if (nbytes > options_.max_request_bytes) {
    err("payload too large (" + std::to_string(nbytes) + " > " +
        std::to_string(options_.max_request_bytes) + " bytes)");
    return false;
  }
  // Option errors are reported only after the body is consumed, so the
  // connection stays usable.
  FlowOptions flow = options_.flow;
  std::string option_error;
  for (std::size_t i = 2; i < toks.size(); ++i)
    if (!apply_option(toks[i], &flow, &option_error)) break;

  acc->bytes_in = nbytes;
  std::string blif;
  const auto body_start = std::chrono::steady_clock::now();
  for (;;) {
    const LineReader::Status bs = reader.read_exact(&blif, nbytes);
    if (bs == LineReader::Status::kOk) break;
    if (bs == LineReader::Status::kTimeout) {
      // Recv tick expired mid-body: keep waiting, but not forever — a
      // half-sent request must not pin this worker past the idle budget,
      // and a drain must not wait on a stalled sender.
      const bool overdue =
          options_.idle_timeout_ms > 0 &&
          std::chrono::steady_clock::now() - body_start >
              std::chrono::milliseconds(options_.idle_timeout_ms);
      if (!overdue && !draining_.load(std::memory_order_acquire)) continue;
      err("truncated FLOW payload (body timed out)");
      return false;
    }
    // Truncated body: the client died mid-request.
    err("truncated FLOW payload");
    return false;
  }
  if (!option_error.empty()) return err(option_error);

  BlifError blif_error;
  std::optional<Network> net;
  {
    trace::Span span("parse", "serve");
    span.arg("bytes", static_cast<long long>(nbytes));
    net = try_read_blif_string(blif, &blif_error);
  }
  if (!net) return err(blif_error.message, blif_error.line);

  try {
    SessionStats delta;
    std::vector<FlowResult> results;
    {
      trace::Span span("session", "serve");
      span.arg("circuit", net->name());
      prepare_network(*net);
      results = session_.run_circuit(*net, flow, &delta);
      span.arg("cache_hits", static_cast<long long>(delta.result_hits));
      span.arg("cache_misses", static_cast<long long>(delta.result_misses));
    }

    // Canonical one-shot rendering: the counters a cold single-circuit
    // uncached run reports, thread count 1, zeroed wall times, no metrics
    // block — so a warm response is byte-identical to a cold one and to the
    // one-shot CLI document under the same policy.
    EngineCounters counters;
    counters.decomp_passes = 3;
    counters.activity_passes = 3;
    counters.map_passes = 6;
    FlowJsonPolicy policy;
    policy.include_metrics = false;
    policy.zero_wall_times = true;
    std::ostringstream body;
    {
      trace::Span span("render", "serve");
      write_flow_json(body, {results}, counters, /*num_threads=*/1,
                      /*elapsed_ms=*/0.0, lib_.name(), policy);
    }
    const std::string text = body.str();
    acc->bytes_out = text.size();
    acc->hits = delta.result_hits;
    acc->misses = delta.result_misses;
    const std::string head = "OK " + std::to_string(text.size()) +
                             " hits=" + std::to_string(delta.result_hits) +
                             " misses=" + std::to_string(delta.result_misses) +
                             "\n";
    acc->outcome = "ok";
    // Count before the send: the flow itself succeeded, and a METRICS
    // scrape racing the response must already see it.
    flow_ok_.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("serve.flow_ok").add(1);
    return send_all(fd, head + text);
  } catch (const std::exception& e) {
    return err(std::string("internal error: ") + e.what());
  }
}

}  // namespace minpower::serve
