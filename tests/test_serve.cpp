// Line-protocol and robustness tests for `minpower serve` (serve/server.hpp):
// well-formed requests round-trip, malformed requests (truncated BLIF,
// oversized payload, bad option tokens, unknown verbs) answer structured
// minpower.serve.v1 errors, a client vanishing mid-exchange never takes the
// server down, and SHUTDOWN drains cleanly.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "util/json_reader.hpp"

namespace minpower {
namespace {

std::string small_blif() {
  std::ostringstream os;
  write_blif(testing::random_network(42, /*num_pi=*/5, /*num_nodes=*/8,
                                     /*num_po=*/2),
             os);
  return os.str();
}

/// Server bound to an ephemeral port for one test.
struct ServeFixture {
  explicit ServeFixture(serve::ServerOptions o = {})
      : server(standard_library(), std::move(o)) {
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
  }
  ~ServeFixture() { server.stop(); }

  serve::Client connect() {
    serve::Client c;
    std::string error;
    EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &error)) << error;
    return c;
  }

  serve::Server server;
};

/// Parse a minpower.serve.v1 error body and return error.message.
std::string error_message(const std::string& body) {
  std::string parse_error;
  const auto doc = parse_json(body, &parse_error);
  if (!doc) return "<unparsable: " + parse_error + ">";
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->string != "minpower.serve.v1")
    return "<wrong schema>";
  if (const JsonValue* e = doc->find("error"))
    if (const JsonValue* m = e->find("message")) return m->string;
  return "<no message>";
}

TEST(Serve, PingFlowAndStatsRoundTrip) {
  ServeFixture fx;
  serve::Client c = fx.connect();
  std::string error;
  EXPECT_TRUE(c.ping(&error)) << error;

  serve::Response r;
  ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(r.hits, 0u);
  EXPECT_EQ(r.misses, 6u);  // 6 method results, all cold

  std::string parse_error;
  const auto doc = parse_json(r.body, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  EXPECT_EQ(doc->find("schema")->string, "minpower.flow.v1");
  const JsonValue* circuits = doc->find("circuits");
  ASSERT_NE(circuits, nullptr);
  ASSERT_EQ(circuits->items.size(), 1u);
  EXPECT_EQ(circuits->items[0].find("name")->string, "rnd42");
  // Serve responses omit the (request-order-dependent) metrics block and
  // zero wall times, so identical requests are byte-identical.
  EXPECT_EQ(doc->find("metrics"), nullptr);
  EXPECT_EQ(doc->find("elapsed_ms")->number, 0.0);

  // Same circuit again on the same connection: all hits, identical body.
  serve::Response r2;
  ASSERT_TRUE(c.flow(small_blif(), {}, &r2, &error)) << error;
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.hits, 6u);  // all six method results
  EXPECT_EQ(r2.misses, 0u);
  EXPECT_EQ(r.body, r2.body);

  serve::Response st;
  ASSERT_TRUE(c.stats(&st, &error)) << error;
  ASSERT_TRUE(st.ok);
  const auto stats_doc = parse_json(st.body, &parse_error);
  ASSERT_TRUE(stats_doc.has_value()) << parse_error;
  EXPECT_EQ(stats_doc->find("schema")->string, "minpower.serve.v1");
  EXPECT_GE(stats_doc->find("session")->find("result_hits")->number, 6.0);
}

TEST(Serve, FlowOptionsChangeTheCacheKey) {
  ServeFixture fx;
  serve::Client c = fx.connect();
  std::string error;
  serve::Response r;
  ASSERT_TRUE(c.flow(small_blif(), {"vdd=3.3"}, &r, &error)) << error;
  ASSERT_TRUE(r.ok) << r.body;
  EXPECT_EQ(r.misses, 6u);
  // Different options: a fresh fingerprint, no sharing with the first run.
  serve::Response r2;
  ASSERT_TRUE(c.flow(small_blif(), {"vdd=5.0"}, &r2, &error)) << error;
  ASSERT_TRUE(r2.ok) << r2.body;
  EXPECT_EQ(r2.hits, 0u);
  EXPECT_NE(r.body, r2.body);  // power scales with vdd²
}

TEST(Serve, MalformedRequestsAnswerStructuredErrors) {
  ServeFixture fx;

  {  // Bad option token: framing intact, connection stays usable.
    serve::Client c = fx.connect();
    std::string error;
    serve::Response r;
    ASSERT_TRUE(c.flow(small_blif(), {"frobnicate=1"}, &r, &error)) << error;
    EXPECT_FALSE(r.ok);
    EXPECT_NE(error_message(r.body).find("unknown option"), std::string::npos)
        << r.body;
    ASSERT_TRUE(c.flow(small_blif(), {"deadline_ms=bogus"}, &r, &error))
        << error;
    EXPECT_FALSE(r.ok);
    EXPECT_NE(error_message(r.body).find("bad value"), std::string::npos);
    // A sign on an unsigned option is malformed, not a wrapped 2^64 - 5.
    ASSERT_TRUE(c.flow(small_blif(), {"bdd_limit=-5"}, &r, &error)) << error;
    EXPECT_FALSE(r.ok);
    EXPECT_NE(error_message(r.body).find("bad value"), std::string::npos);
    // Values outside an option's domain: a zero or negative cycle time or
    // supply, a negative load or deadline.
    for (const char* token : {"t_cycle=0", "t_cycle=-1", "vdd=0", "vdd=-5",
                              "po_load=-1", "deadline_ms=-3"}) {
      ASSERT_TRUE(c.flow(small_blif(), {token}, &r, &error)) << error;
      EXPECT_FALSE(r.ok) << token;
      EXPECT_NE(error_message(r.body).find("bad value"), std::string::npos)
          << token << ": " << r.body;
    }
    // The domain boundaries that stay valid: no load, no deadline.
    ASSERT_TRUE(c.flow(small_blif(), {"po_load=0", "deadline_ms=0"}, &r,
                       &error))
        << error;
    EXPECT_TRUE(r.ok) << r.body;
    ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
    EXPECT_TRUE(r.ok) << "connection unusable after option errors";
  }

  {  // Malformed BLIF payload: parser error with a line number.
    serve::Client c = fx.connect();
    std::string error;
    serve::Response r;
    ASSERT_TRUE(
        c.flow(".model broken\n.inputs a\n.outputs z\n.names a z\n2 1\n.end\n",
               {}, &r, &error))
        << error;
    EXPECT_FALSE(r.ok);
    std::string parse_error;
    const auto doc = parse_json(r.body, &parse_error);
    ASSERT_TRUE(doc.has_value()) << parse_error;
    EXPECT_GT(doc->find("error")->find("line")->number, 0.0);
    // BlifError plumbing reached the response; connection still alive.
    ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
    EXPECT_TRUE(r.ok);
  }

  {  // Oversized payload: rejected without reading the body.
    serve::ServerOptions so;
    so.max_request_bytes = 128;
    ServeFixture small(so);
    serve::Client c = small.connect();
    std::string error;
    serve::Response r;
    ASSERT_TRUE(c.flow(std::string(4096, 'x'), {}, &r, &error)) << error;
    EXPECT_FALSE(r.ok);
    EXPECT_NE(error_message(r.body).find("payload too large"),
              std::string::npos);
  }

  {  // Unknown verb and unparsable header keep the server alive.
    const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    ASSERT_TRUE(serve::send_all(fd, "MAKE COFFEE\n"));
    std::string line;
    ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    ASSERT_TRUE(serve::send_all(fd, "FLOW notanumber\n"));
    // Skip the previous error body, then expect the header error.
    std::string body;
    reader.read_exact(&body, std::strtoull(line.c_str() + 4, nullptr, 10));
    ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
    EXPECT_EQ(line.rfind("ERR ", 0), 0u);
    serve::close_fd(fd);
  }

  // After all of the above the server still answers.
  serve::Client c = fx.connect();
  std::string error;
  EXPECT_TRUE(c.ping(&error)) << error;
}

TEST(Serve, TruncatedPayloadAndMidResponseDisconnectKeepServerUp) {
  ServeFixture fx;

  {  // Truncated BLIF mid-request: client claims 500 bytes, sends 20, hangs
     // up. The server answers a structured error (best effort) and closes.
    const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::send_all(fd, "FLOW 500\n.model truncated\n"));
    ::shutdown(fd, SHUT_WR);
    serve::LineReader reader(fd);
    std::string line;
    if (reader.read_line(&line, 4096) == serve::LineReader::Status::kOk) {
      EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    }
    serve::close_fd(fd);
  }

  {  // Disconnect without reading the response at all.
    const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
    ASSERT_GE(fd, 0);
    const std::string blif = small_blif();
    ASSERT_TRUE(serve::send_all(
        fd, "FLOW " + std::to_string(blif.size()) + "\n" + blif));
    serve::close_fd(fd);  // gone before the response lands
  }

  // Server survives both and still serves full requests.
  serve::Client c = fx.connect();
  std::string error;
  serve::Response r;
  ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
  EXPECT_TRUE(r.ok);
}

TEST(Serve, IdleConnectionsAreReaped) {
  serve::ServerOptions so;
  so.idle_timeout_ms = 150;
  ServeFixture fx(so);

  const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
  ASSERT_GE(fd, 0);
  // Send nothing: the reaper must answer a structured retryable error
  // within a few idle ticks instead of pinning the worker forever.
  serve::LineReader reader(fd);
  std::string line;
  ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  std::string body;
  reader.read_exact(&body, std::strtoull(line.c_str() + 4, nullptr, 10));
  EXPECT_NE(body.find("idle connection reaped"), std::string::npos) << body;
  EXPECT_NE(body.find("\"retryable\": true"), std::string::npos) << body;
  serve::close_fd(fd);
  EXPECT_GE(fx.server.stats().idle_reaped, 1u);

  // Reaping a leaked client must not take down the server.
  serve::Client c = fx.connect();
  std::string error;
  EXPECT_TRUE(c.ping(&error)) << error;
}

TEST(Serve, SignalDrainAnswersIdleConnectionsAndReleasesWait) {
  auto* fx = new ServeFixture();
  const int fd = serve::tcp_connect("127.0.0.1", fx->server.port(), nullptr);
  ASSERT_GE(fd, 0);

  fx->server.signal_drain();  // what the CLI's SIGTERM handler calls

  // The idle connection is told to come back later (retryable), not left
  // hanging on a dead server.
  serve::LineReader reader(fd);
  std::string line;
  ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  std::string body;
  reader.read_exact(&body, std::strtoull(line.c_str() + 4, nullptr, 10));
  EXPECT_NE(body.find("draining"), std::string::npos) << body;
  EXPECT_NE(body.find("\"retryable\": true"), std::string::npos) << body;
  serve::close_fd(fd);

  fx->server.wait();  // drain releases wait() without a SHUTDOWN request
  EXPECT_TRUE(fx->server.draining());
  EXPECT_GE(fx->server.stats().drain_rejections, 1u);
  delete fx;
}

TEST(Serve, BusyRejectionIsRetryable) {
  serve::ServerOptions so;
  so.workers = 1;
  so.max_pending = 0;  // admission control refuses every connection
  ServeFixture fx(so);

  serve::Client c = fx.connect();  // TCP connect succeeds…
  std::string error;
  serve::Response r;
  ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
  EXPECT_FALSE(r.ok);  // …but the request is answered with the busy error
  EXPECT_NE(r.body.find("server busy"), std::string::npos) << r.body;
  EXPECT_TRUE(serve::response_retryable(r)) << r.body;
  EXPECT_GE(fx.server.stats().busy_rejections, 1u);
}

TEST(Serve, ClientConnectRetryBacksOffThenFails) {
  serve::RetryPolicy policy;
  policy.retries = 2;
  policy.base_ms = 10;

  // Find a dead port by binding one and closing it again.
  ServeFixture* fx = new ServeFixture();
  const std::uint16_t dead_port = fx->server.port();
  delete fx;

  serve::Client c;
  std::string error;
  unsigned attempts = 0;
  EXPECT_FALSE(
      c.connect_with_retry("127.0.0.1", dead_port, policy, &attempts, &error));
  EXPECT_EQ(attempts, 2u);
  EXPECT_NE(error.find("refused"), std::string::npos) << error;

  // Against a live server the first try lands: zero re-attempts.
  ServeFixture live;
  attempts = 99;
  EXPECT_TRUE(c.connect_with_retry("127.0.0.1", live.server.port(), policy,
                                   &attempts, &error))
      << error;
  EXPECT_EQ(attempts, 0u);
  std::string ping_error;
  EXPECT_TRUE(c.ping(&ping_error)) << ping_error;
}

TEST(Serve, ResponseTimeoutUnsticksClient) {
  // A listener that accepts (via the kernel backlog) but never answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  serve::Client c;
  c.set_response_timeout_ms(200);
  std::string error;
  ASSERT_TRUE(c.connect("127.0.0.1", ntohs(addr.sin_port), &error)) << error;
  EXPECT_FALSE(c.ping(&error));  // would block forever without the timeout
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  serve::close_fd(listener);
}

TEST(Serve, MetricsVerbAnswersPrometheusExposition) {
  ServeFixture fx;
  serve::Client c = fx.connect();
  std::string error;
  serve::Response r;
  ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
  ASSERT_TRUE(r.ok) << r.body;

  const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
  ASSERT_GE(fd, 0);
  serve::LineReader reader(fd);
  ASSERT_TRUE(serve::send_all(fd, "METRICS\n"));
  std::string line;
  ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
  ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
  std::string body;
  reader.read_exact(&body, std::strtoull(line.c_str() + 3, nullptr, 10));
  serve::close_fd(fd);

  // Service counters show up mangled into the Prometheus charset, with the
  // counter `_total` suffix.
  EXPECT_NE(body.find("serve_requests_total"), std::string::npos) << body;
  EXPECT_NE(body.find("serve_flow_ok_total"), std::string::npos);
  EXPECT_EQ(body.find("serve.requests"), std::string::npos)
      << "raw dotted name leaked into the exposition";

  // Every sample line's metric name obeys [a-zA-Z_:][a-zA-Z0-9_:]* and
  // every histogram's cumulative buckets are monotone, capped by +Inf.
  std::istringstream lines(body);
  std::string row;
  std::string series;
  long long prev = -1;
  while (std::getline(lines, row)) {
    if (row.empty()) continue;
    if (row.rfind("# TYPE ", 0) == 0) continue;
    const std::size_t name_end = row.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << row;
    const std::string name = row.substr(0, name_end);
    ASSERT_FALSE(name.empty()) << row;
    EXPECT_FALSE(name[0] >= '0' && name[0] <= '9') << row;
    for (const char ch : name) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      EXPECT_TRUE(ok) << row;
    }
    const std::size_t bucket = row.find("_bucket{le=");
    if (bucket == std::string::npos) continue;
    const std::string hist = row.substr(0, bucket);
    if (hist != series) {
      series = hist;
      prev = -1;
    }
    const long long v = std::stoll(row.substr(row.rfind(' ') + 1));
    EXPECT_GE(v, prev) << row;
    prev = v;
    if (row.find("le=\"+Inf\"") != std::string::npos) {
      // The +Inf bound equals the histogram's _count line.
      const std::size_t count_at = body.find(hist + "_count ");
      ASSERT_NE(count_at, std::string::npos) << hist;
      const long long count = std::stoll(
          body.substr(count_at + hist.size() + std::strlen("_count ")));
      EXPECT_EQ(v, count) << hist;
    }
  }
}

TEST(Serve, AccessLogRecordsOneJsonLinePerRequest) {
  const std::string log_path = ::testing::TempDir() + "serve_access.jsonl";
  std::remove(log_path.c_str());

  serve::ServerOptions so;
  so.access_log = log_path;
  {
    ServeFixture fx(so);
    serve::Client c = fx.connect();
    std::string error;
    EXPECT_TRUE(c.ping(&error)) << error;
    serve::Response r;
    ASSERT_TRUE(c.flow(small_blif(), {}, &r, &error)) << error;
    ASSERT_TRUE(r.ok) << r.body;

    const int fd = serve::tcp_connect("127.0.0.1", fx.server.port(), nullptr);
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    ASSERT_TRUE(serve::send_all(fd, "METRICS\n"));
    std::string line;
    ASSERT_EQ(reader.read_line(&line, 4096), serve::LineReader::Status::kOk);
    EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
    std::string body;
    reader.read_exact(&body, std::strtoull(line.c_str() + 3, nullptr, 10));
    serve::close_fd(fd);
  }  // stop() joins the workers; every answered request is on disk

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path;
  std::vector<std::string> verbs;
  std::set<std::uint64_t> ids;
  std::string line;
  bool saw_flow = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    std::string parse_error;
    const auto doc = parse_json(line, &parse_error);
    ASSERT_TRUE(doc.has_value()) << parse_error << ": " << line;
    // Full schema on every line, even for body-less verbs.
    for (const char* key : {"id", "peer", "verb", "bytes_in", "bytes_out",
                            "outcome", "wall_us", "hits", "misses"}) {
      ASSERT_NE(doc->find(key), nullptr) << key << " missing in " << line;
    }
    const auto id = static_cast<std::uint64_t>(doc->find("id")->number);
    // Lines land in completion order (a fast request on another connection
    // can finish before a slow one that started earlier), but the shared
    // request counter makes every id unique.
    EXPECT_TRUE(ids.insert(id).second) << "duplicate request id: " << line;
    EXPECT_NE(doc->find("peer")->string.find("127.0.0.1:"), std::string::npos);
    verbs.push_back(doc->find("verb")->string);
    if (doc->find("verb")->string == "FLOW") {
      saw_flow = true;
      EXPECT_EQ(doc->find("outcome")->string, "ok") << line;
      EXPECT_GT(doc->find("bytes_in")->number, 0.0);
      EXPECT_GT(doc->find("bytes_out")->number, 0.0);
      EXPECT_EQ(doc->find("misses")->number, 6.0) << line;
    }
  }
  EXPECT_TRUE(saw_flow);
  // The counter starts at 1 and every answered request is on disk, so the
  // ids are exactly the contiguous range [1, N].
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), ids.size());
  EXPECT_NE(std::find(verbs.begin(), verbs.end(), "PING"), verbs.end());
  EXPECT_NE(std::find(verbs.begin(), verbs.end(), "METRICS"), verbs.end());
  std::remove(log_path.c_str());
}

TEST(Serve, ShutdownRequestEndsWait) {
  auto* fx = new ServeFixture();
  serve::Client c = fx->connect();
  std::string error;
  ASSERT_TRUE(c.shutdown_server(&error)) << error;
  fx->server.wait();  // returns only once the shutdown request lands
  const serve::ServeStats stats = fx->server.stats();
  EXPECT_GE(stats.requests, 1u);
  delete fx;  // ~Server() stop() is idempotent after wait()

  // Port is released: nothing is listening anymore.
  serve::Client again;
  EXPECT_FALSE(again.connect("127.0.0.1", 1, &error));
}

}  // namespace
}  // namespace minpower
