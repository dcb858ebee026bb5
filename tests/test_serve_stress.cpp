// Concurrency stress for the serve layer: many client threads hammer one
// Server with overlapping and repeated circuits, and every response must be
// byte-identical to the canonical one-shot FlowSession rendering of the same
// BLIF. Repeat submissions must raise the session cache hit counters above
// zero. Set MINPOWER_SERVE_SEED to re-run a failing circuit population.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

using testing::random_network;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("MINPOWER_SERVE_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1234;
}

/// The body `minpower serve` must produce for this BLIF: parse + prepare
/// exactly like the server, run a cache-off one-shot engine, render with the
/// serve policy (no metrics, zeroed wall times, canonical counters).
std::string expected_body(const Library& lib, const std::string& blif) {
  BlifError blif_error;
  std::optional<Network> net = try_read_blif_string(blif, &blif_error);
  EXPECT_TRUE(net.has_value()) << blif_error.message;
  prepare_network(*net);
  FlowSession engine(lib);
  const std::vector<FlowResult> results = engine.run_circuit(*net);
  EngineCounters counters;
  counters.decomp_passes = 3;
  counters.activity_passes = 3;
  counters.map_passes = 6;
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  std::ostringstream body;
  write_flow_json(body, {results}, counters, /*num_threads=*/1,
                  /*elapsed_ms=*/0.0, lib.name(), policy);
  return body.str();
}

TEST(ServeStress, ConcurrentClientsGetByteIdenticalResponses) {
  constexpr std::size_t kCircuits = 4;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRequestsPerThread = 8;

  const Library& lib = standard_library();
  const std::uint64_t seed = base_seed();

  std::vector<std::string> blifs;
  std::vector<std::string> expected;
  for (std::size_t k = 0; k < kCircuits; ++k) {
    Network net = random_network(seed + k);
    blifs.push_back(write_blif_string(net));
    expected.push_back(expected_body(lib, blifs.back()));
  }
  ASSERT_FALSE(::testing::Test::HasFailure());

  serve::ServerOptions so;
  so.workers = 4;
  serve::Server server(lib, so);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint16_t port = server.port();

  // Each request uses its own connection: with more client threads than
  // workers, persistent connections would pin every worker to one client.
  std::atomic<std::uint64_t> total_hits{0};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto note_failure = [&](std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t tid = 0; tid < kThreads; ++tid)
    clients.emplace_back([&, tid] {
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t k = (tid * kRequestsPerThread + i) % kCircuits;
        const std::string tag = "thread " + std::to_string(tid) + " request " +
                                std::to_string(i) + " circuit " +
                                std::to_string(k);
        serve::Client c;
        std::string err;
        if (!c.connect("127.0.0.1", port, &err)) {
          note_failure(tag + ": connect: " + err);
          continue;
        }
        serve::Response r;
        if (!c.flow(blifs[k], {}, &r, &err)) {
          note_failure(tag + ": transport: " + err);
          continue;
        }
        if (!r.ok) {
          note_failure(tag + ": server error: " + r.body);
          continue;
        }
        if (r.body != expected[k])
          note_failure(tag + ": body differs from one-shot rendering (" +
                       std::to_string(r.body.size()) + " vs " +
                       std::to_string(expected[k].size()) + " bytes)");
        total_hits.fetch_add(r.hits, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : clients) t.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_TRUE(failures.empty());

  // Join the workers before reading stats: a client can consume the whole
  // (kernel-buffered) response before the worker's counters are bumped.
  server.stop();

  // 48 requests over 4 distinct circuits: the vast majority were repeats,
  // so the cross-request cache must have fired.
  EXPECT_GT(total_hits.load(), 0u);
  const SessionStats stats = server.session().stats();
  EXPECT_GT(stats.result_hits, 0u);
  // Two clients racing the same cold circuit may both miss, so this is a
  // floor, not an exact count.
  EXPECT_GE(stats.result_misses, 6 * kCircuits);
  EXPECT_GT(metrics::counter("session.result_hits").value(), 0u);

  const serve::ServeStats st = server.stats();
  EXPECT_EQ(st.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(st.flow_ok, kThreads * kRequestsPerThread);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.busy_rejections, 0u);
}

}  // namespace
}  // namespace minpower
