// Concurrency stress for the serve layer: many client threads hammer one
// Server with overlapping and repeated circuits, and every response must be
// byte-identical to the canonical one-shot FlowSession rendering of the same
// BLIF. Repeat submissions must raise the session cache hit counters above
// zero. Set MINPOWER_SERVE_SEED to re-run a failing circuit population.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "serve_helpers.hpp"
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
    expected.push_back(testing::one_shot_body(lib, blifs.back()));
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

TEST(ServeStress, MemoLookupsRaceInsertsOverIdenticalAndDistinctBodies) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kCircuits = 4;
  constexpr std::size_t kRounds = 6;

  const Library& lib = standard_library();
  const std::uint64_t seed = base_seed() + 100;
  std::vector<std::string> blifs;
  std::vector<std::string> expected;
  for (std::size_t k = 0; k < kCircuits; ++k) {
    blifs.push_back(write_blif_string(random_network(seed + k)));
    expected.push_back(testing::one_shot_body(lib, blifs.back()));
  }
  ASSERT_FALSE(::testing::Test::HasFailure());

  serve::ServerOptions so;
  so.workers = kClients;
  serve::Server server(lib, so);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Even rounds send a circuit's exact bytes, which every client shares;
  // odd rounds prefix a comment naming the client, so the bytes are the
  // client's own (a memo entry of their own) but the network is the same.
  const auto body_of = [&](std::size_t c, std::size_t r) {
    const std::string& blif = blifs[(c + r) % kCircuits];
    return r % 2 == 0 ? blif : "# client " + std::to_string(c) + "\n" + blif;
  };
  std::set<std::string> distinct;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t r = 0; r < kRounds; ++r) distinct.insert(body_of(c, r));

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      auto fail = [&](const std::string& message) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("client " + std::to_string(c) + ": " + message);
      };
      serve::Client client;
      std::string err;
      if (!client.connect("127.0.0.1", server.port(), &err))
        return fail("connect: " + err);
      for (std::size_t r = 0; r < kRounds; ++r) {
        serve::Response resp;
        if (!client.flow(body_of(c, r), {}, &resp, &err) || !resp.ok)
          return fail("round " + std::to_string(r) + ": " + err + resp.body);
        if (resp.body != expected[(c + r) % kCircuits])
          fail("round " + std::to_string(r) + ": body differs from one-shot");
      }
    });
  for (std::thread& t : clients) t.join();
  server.stop();
  for (const std::string& f : failures) ADD_FAILURE() << f;

  // Round 4 resends what the same client sent, and was answered, in
  // round 0: at least one memo hit per client. Nothing is evicted, so the
  // memo holds each distinct body once, however the inserts raced.
  const serve::ServeStats st = server.stats();
  EXPECT_EQ(st.flow_ok, kClients * kRounds);
  EXPECT_EQ(st.prepare_hits + st.prepare_misses, kClients * kRounds);
  EXPECT_GE(st.prepare_hits, kClients);
  EXPECT_GE(st.prepare_misses, distinct.size());
  EXPECT_EQ(server.memo().size(), distinct.size());
}

}  // namespace
}  // namespace minpower
