// FlowSession: structural-hash / option-fingerprint properties and
// cross-run cache behavior (DESIGN.md §13).
//
// The hash contract under test: declaration-order permutations of the same
// netlist (PI order, .names block order, cube row order) hash identically;
// any functional change — a flipped cube literal, a different option value,
// a different PI probability — changes the key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "trace/metrics.hpp"

namespace minpower {
namespace {

using testing::BlifPieces;
using testing::join_blif;
using testing::permute_inputs;
using testing::random_network;
using testing::split_blif;

std::string to_blif(const Network& net) {
  std::ostringstream os;
  write_blif(net, os);
  return os.str();
}

Network from_blif(const std::string& text) {
  BlifError err;
  std::optional<Network> net = try_read_blif_string(text, &err);
  EXPECT_TRUE(net.has_value()) << err.to_string();
  return std::move(*net);
}

TEST(StructuralHash, InvariantUnderDeclarationPermutations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Baseline and variants all go through the BLIF reader: write_blif
    // inserts PO buffer nodes, so an in-memory network is (correctly) not
    // hash-equal to its own roundtrip.
    BlifPieces p = split_blif(to_blif(random_network(seed)));
    ASSERT_GE(p.blocks.size(), 2u) << "seed " << seed;
    const Hash128 h0 = structural_hash(from_blif(join_blif(p)));

    // Node declaration order: reverse the .names blocks.
    std::reverse(p.blocks.begin(), p.blocks.end());
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "node order changed the hash (seed " << seed << ")";

    // Cube row order within each block.
    for (auto& b : p.blocks)
      if (b.size() > 2) std::reverse(b.begin() + 1, b.end());
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "cube order changed the hash (seed " << seed << ")";

    // PI declaration order.
    permute_inputs(&p);
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "PI order changed the hash (seed " << seed << ")";
  }
}

TEST(StructuralHash, SingleLiteralFlipChangesHash) {
  int flipped = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::string text = to_blif(random_network(seed));
    const Hash128 h0 = structural_hash(from_blif(text));

    // Flip the first cube input literal ('0' <-> '1') on a cube row (a line
    // that does not start with '.').
    std::istringstream in(text);
    std::string line;
    std::size_t offset = 0;
    bool done = false;
    while (!done && std::getline(in, line)) {
      if (line.empty() || line[0] == '.') {
        offset += line.size() + 1;
        continue;
      }
      for (std::size_t i = 0; i < line.size() && line[i] != ' '; ++i) {
        if (line[i] == '0' || line[i] == '1') {
          text[offset + i] = line[i] == '0' ? '1' : '0';
          done = true;
          break;
        }
      }
      offset += line.size() + 1;
    }
    if (!done) continue;  // all-dontcare covers: nothing to flip
    ++flipped;
    EXPECT_NE(h0, structural_hash(from_blif(text)))
        << "literal flip kept the hash (seed " << seed << ")";
  }
  EXPECT_GT(flipped, 0) << "no circuit offered a flippable literal";
}

TEST(StructuralHash, DistinctCircuitsHashDistinct) {
  std::vector<Hash128> seen;
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    seen.push_back(structural_hash(random_network(seed)));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(OptionFingerprint, SensitiveToEveryResultAffectingField) {
  const Network net = random_network(3);
  const FlowOptions base;
  const Hash128 h0 = option_fingerprint(base, net);

  FlowOptions o = base;
  o.vdd = 3.3;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.style = CircuitStyle::kDynamicP;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.task_deadline_ms = 100.0;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.bdd_node_limit = base.bdd_node_limit / 2;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.relax_factor = 1.5;
  EXPECT_NE(h0, option_fingerprint(o, net));

  // PI probabilities participate: one changed probability changes the key,
  // but an explicit all-default vector matches the empty default.
  o = base;
  o.pi_prob1.assign(net.pis().size(), 0.5);
  EXPECT_EQ(h0, option_fingerprint(o, net));
  o.pi_prob1.front() = 0.3;
  EXPECT_NE(h0, option_fingerprint(o, net));
}

TEST(OptionFingerprint, BindsProbabilitiesByPiName) {
  // Permuting the netlist's PI declaration order AND the probability vector
  // consistently must not change the fingerprint.
  // Both sides roundtrip through BLIF so PO buffer insertion cancels out.
  const Network original = from_blif(to_blif(random_network(5)));
  BlifPieces p = split_blif(to_blif(original));
  permute_inputs(&p);
  const Network permuted = from_blif(join_blif(p));
  ASSERT_EQ(structural_hash(original), structural_hash(permuted));

  FlowOptions a;
  a.pi_prob1.resize(original.pis().size());
  for (std::size_t i = 0; i < a.pi_prob1.size(); ++i)
    a.pi_prob1[i] = 0.1 + 0.05 * static_cast<double>(i);

  // Rebuild the vector in the permuted network's PI order by name.
  FlowOptions b;
  b.pi_prob1.resize(permuted.pis().size());
  for (std::size_t i = 0; i < permuted.pis().size(); ++i) {
    const std::string& name = permuted.node(permuted.pis()[i]).name;
    for (std::size_t j = 0; j < original.pis().size(); ++j)
      if (original.node(original.pis()[j]).name == name)
        b.pi_prob1[i] = a.pi_prob1[j];
  }
  EXPECT_EQ(option_fingerprint(a, original), option_fingerprint(b, permuted));

  // ...and a mismatched assignment (same multiset, wrong PIs) changes it.
  FlowOptions c = b;
  std::reverse(c.pi_prob1.begin(), c.pi_prob1.end());
  EXPECT_NE(option_fingerprint(a, original), option_fingerprint(c, permuted));
}

TEST(FlowSession, WarmRunHitsCacheWithIdenticalResults) {
  const Library& lib = standard_library();
  SessionOptions so;
  so.enable_cache = true;
  FlowSession session(lib, EngineOptions{}, so);

  Network net = random_network(7);
  prepare_network(net);

  SessionStats cold;
  const std::vector<FlowResult> r1 =
      session.run_circuit(net, session.options().flow, &cold);
  EXPECT_EQ(cold.result_hits, 0u);
  EXPECT_EQ(cold.result_misses, 6u);

  SessionStats warm;
  const std::vector<FlowResult> r2 =
      session.run_circuit(net, session.options().flow, &warm);
  EXPECT_EQ(warm.result_hits, 6u);
  EXPECT_EQ(warm.result_misses, 0u);

  // A warm run computes nothing.
  EXPECT_EQ(session.counters().decomp_passes, 3);
  EXPECT_EQ(session.counters().map_passes, 6);

  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].area, r2[i].area);
    EXPECT_EQ(r1[i].delay, r2[i].delay);
    EXPECT_EQ(r1[i].power_uw, r2[i].power_uw);
    EXPECT_EQ(r1[i].gates, r2[i].gates);
    EXPECT_EQ(r1[i].tree_activity, r2[i].tree_activity);
    EXPECT_EQ(static_cast<int>(r1[i].status.state),
              static_cast<int>(r2[i].status.state));
  }
}

TEST(FlowSession, IntraBatchDuplicatesAreShared) {
  const Library& lib = standard_library();
  FlowSession session(lib);  // cache off: dedup is within one batch only

  Network net = random_network(9);
  prepare_network(net);
  const std::vector<const Network*> batch = {&net, &net, &net};
  metrics::Counter& bdd_passes = metrics::counter("activity.passes");
  const std::uint64_t before = bdd_passes.value();
  const auto rs = session.run_suite(batch);
  ASSERT_EQ(rs.size(), 3u);
  // One set of passes despite three submissions: one source pass and three
  // subject passes.
  EXPECT_EQ(session.counters().decomp_passes, 3);
  EXPECT_EQ(session.counters().activity_passes, 3);
  EXPECT_EQ(session.counters().map_passes, 6);
  EXPECT_EQ(bdd_passes.value() - before, 4u);
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_EQ(rs[0][m].area, rs[1][m].area);
    EXPECT_EQ(rs[0][m].power_uw, rs[2][m].power_uw);
  }
}

TEST(FlowSession, BoundedCachesEvict) {
  const Library& lib = standard_library();
  SessionOptions so;
  so.enable_cache = true;
  so.result_cache_capacity = 6;  // one circuit's worth
  FlowSession session(lib, EngineOptions{}, so);

  SessionStats delta;
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    Network net = random_network(seed);
    prepare_network(net);
    session.run_circuit(net, session.options().flow, &delta);
  }
  EXPECT_GT(session.stats().evictions, 0u);

  // The most recent circuit is still resident.
  Network last = random_network(23);
  prepare_network(last);
  session.run_circuit(last, session.options().flow, &delta);
  EXPECT_EQ(delta.result_hits, 6u);
}

// Stage 1 enumerates each decomposition group's matches once and both of
// the group's methods map with them: a suite circuit's match attempts are
// half the matches its six methods report.
TEST(FlowSession, MatchesAreEnumeratedOncePerGroup) {
  Network net = generate_benchmark(paper_suite().front());
  prepare_network(net);
  FlowSession session(standard_library());
  metrics::Counter& attempts = metrics::counter("map.match_attempts");
  const std::uint64_t before = attempts.value();
  const std::vector<FlowResult> rs = session.run_circuit(net);
  const std::uint64_t enumerated = attempts.value() - before;

  std::uint64_t mapped = 0;
  for (const FlowResult& r : rs) {
    EXPECT_EQ(r.status.state, TaskState::kOk) << method_name(r.method);
    EXPECT_GT(r.phases.matches, 0u) << method_name(r.method);
    mapped += r.phases.matches;
  }
  EXPECT_EQ(session.counters().map_passes, 6);
  EXPECT_EQ(2 * enumerated, mapped);
}

TEST(FlowSession, FaultInjectionBypassesCache) {
  const Library& lib = standard_library();
  Network net = random_network(11);
  prepare_network(net);

  // A session with an armed fault must bypass cache and dedup entirely so
  // the injected ordinal hits a live task — and must not poison the cache.
  EngineOptions eo;
  eo.injections.push_back(FaultInjection{"decomp", 0});
  SessionOptions so;
  so.enable_cache = true;
  FlowSession session(lib, eo, so);
  const std::vector<FlowResult> rs = session.run_circuit(net);
  EXPECT_EQ(session.stats().result_hits + session.stats().result_misses, 0u);
  // Group 0 failed; methods I and IV inherit the failure.
  EXPECT_EQ(rs[0].status.state, TaskState::kFailed);
  EXPECT_EQ(rs[3].status.state, TaskState::kFailed);
  EXPECT_EQ(rs[1].status.state, TaskState::kOk);
}

// The one LRU behind the result cache and the serve memo: both bounds,
// least-recently-used first, and hits that outlive their entry.
TEST(LruCache, EvictsLeastRecentlyUsedWithinEntryAndWeightBounds) {
  const auto key = [](std::uint64_t i) { return Hash128{i, ~i}; };
  LruCache<int> lru(/*capacity=*/3, /*max_weight=*/10);
  EXPECT_EQ(lru.insert(key(1), std::make_shared<const int>(1), 4), 0u);
  EXPECT_EQ(lru.insert(key(2), std::make_shared<const int>(2), 4), 0u);
  const std::shared_ptr<const int> one = lru.lookup(key(1));  // 2 is oldest
  ASSERT_NE(one, nullptr);
  // 4 + 4 + 4 > 10: the weight bound evicts the least recent, key 2.
  EXPECT_EQ(lru.insert(key(3), std::make_shared<const int>(3), 4), 1u);
  EXPECT_EQ(lru.lookup(key(2)), nullptr);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.weight(), 8u);
  // Light entries: now the entry bound (3) decides; key 1 is oldest.
  EXPECT_EQ(lru.insert(key(4), std::make_shared<const int>(4), 1), 0u);
  EXPECT_EQ(lru.insert(key(5), std::make_shared<const int>(5), 1), 1u);
  EXPECT_EQ(lru.lookup(key(1)), nullptr);
  EXPECT_EQ(*one, 1);  // a returned hit outlives its eviction
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.weight(), 6u);
  // Replacing a key reweighs it; a value heavier than the bound on its own
  // is not stored and evicts nothing.
  EXPECT_EQ(lru.insert(key(3), std::make_shared<const int>(30), 2), 0u);
  EXPECT_EQ(*lru.lookup(key(3)), 30);
  EXPECT_EQ(lru.weight(), 4u);
  EXPECT_EQ(lru.insert(key(6), std::make_shared<const int>(6), 11), 0u);
  EXPECT_EQ(lru.lookup(key(6)), nullptr);
  EXPECT_EQ(lru.size(), 3u);
}

}  // namespace
}  // namespace minpower
