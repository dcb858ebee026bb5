#pragma once
// Shared test utilities: exhaustive evaluation, random small networks,
// brute-force probability computation used as oracles, and declaration-order
// permutations of BLIF text.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "netlist/network.hpp"
#include "util/rng.hpp"

namespace minpower::testing {

/// Evaluate every PI assignment (requires few PIs) and return the PO truth
/// tables, one vector<bool> of length 2^n per PO.
inline std::vector<std::vector<bool>> truth_tables(const Network& net) {
  const std::size_t n = net.pis().size();
  const std::size_t count = std::size_t{1} << n;
  std::vector<std::vector<bool>> tables(net.pos().size(),
                                        std::vector<bool>(count));
  for (std::size_t m = 0; m < count; ++m) {
    std::vector<bool> pi(n);
    for (std::size_t i = 0; i < n; ++i) pi[i] = (m >> i) & 1;
    const std::vector<bool> po = net.eval(pi);
    for (std::size_t j = 0; j < po.size(); ++j) tables[j][m] = po[j];
  }
  return tables;
}

/// Exhaustive signal probability of every node under independent PI
/// 1-probabilities (oracle for the BDD-based computation).
inline std::vector<double> brute_force_probabilities(
    const Network& net, const std::vector<double>& pi_p1) {
  const std::size_t n = net.pis().size();
  const std::size_t count = std::size_t{1} << n;
  std::vector<double> p(net.capacity(), 0.0);
  for (std::size_t m = 0; m < count; ++m) {
    std::vector<bool> pi(n);
    double weight = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] = (m >> i) & 1;
      weight *= pi[i] ? pi_p1[i] : 1.0 - pi_p1[i];
    }
    // Evaluate all nodes, not just POs.
    std::vector<char> value(net.capacity(), 0);
    for (std::size_t i = 0; i < n; ++i)
      value[static_cast<std::size_t>(net.pis()[i])] = pi[i];
    for (NodeId id : net.topo_order()) {
      const Node& node = net.node(id);
      if (node.kind == NodeKind::kConstant1)
        value[static_cast<std::size_t>(id)] = 1;
      if (!node.is_internal()) continue;
      std::uint64_t assignment = 0;
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (value[static_cast<std::size_t>(node.fanins[i])])
          assignment |= std::uint64_t{1} << i;
      value[static_cast<std::size_t>(id)] = node.cover.eval(assignment);
    }
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
      if (value[static_cast<std::size_t>(id)])
        p[static_cast<std::size_t>(id)] += weight;
  }
  return p;
}

/// Small random network for property tests.
inline Network random_network(std::uint64_t seed, int num_pi = 6,
                              int num_nodes = 12, int num_po = 3) {
  BenchProfile p;
  p.name = "rnd" + std::to_string(seed);
  p.num_pi = num_pi;
  p.num_po = num_po;
  p.num_nodes = num_nodes;
  p.max_fanin = 4;
  p.max_cubes = 3;
  p.seed = seed;
  return generate_benchmark(p);
}

/// Random probability vector in (lo, hi).
inline std::vector<double> random_probs(Rng& rng, int n, double lo = 0.05,
                                        double hi = 0.95) {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (double& x : p) x = rng.uniform(lo, hi);
  return p;
}

/// Split a BLIF document into (header lines, .names blocks, trailer) so the
/// blocks can be permuted. Assumes write_blif output: one .names header
/// followed by its cube rows.
struct BlifPieces {
  std::vector<std::string> header;               // .model/.inputs/.outputs
  std::vector<std::vector<std::string>> blocks;  // .names + cube rows
  std::vector<std::string> trailer;              // .end
};

inline BlifPieces split_blif(const std::string& text) {
  BlifPieces p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(".names", 0) == 0) {
      p.blocks.push_back({line});
    } else if (line.rfind(".end", 0) == 0) {
      p.trailer.push_back(line);
    } else if (p.blocks.empty()) {
      p.header.push_back(line);
    } else {
      p.blocks.back().push_back(line);  // cube row of the open block
    }
  }
  return p;
}

inline std::string join_blif(const BlifPieces& p) {
  std::string out;
  for (const std::string& l : p.header) out += l + "\n";
  for (const auto& b : p.blocks)
    for (const std::string& l : b) out += l + "\n";
  for (const std::string& l : p.trailer) out += l + "\n";
  return out;
}

/// Reverse the .inputs token order (a PI declaration-order permutation).
inline void permute_inputs(BlifPieces* p) {
  for (std::string& line : p->header) {
    if (line.rfind(".inputs", 0) != 0) continue;
    std::istringstream in(line);
    std::string tok;
    std::vector<std::string> toks;
    while (in >> tok) toks.push_back(tok);
    std::reverse(toks.begin() + 1, toks.end());
    line = toks.front();
    for (std::size_t i = 1; i < toks.size(); ++i) line += " " + toks[i];
  }
}

/// The number after the first `"<key>": ` of a JSON text, as written
/// there. A test that edits a committed report anchors on it, not on a
/// literal, so a regenerated report keeps the test valid.
inline std::string first_number(const std::string& json,
                                const std::string& key) {
  const std::string field = "\"" + key + "\": ";
  const std::size_t at = json.find(field);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + field.size();
  const std::size_t end = json.find_first_not_of("+-.0123456789eE", begin);
  return json.substr(begin, end - begin);
}

}  // namespace minpower::testing
