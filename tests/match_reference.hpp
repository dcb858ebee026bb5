#pragma once
// An independent reference for the matcher (map/match.hpp). It tries every
// pattern of every gate at a node, with no shape filter, and walks a copied
// state instead of the enumerator's undo trail. Tests diff
// enumerate_matches against it, store and classes, and check the
// enumerator's map.pattern_tries against pattern_tries below.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace minpower::testing {

struct Match {
  const Gate* gate = nullptr;
  /// Subject node bound to each gate pin (pin order = Gate::pins order).
  std::vector<NodeId> pin_binding;
  /// merged(n,g): subject nodes covered by the match, root included, sorted.
  std::vector<NodeId> covered;
};

namespace detail {

struct Embedding {
  std::vector<NodeId> binding;  // per pin, kNoNode while unbound
  std::vector<NodeId> covered;
};

/// Extends `e` by an embedding of `pat` at `node`; on failure `e` holds
/// partial work. A NAND tries its fanins in order, then swapped, and keeps
/// the first that embeds. Interior (non-root) pattern nodes must have a
/// single reader; a repeated pin must bind the same node.
inline bool embed(const Network& net, const Pattern& pat, NodeId node,
                  bool is_root, Embedding& e) {
  if (pat.kind == Pattern::Kind::kLeaf) {
    NodeId& slot = e.binding[static_cast<std::size_t>(pat.pin)];
    if (slot == kNoNode) slot = node;
    return slot == node;
  }
  if (!is_root && net.fanout_count(node) != 1) return false;
  const std::vector<NodeId>& in = net.node(node).fanins;
  e.covered.push_back(node);
  if (pat.kind == Pattern::Kind::kInv)
    return net.is_inv(node) && embed(net, *pat.child[0], in[0], false, e);
  if (!net.is_nand2(node)) return false;
  const Embedding before = e;
  if (embed(net, *pat.child[0], in[0], false, e) &&
      embed(net, *pat.child[1], in[1], false, e))
    return true;
  e = before;
  return embed(net, *pat.child[0], in[1], false, e) &&
         embed(net, *pat.child[1], in[0], false, e);
}

/// True when `pat`'s structure, pin labels aside, embeds at `node`.
inline bool shape_embeds(const Network& net, const Pattern& pat, NodeId node,
                         bool is_root) {
  if (pat.kind == Pattern::Kind::kLeaf) return true;
  if (!is_root && net.fanout_count(node) != 1) return false;
  const std::vector<NodeId>& in = net.node(node).fanins;
  if (pat.kind == Pattern::Kind::kInv)
    return net.is_inv(node) && shape_embeds(net, *pat.child[0], in[0], false);
  const auto both = [&](NodeId a, NodeId b) {
    return shape_embeds(net, *pat.child[0], a, false) &&
           shape_embeds(net, *pat.child[1], b, false);
  };
  return net.is_nand2(node) && (both(in[0], in[1]) || both(in[1], in[0]));
}

}  // namespace detail

/// All matches of library gates at subject node `n`, in library and pattern
/// order, without repeats. Zero-size matches (a pattern that is one leaf)
/// are listed; the compact store drops them.
inline std::vector<Match> find_matches(const Network& subject, NodeId n,
                                       const Library& lib) {
  std::vector<Match> out;
  if (!subject.node(n).is_internal()) return out;
  for (const Gate& g : lib.gates())
    for (const auto& pat : g.patterns) {
      detail::Embedding e{std::vector<NodeId>(g.pins.size(), kNoNode), {}};
      if (!detail::embed(subject, *pat, n, true, e) ||
          std::find(e.binding.begin(), e.binding.end(), kNoNode) !=
              e.binding.end())
        continue;
      std::sort(e.covered.begin(), e.covered.end());
      e.covered.erase(std::unique(e.covered.begin(), e.covered.end()),
                      e.covered.end());
      const bool repeat =
          std::any_of(out.begin(), out.end(), [&](const Match& m) {
            return m.gate == &g && m.pin_binding == e.binding &&
                   m.covered == e.covered;
          });
      if (!repeat) out.push_back({&g, e.binding, e.covered});
    }
  return out;
}

/// The (internal node, pattern) pairs whose pattern structure embeds at the
/// node: the tries an exact shape filter lets through.
inline std::uint64_t pattern_tries(const Network& subject,
                                   const Library& lib) {
  std::uint64_t tries = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(subject.capacity()); ++n) {
    if (!subject.node(n).is_internal()) continue;
    for (const Gate& g : lib.gates())
      for (const auto& pat : g.patterns)
        tries += detail::shape_embeds(subject, *pat, n, true);
  }
  return tries;
}

}  // namespace minpower::testing
