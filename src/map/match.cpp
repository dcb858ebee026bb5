#include "map/match.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace minpower {

namespace {

struct MatchState {
  const Network* net = nullptr;
  std::vector<NodeId> binding;   // per pin
  std::vector<NodeId> covered;   // internal nodes consumed (excluding root)
  std::vector<int> bound;        // undo trail: pins bound, in binding order
};

/// Try to match `pat` rooted at subject `node`. `is_root` differentiates the
/// match root (fanout unconstrained) from interior nodes (must be exclusive
/// to the match). A failed attempt may leave partial work in `st`; the NAND
/// that tried it rolls `st` back to its own marks before the next order.
bool match_rec(const Pattern& pat, NodeId node, bool is_root, MatchState& st) {
  const Network& net = *st.net;
  if (pat.kind == Pattern::Kind::kLeaf) {
    NodeId& slot = st.binding[static_cast<std::size_t>(pat.pin)];
    if (slot == kNoNode) {
      slot = node;
      st.bound.push_back(pat.pin);
      return true;
    }
    return slot == node;  // leaf-DAG patterns: repeated pin must rebind same
  }
  // Interior subject nodes consumed by the pattern must not feed anything
  // outside the match.
  if (!is_root && net.fanout_count(node) != 1) return false;
  if (pat.kind == Pattern::Kind::kInv) {
    if (!net.is_inv(node)) return false;
    st.covered.push_back(node);
    return match_rec(*pat.child[0], net.node(node).fanins[0], false, st);
  }
  // NAND: try both input orders, undoing the first order's covered nodes
  // and pin bindings before trying the second.
  if (!net.is_nand2(node)) return false;
  st.covered.push_back(node);
  const NodeId a = net.node(node).fanins[0];
  const NodeId b = net.node(node).fanins[1];
  const std::size_t covered_mark = st.covered.size();
  const std::size_t bound_mark = st.bound.size();
  const auto undo = [&] {
    st.covered.resize(covered_mark);
    for (std::size_t i = bound_mark; i < st.bound.size(); ++i)
      st.binding[static_cast<std::size_t>(st.bound[i])] = kNoNode;
    st.bound.resize(bound_mark);
  };
  if (match_rec(*pat.child[0], a, false, st) &&
      match_rec(*pat.child[1], b, false, st))
    return true;
  undo();
  if (match_rec(*pat.child[0], b, false, st) &&
      match_rec(*pat.child[1], a, false, st))
    return true;
  undo();
  return false;
}

}  // namespace

std::vector<Match> find_matches(const Network& subject, NodeId n,
                                const Library& lib) {
  std::vector<Match> out;
  if (!subject.node(n).is_internal()) return out;
  MatchState st;
  st.net = &subject;
  for (const Gate& g : lib.gates()) {
    for (const auto& pat : g.patterns) {
      st.binding.assign(static_cast<std::size_t>(g.num_inputs()), kNoNode);
      st.covered.clear();
      st.bound.clear();
      if (!match_rec(*pat, n, true, st)) continue;
      // All pins must be bound (patterns mention every pin by construction,
      // but guard anyway).
      if (std::find(st.binding.begin(), st.binding.end(), kNoNode) !=
          st.binding.end())
        continue;
      std::sort(st.covered.begin(), st.covered.end());
      st.covered.erase(std::unique(st.covered.begin(), st.covered.end()),
                       st.covered.end());
      // Deduplicate identical (gate, binding) pairs arising from several
      // patterns of the same gate.
      bool dup = false;
      for (const Match& prev : out)
        if (prev.gate == &g && prev.pin_binding == st.binding &&
            prev.covered == st.covered) {
          dup = true;
          break;
        }
      if (!dup) out.push_back({&g, st.binding, st.covered});
    }
  }
  return out;
}

SubjectMatches enumerate_matches(const Network& subject, const Library& lib) {
  trace::Span span("match", "map");
  span.arg("network", subject.name());
  subject.check();
  SubjectMatches matches(subject.capacity());
  std::size_t total = 0;
  // Per-node registry lookups are too hot for the loop; handles stay valid
  // across reset().
  static metrics::Histogram& matches_per_node =
      metrics::histogram("map.matches_per_node");
  for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id) {
    if (!subject.node(id).is_internal()) continue;
    MP_CHECK_MSG(subject.is_nand2(id) || subject.is_inv(id),
                 "mapper requires a NAND2/INV subject network");
    std::vector<Match>& ms = matches[static_cast<std::size_t>(id)];
    ms = find_matches(subject, id, lib);
    // Degenerate (zero-size) patterns are rejected here, not by the matcher.
    std::erase_if(ms, [](const Match& m) { return m.covered.empty(); });
    MP_CHECK_MSG(!ms.empty(), "no match at subject node (library too small)");
    total += ms.size();
    matches_per_node.record(ms.size());
  }
  metrics::counter("map.match_attempts").add(total);
  span.arg("matches", static_cast<unsigned long long>(total));
  return matches;
}

}  // namespace minpower
