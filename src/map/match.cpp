#include "map/match.hpp"

#include <algorithm>
#include <utility>

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

/// Per subject node, the bitset of the library's shapes (ShapeTable ids)
/// the node can root: bit s of node n is set when match_rec's structural
/// rules, pin labels aside, admit shape s at n. A pattern whose root shape
/// is not in its node's label cannot match there, so the label is an exact
/// filter: every successful match embeds its pattern's shape.
class ShapeLabels {
 public:
  ShapeLabels(const Network& net, const ShapeTable& table)
      : words_((table.size() + 63) / 64), bits_(net.capacity() * words_, 0) {
    for (std::size_t i = 0; i < bits_.size(); i += words_)
      bits_[i] = 1;  // every node can root the leaf (shape 0)
    // A child of an interior pattern node can root a leaf, or any shape of
    // its own label when it has one reader (match_rec's interior rule).
    const auto usable = [&](NodeId c, std::uint32_t s) {
      return s == 0 || (net.fanout_count(c) == 1 && has(c, s));
    };
    const std::vector<Shape>& shapes = table.shapes();
    for (const NodeId id : net.topo_order()) {
      const Pattern::Kind kind = net.is_inv(id)     ? Pattern::Kind::kInv
                                 : net.is_nand2(id) ? Pattern::Kind::kNand
                                                    : Pattern::Kind::kLeaf;
      if (kind == Pattern::Kind::kLeaf) continue;
      const std::vector<NodeId>& in = net.node(id).fanins;
      for (std::uint32_t s = 1; s < shapes.size(); ++s) {
        const Shape& sh = shapes[s];
        if (sh.kind != kind) continue;
        const std::uint32_t x = sh.child[0];
        const std::uint32_t y = sh.child[1];
        if (kind == Pattern::Kind::kInv
                ? usable(in[0], x)
                : (usable(in[0], x) && usable(in[1], y)) ||
                      (usable(in[0], y) && usable(in[1], x)))
          bits_[row(id) + s / 64] |= std::uint64_t{1} << (s % 64);
      }
    }
  }

  bool has(NodeId n, std::uint32_t s) const {
    return (bits_[row(n) + s / 64] >> (s % 64)) & 1;
  }

 private:
  std::size_t row(NodeId n) const {
    return static_cast<std::size_t>(n) * words_;
  }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;  // node n: words [row(n), row(n) + words_)
};

/// Calls `found(gate, binding, covered)` for every pattern of every gate
/// that matches at `n`, in library and pattern order, with `covered`
/// sorted and free of repeats. Only patterns whose root shape (`roots`,
/// PatternShapes order) is in `n`'s label are tried; `tries` counts them.
/// A gate whose patterns match the same way twice reports each time; the
/// caller drops the repeats.
template <class Found>
void each_match(NodeId n, const Library& lib,
                std::span<const std::uint32_t> roots,
                const ShapeLabels& labels, MatchState& st,
                std::uint64_t& tries, Found&& found) {
  const std::uint32_t* root = roots.data();
  for (const Gate& g : lib.gates()) {
    for (const auto& pat : g.patterns) {
      if (!labels.has(n, *root++)) continue;
      ++tries;
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
      found(g, std::as_const(st.binding), std::as_const(st.covered));
    }
  }
}

bool same_timing(const GatePin& a, const GatePin& b) {
  return a.intrinsic == b.intrinsic && a.drive == b.drive && a.cap == b.cap;
}

/// A match's class key given its gate: per pin, the bound node and the
/// index of the gate's first pin with the same timing, sorted. Two matches
/// of one gate have equal keys iff their multisets of (input node, pin
/// timing) are equal.
void class_key(const Gate& g, std::span<const NodeId> binding,
               std::vector<std::uint64_t>& key) {
  key.clear();
  for (std::size_t p = 0; p < binding.size(); ++p) {
    std::size_t timing = 0;
    while (timing < p && !same_timing(g.pins[timing], g.pins[p])) ++timing;
    key.push_back(static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(binding[p]))
                      << 32 |
                  timing);
  }
  std::sort(key.begin(), key.end());
}

}  // namespace

SubjectMatches enumerate_matches(const Network& subject, const Library& lib) {
  trace::Span span("match", "map");
  span.arg("network", subject.name());
  subject.check();
  SubjectMatches store;
  store.first_.reserve(subject.capacity() + 1);
  // Per-node registry lookups are too hot for the loop; handles stay valid
  // across reset().
  static metrics::Histogram& matches_per_node =
      metrics::histogram("map.matches_per_node");
  const PatternShapes& shapes = lib.shapes();
  const ShapeLabels labels(subject, shapes.table);
  std::uint64_t tries = 0;
  MatchState st;
  st.net = &subject;
  // The covered sets of the current node's matches: match i's set is
  // covered[covered_at[i], covered_at[i + 1]).
  std::vector<NodeId> covered;
  std::vector<std::uint32_t> covered_at;
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> other_key;
  for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id) {
    const auto first = static_cast<std::uint32_t>(store.entries_.size());
    store.first_.push_back(first);
    if (!subject.node(id).is_internal()) continue;
    MP_CHECK_MSG(subject.is_nand2(id) || subject.is_inv(id),
                 "mapper requires a NAND2/INV subject network");
    covered.clear();
    covered_at.assign(1, 0);
    each_match(id, lib, shapes.roots, labels, st, tries,
               [&](const Gate& g, const std::vector<NodeId>& binding,
                   const std::vector<NodeId>& cov) {
      // Degenerate (zero-size) patterns are rejected here, not by the
      // matcher.
      if (cov.empty()) return;
      const auto self =
          static_cast<std::uint32_t>(store.entries_.size() - first);
      std::uint32_t cls = self;
      key.clear();
      // Only matches of the same gate over the same covered set can repeat
      // this one or share its class; the gate test rejects almost all.
      for (std::uint32_t i = 0; i < self; ++i) {
        const SubjectMatches::Entry& e = store.entries_[first + i];
        if (e.gate != &g ||
            !std::equal(covered.begin() + covered_at[i],
                        covered.begin() + covered_at[i + 1], cov.begin(),
                        cov.end()))
          continue;
        const std::span<const NodeId> bound = store.pins(e);
        // The same match from another pattern of the gate.
        if (std::equal(bound.begin(), bound.end(), binding.begin(),
                       binding.end()))
          return;
        if (cls != self) continue;
        if (key.empty()) class_key(g, binding, key);
        class_key(g, bound, other_key);
        if (key == other_key) cls = e.cls;
      }
      if (cls == self) ++store.classes_;
      store.entries_.push_back(
          {&g, static_cast<std::uint32_t>(store.pins_.size()), cls});
      store.pins_.insert(store.pins_.end(), binding.begin(), binding.end());
      covered.insert(covered.end(), cov.begin(), cov.end());
      covered_at.push_back(static_cast<std::uint32_t>(covered.size()));
    });
    const std::size_t n = store.entries_.size() - first;
    MP_CHECK_MSG(n > 0, "no match at subject node (library too small)");
    matches_per_node.record(n);
  }
  store.first_.push_back(static_cast<std::uint32_t>(store.entries_.size()));
  store.entries_.shrink_to_fit();
  store.pins_.shrink_to_fit();
  metrics::counter("map.match_attempts").add(store.num_matches());
  metrics::counter("map.match_classes").add(store.num_classes());
  metrics::counter("map.pattern_tries").add(tries);
  metrics::gauge("map.match_store_bytes").record_max(store.bytes());
  span.arg("matches", static_cast<unsigned long long>(store.num_matches()));
  span.arg("tries", static_cast<unsigned long long>(tries));
  return store;
}

}  // namespace minpower
