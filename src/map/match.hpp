#pragma once
// Structural matching of library gate patterns against a NAND2/INV subject
// graph (Figure 2 terminology: merged(n,g) and inputs(n,g)).

#include <cstdint>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace minpower {

/// The match lists of a whole subject network in one compact store: per
/// match a gate, an offset into one flat pin-binding array and a duplicate
/// class. Node n's matches are, in library and pattern order, each gate
/// pattern's first embedding at n (a NAND's fanins in order, then swapped),
/// without repeats and without degenerate zero-size ones; PIs, constants
/// and dead slots have none. A match is admissible when every covered node
/// other than the root has a single reader (covering a multi-fanout node
/// would force logic duplication); its pin bindings (inputs(n,g)) may be
/// any nodes, multi-fanout ones and PIs included. The covered sets (merged(n,g)) are not kept: enumeration reads
/// them to remove duplicates and to tag classes, and nothing after it does.
///
/// A duplicate class groups a node's matches that share the gate, the
/// covered set and the multiset of (input node, pin timing): the same
/// symmetric gate with its pins permuted. Every member meets the same
/// candidate lists, so the curve DP sweeps a class once.
class SubjectMatches {
 public:
  struct Entry {
    const Gate* gate = nullptr;
    std::uint32_t pins = 0;  // offset of pin 0's binding in the pin array
    std::uint32_t cls = 0;   // index at the node of the class's first member
  };

  /// Node slots (the subject's capacity).
  std::size_t size() const { return first_.empty() ? 0 : first_.size() - 1; }

  std::span<const Entry> at(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return {entries_.data() + first_[i], first_[i + 1] - first_[i]};
  }

  /// The subject node bound to each of `m`'s gate pins, in pin order.
  std::span<const NodeId> pins(const Entry& m) const {
    return {pins_.data() + m.pins, m.gate->pins.size()};
  }

  std::size_t num_matches() const { return entries_.size(); }
  std::size_t num_classes() const { return classes_; }

  /// Heap bytes the store holds (the map.match_store_bytes gauge).
  std::size_t bytes() const {
    return first_.capacity() * sizeof(std::uint32_t) +
           entries_.capacity() * sizeof(Entry) +
           pins_.capacity() * sizeof(NodeId);
  }

 private:
  friend SubjectMatches enumerate_matches(const Network& subject,
                                          const Library& lib);
  std::vector<std::uint32_t> first_;  // node n: [first_[n], first_[n + 1])
  std::vector<Entry> entries_;
  std::vector<NodeId> pins_;
  std::size_t classes_ = 0;
};

/// Every internal node's matches, the mapper's first phase. They depend
/// only on the subject and the library, so every mapping of one subject
/// can share them. The subject must be a NAND2/INV network and every
/// internal node must have a match (a library without NAND2 and INV has
/// none).
SubjectMatches enumerate_matches(const Network& subject, const Library& lib);

}  // namespace minpower
