#pragma once
// Structural matching of library gate patterns against a NAND2/INV subject
// graph (Figure 2 terminology: merged(n,g) and inputs(n,g)).

#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace minpower {

struct Match {
  const Gate* gate = nullptr;
  /// Subject node bound to each gate pin (pin order = Gate::pins order).
  std::vector<NodeId> pin_binding;
  /// merged(n,g): subject nodes covered by the match, root included.
  std::vector<NodeId> covered;
};

/// All matches of library gates at subject node `n`.
///
/// A match is admissible when every covered node other than the root has a
/// single reader inside the match (covering a multi-fanout node would force
/// logic duplication); `inputs(n,g)` — the pin bindings — may be any nodes,
/// including multi-fanout ones and PIs.
std::vector<Match> find_matches(const Network& subject, NodeId n,
                                const Library& lib);

/// The match lists of a whole subject network, indexed by NodeId; entries of
/// PIs, constants and dead slots are empty.
using SubjectMatches = std::vector<std::vector<Match>>;

/// Every internal node's matches (find_matches without degenerate
/// zero-size ones), the mapper's first phase. They depend only on the
/// subject and the library, so every mapping of one subject can share
/// them. The subject must be a NAND2/INV network and every internal node
/// must have a match (a library without NAND2 and INV has none).
SubjectMatches enumerate_matches(const Network& subject, const Library& lib);

}  // namespace minpower
