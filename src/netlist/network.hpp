#pragma once
// Boolean network: the multi-level logic representation shared by every
// phase of the flow (technology-independent optimization, NAND decomposition,
// technology mapping, power estimation).
//
// The network is a DAG of nodes. Internal nodes carry a sum-of-products
// (Cover) over their fanins; primary inputs and constants carry none.
// Primary outputs are named references to driver nodes.
//
// Node ids are stable: deleting a node leaves a tombstone, and `compact()`
// is never required for correctness. All structure-mutating operations keep
// fanin/fanout lists consistent; `check()` validates every invariant and is
// exercised by tests after each transformation.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sop/cover.hpp"
#include "util/check.hpp"

namespace minpower {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

enum class NodeKind : std::uint8_t {
  kPrimaryInput,
  kConstant0,
  kConstant1,
  kInternal,
  kDead,  // tombstone
};

struct Node {
  NodeKind kind = NodeKind::kDead;
  std::string name;
  std::vector<NodeId> fanins;
  std::vector<NodeId> fanouts;  // internal nodes reading this one (with dups
                                // collapsed; PO references tracked separately)
  Cover cover;                  // function over fanins (internal nodes only)
  int po_refs = 0;              // POs driven by this node (kept by Network)

  bool is_pi() const { return kind == NodeKind::kPrimaryInput; }
  bool is_const() const {
    return kind == NodeKind::kConstant0 || kind == NodeKind::kConstant1;
  }
  bool is_internal() const { return kind == NodeKind::kInternal; }
  bool is_dead() const { return kind == NodeKind::kDead; }
};

struct PrimaryOutput {
  std::string name;
  NodeId driver = kNoNode;
};

class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction -------------------------------------------------------

  NodeId add_pi(const std::string& name);
  NodeId add_constant(bool value, const std::string& name = "");

  /// Add an internal node computing `cover` over `fanins`.
  /// Variable i of the cover refers to fanins[i].
  NodeId add_node(std::vector<NodeId> fanins, Cover cover,
                  const std::string& name = "");

  /// Convenience subject-graph constructors.
  NodeId add_inv(NodeId a, const std::string& name = "");
  NodeId add_buf(NodeId a, const std::string& name = "");
  NodeId add_nand2(NodeId a, NodeId b, const std::string& name = "");
  NodeId add_and2(NodeId a, NodeId b, const std::string& name = "");
  NodeId add_or2(NodeId a, NodeId b, const std::string& name = "");

  void add_po(const std::string& name, NodeId driver);
  void set_po_driver(std::size_t po_index, NodeId driver);

  // ---- access --------------------------------------------------------------

  std::size_t capacity() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Node& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }

  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<PrimaryOutput>& pos() const { return pos_; }

  NodeId find(const std::string& name) const;

  std::size_t num_internal() const;
  std::size_t num_live() const;
  int num_literals() const;

  /// Number of PO references to `id` (POs are fanouts too for sweeping and
  /// load purposes but are not in Node::fanouts). O(1): cached on the node.
  int po_refs(NodeId id) const { return node(id).po_refs; }

  /// Fanout degree including PO references.
  int fanout_count(NodeId id) const {
    return static_cast<int>(node(id).fanouts.size()) + po_refs(id);
  }

  // ---- structure edits ------------------------------------------------------

  /// Redirect every reader of `from` (internal fanins and POs) to `to`.
  void replace_everywhere(NodeId from, NodeId to);

  /// Delete `id` (must have no readers).
  void remove_node(NodeId id);

  /// Remove dead logic: nodes with no path to a PO, plus propagate constants
  /// and collapse single-input identity/inverter chains where trivial.
  /// Returns number of nodes removed.
  int sweep();

  // ---- analysis --------------------------------------------------------------

  /// Topological order over live nodes (PIs and constants first).
  std::vector<NodeId> topo_order() const;

  /// Unit-delay depth of each node (PIs at their arrival time, default 0).
  std::vector<int> unit_depths() const;

  /// Largest unit-delay PO depth.
  int depth() const;

  /// Evaluate the network on a PI assignment (by PI order). Returns PO values.
  std::vector<bool> eval(const std::vector<bool>& pi_values) const;

  /// Deep copy.
  Network duplicate() const;

  /// Validate all invariants (fanin/fanout symmetry, cover supports, kinds,
  /// acyclicity). Aborts on violation.
  void check() const;

  /// True when every internal node is a NAND2, INV or BUF (a subject graph).
  bool is_nand_network() const;

  /// Subject-graph node classification.
  bool is_inv(NodeId id) const;
  bool is_buf(NodeId id) const;
  bool is_nand2(NodeId id) const;

  /// Fresh unique node name with the given prefix.
  std::string fresh_name(const std::string& prefix);

 private:
  NodeId alloc(NodeKind kind, const std::string& name);
  void add_fanout_edge(NodeId driver, NodeId reader);
  void drop_fanout_edge(NodeId driver, NodeId reader);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<PrimaryOutput> pos_;
  std::unordered_map<std::string, NodeId> by_name_;
  int name_counter_ = 0;
};

/// Standard covers for the subject-graph primitives.
Cover nand2_cover();
Cover inv_cover();
Cover buf_cover();
Cover and2_cover();
Cover or2_cover();

}  // namespace minpower
