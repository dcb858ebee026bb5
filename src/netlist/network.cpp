#include "netlist/network.hpp"

#include <algorithm>
#include <bit>
#include <deque>

namespace minpower {

Cover nand2_cover() {
  return Cover{{Cube::literal(0, false), Cube::literal(1, false)}};
}
Cover inv_cover() { return Cover{{Cube::literal(0, false)}}; }
Cover buf_cover() { return Cover{{Cube::literal(0, true)}}; }
Cover and2_cover() {
  return Cover{{Cube::literal(0, true) & Cube::literal(1, true)}};
}
Cover or2_cover() {
  return Cover{{Cube::literal(0, true), Cube::literal(1, true)}};
}

NodeId Network::alloc(NodeKind kind, const std::string& name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.kind = kind;
  n.name = name.empty() ? fresh_name("n") : name;
  MP_CHECK_MSG(!by_name_.contains(n.name),
               ("duplicate node name: " + n.name).c_str());
  by_name_.emplace(n.name, id);
  nodes_.push_back(std::move(n));
  return id;
}

NodeId Network::add_pi(const std::string& name) {
  const NodeId id = alloc(NodeKind::kPrimaryInput, name);
  pis_.push_back(id);
  return id;
}

NodeId Network::add_constant(bool value, const std::string& name) {
  return alloc(value ? NodeKind::kConstant1 : NodeKind::kConstant0, name);
}

NodeId Network::add_node(std::vector<NodeId> fanins, Cover cover,
                         const std::string& name) {
  MP_CHECK(fanins.size() <= kMaxCubeVars);
  for (NodeId f : fanins) MP_CHECK(f >= 0 && !node(f).is_dead());
  // Cover may only mention variables < fanins.size().
  const std::uint64_t sup = cover.support();
  if (fanins.size() < 64) {
    MP_CHECK_MSG((sup >> fanins.size()) == 0,
                 "cover mentions variable beyond fanin list");
  }
  const NodeId id = alloc(NodeKind::kInternal, name);
  Node& n = node(id);
  n.fanins = std::move(fanins);
  n.cover = std::move(cover);
  for (NodeId f : n.fanins) add_fanout_edge(f, id);
  return id;
}

NodeId Network::add_inv(NodeId a, const std::string& name) {
  return add_node({a}, inv_cover(), name);
}
NodeId Network::add_buf(NodeId a, const std::string& name) {
  return add_node({a}, buf_cover(), name);
}
NodeId Network::add_nand2(NodeId a, NodeId b, const std::string& name) {
  return add_node({a, b}, nand2_cover(), name);
}
NodeId Network::add_and2(NodeId a, NodeId b, const std::string& name) {
  return add_node({a, b}, and2_cover(), name);
}
NodeId Network::add_or2(NodeId a, NodeId b, const std::string& name) {
  return add_node({a, b}, or2_cover(), name);
}

void Network::add_po(const std::string& name, NodeId driver) {
  MP_CHECK(driver >= 0 && !node(driver).is_dead());
  pos_.push_back(PrimaryOutput{name, driver});
  ++node(driver).po_refs;
}

void Network::set_po_driver(std::size_t po_index, NodeId driver) {
  MP_CHECK(po_index < pos_.size());
  MP_CHECK(driver >= 0 && !node(driver).is_dead());
  --node(pos_[po_index].driver).po_refs;
  pos_[po_index].driver = driver;
  ++node(driver).po_refs;
}

NodeId Network::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

std::size_t Network::num_internal() const {
  std::size_t n = 0;
  for (const Node& node : nodes_)
    if (node.is_internal()) ++n;
  return n;
}

std::size_t Network::num_live() const {
  std::size_t n = 0;
  for (const Node& node : nodes_)
    if (!node.is_dead()) ++n;
  return n;
}

int Network::num_literals() const {
  int n = 0;
  for (const Node& node : nodes_)
    if (node.is_internal()) n += node.cover.num_literals();
  return n;
}

void Network::add_fanout_edge(NodeId driver, NodeId reader) {
  node(driver).fanouts.push_back(reader);
}

void Network::drop_fanout_edge(NodeId driver, NodeId reader) {
  auto& fo = node(driver).fanouts;
  const auto it = std::find(fo.begin(), fo.end(), reader);
  MP_CHECK(it != fo.end());
  fo.erase(it);
}

void Network::replace_everywhere(NodeId from, NodeId to) {
  MP_CHECK(from != to);
  // Collect readers first: editing fanouts while iterating invalidates.
  std::vector<NodeId> readers = node(from).fanouts;
  for (NodeId r : readers) {
    Node& reader = node(r);
    for (NodeId& f : reader.fanins) {
      if (f == from) {
        f = to;
        drop_fanout_edge(from, r);
        add_fanout_edge(to, r);
      }
    }
  }
  for (PrimaryOutput& po : pos_)
    if (po.driver == from) po.driver = to;
  node(to).po_refs += node(from).po_refs;
  node(from).po_refs = 0;
}

void Network::remove_node(NodeId id) {
  Node& n = node(id);
  MP_CHECK(n.fanouts.empty() && po_refs(id) == 0);
  for (NodeId f : n.fanins) drop_fanout_edge(f, id);
  n.fanins.clear();
  n.cover = Cover{};
  by_name_.erase(n.name);
  if (n.is_pi()) pis_.erase(std::find(pis_.begin(), pis_.end(), id));
  n.kind = NodeKind::kDead;
}

int Network::sweep() {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
      Node& n = node(id);
      if (!n.is_internal()) continue;
      if (n.fanouts.empty() && po_refs(id) == 0) {
        remove_node(id);
        ++removed;
        changed = true;
        continue;
      }
      // Propagate constant fanins: cofactor the cover at the known value;
      // the canonicalization step below then drops the dead fanin slot.
      {
        bool cofactored = false;
        for (std::size_t i = 0; i < n.fanins.size(); ++i) {
          const Node& f = node(n.fanins[i]);
          if (!f.is_const() || !n.cover.support()) continue;
          if (!((n.cover.support() >> i) & 1)) continue;
          n.cover = n.cover.cofactor(static_cast<int>(i),
                                     f.kind == NodeKind::kConstant1);
          cofactored = true;
        }
        if (cofactored) {
          changed = true;
          continue;  // revisit: cover may now be constant or buffer-like
        }
      }
      // Canonicalize the fanin list: drop fanins the cover does not mention
      // and merge slots aliased to the same driver (replace_everywhere can
      // alias slots). Merged slots can make cubes contradictory or covers
      // constant; normalize() and the constant branch below handle that.
      {
        const std::uint64_t sup = n.cover.support();
        bool needs_rewrite = false;
        for (std::size_t i = 0; i < n.fanins.size(); ++i) {
          if (!((sup >> i) & 1)) needs_rewrite = true;
          for (std::size_t j = 0; j < i; ++j)
            if (n.fanins[i] == n.fanins[j]) needs_rewrite = true;
        }
        if (needs_rewrite) {
          std::vector<NodeId> new_fanins;
          std::vector<int> new_var(kMaxCubeVars, -1);
          for (std::size_t i = 0; i < n.fanins.size(); ++i) {
            if (!((sup >> i) & 1)) continue;
            const auto it = std::find(new_fanins.begin(), new_fanins.end(),
                                      n.fanins[i]);
            if (it == new_fanins.end()) {
              new_var[i] = static_cast<int>(new_fanins.size());
              new_fanins.push_back(n.fanins[i]);
            } else {
              new_var[i] = static_cast<int>(it - new_fanins.begin());
            }
          }
          Cover new_cover = n.cover.remap(new_var);
          for (NodeId f : n.fanins) drop_fanout_edge(f, id);
          n.fanins = std::move(new_fanins);
          n.cover = std::move(new_cover);
          for (NodeId f : n.fanins) add_fanout_edge(f, id);
          changed = true;
          continue;  // revisit this node with its canonical shape
        }
      }
      // Semantic constant detection: optimization passes can build covers
      // that are tautologies without containing the literal "1" cube
      // (e.g. !x + x after a collapse). Check minterm by minterm on small
      // supports; larger tautologies are left to the BDD-based passes.
      if (n.cover.num_cubes() >= 2 &&
          std::popcount(n.cover.support()) <= 12 && n.cover.is_tautology()) {
        n.cover = Cover::one();
        changed = true;
        continue;  // the constant branch below picks this up
      }
      // Collapse buffers: single positive-literal cover.
      if (n.fanins.size() == 1 && n.cover == buf_cover()) {
        const NodeId src = n.fanins[0];
        replace_everywhere(id, src);
        remove_node(id);
        ++removed;
        changed = true;
        continue;
      }
      // Constant covers.
      if (n.cover.is_zero() || n.cover.is_one()) {
        const bool value = n.cover.is_one();
        NodeId k = kNoNode;
        for (NodeId c = 0; c < static_cast<NodeId>(nodes_.size()); ++c) {
          const NodeKind want =
              value ? NodeKind::kConstant1 : NodeKind::kConstant0;
          if (nodes_[static_cast<std::size_t>(c)].kind == want) {
            k = c;
            break;
          }
        }
        if (k == kNoNode) k = add_constant(value);
        replace_everywhere(id, k);
        remove_node(id);
        ++removed;
        changed = true;
        continue;
      }
    }
  }
  return removed;
}

std::vector<NodeId> Network::topo_order() const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<std::uint8_t> state(nodes_.size(), 0);  // 0 new, 1 open, 2 done
  // Iterative DFS from every live node.
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < static_cast<NodeId>(nodes_.size()); ++root) {
    if (node(root).is_dead() || state[static_cast<std::size_t>(root)] == 2)
      continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId id = stack.back();
      auto& st = state[static_cast<std::size_t>(id)];
      if (st == 2) {
        stack.pop_back();
        continue;
      }
      if (st == 0) {
        st = 1;
        for (NodeId f : node(id).fanins) {
          const auto fs = state[static_cast<std::size_t>(f)];
          MP_CHECK_MSG(fs != 1, "combinational cycle in network");
          if (fs == 0) stack.push_back(f);
        }
      } else {  // st == 1: all fanins done
        st = 2;
        order.push_back(id);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::vector<int> Network::unit_depths() const {
  std::vector<int> depth(nodes_.size(), 0);
  for (NodeId id : topo_order()) {
    const Node& n = node(id);
    if (!n.is_internal()) continue;
    int d = 0;
    for (NodeId f : n.fanins)
      d = std::max(d, depth[static_cast<std::size_t>(f)]);
    depth[static_cast<std::size_t>(id)] = d + 1;
  }
  return depth;
}

int Network::depth() const {
  const std::vector<int> d = unit_depths();
  int out = 0;
  for (const PrimaryOutput& po : pos_)
    out = std::max(out, d[static_cast<std::size_t>(po.driver)]);
  return out;
}

std::vector<bool> Network::eval(const std::vector<bool>& pi_values) const {
  MP_CHECK(pi_values.size() == pis_.size());
  std::vector<char> value(nodes_.size(), 0);
  for (std::size_t i = 0; i < pis_.size(); ++i)
    value[static_cast<std::size_t>(pis_[i])] = pi_values[i] ? 1 : 0;
  for (NodeId id : topo_order()) {
    const Node& n = node(id);
    if (n.kind == NodeKind::kConstant1) value[static_cast<std::size_t>(id)] = 1;
    if (!n.is_internal()) continue;
    std::uint64_t assignment = 0;
    for (std::size_t i = 0; i < n.fanins.size(); ++i)
      if (value[static_cast<std::size_t>(n.fanins[i])])
        assignment |= std::uint64_t{1} << i;
    value[static_cast<std::size_t>(id)] = n.cover.eval(assignment) ? 1 : 0;
  }
  std::vector<bool> out;
  out.reserve(pos_.size());
  for (const PrimaryOutput& po : pos_)
    out.push_back(value[static_cast<std::size_t>(po.driver)] != 0);
  return out;
}

Network Network::duplicate() const {
  Network copy = *this;  // value semantics: vectors and map copy cleanly
  return copy;
}

void Network::check() const {
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const Node& n = node(id);
    if (n.is_dead()) {
      MP_CHECK(n.fanins.empty() && n.fanouts.empty());
      continue;
    }
    if (n.is_internal()) {
      const std::uint64_t sup = n.cover.support();
      if (n.fanins.size() < 64) MP_CHECK((sup >> n.fanins.size()) == 0);
      for (NodeId f : n.fanins) {
        MP_CHECK(f >= 0 && f < static_cast<NodeId>(nodes_.size()));
        MP_CHECK(!node(f).is_dead());
        const auto& fo = node(f).fanouts;
        MP_CHECK(std::find(fo.begin(), fo.end(), id) != fo.end());
      }
    } else {
      MP_CHECK(n.fanins.empty());
    }
    for (NodeId r : n.fanouts) {
      const auto& fi = node(r).fanins;
      MP_CHECK(std::find(fi.begin(), fi.end(), id) != fi.end());
    }
  }
  std::vector<int> refs(nodes_.size(), 0);
  for (const PrimaryOutput& po : pos_) {
    MP_CHECK(po.driver >= 0 && !node(po.driver).is_dead());
    ++refs[static_cast<std::size_t>(po.driver)];
  }
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id)
    MP_CHECK_MSG(node(id).po_refs == refs[static_cast<std::size_t>(id)],
                 "cached PO reference count out of step");
  (void)topo_order();  // aborts on cycles
}

bool Network::is_nand_network() const {
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const Node& n = node(id);
    if (!n.is_internal()) continue;
    if (!is_nand2(id) && !is_inv(id) && !is_buf(id)) return false;
  }
  return true;
}

bool Network::is_inv(NodeId id) const {
  const Node& n = node(id);
  return n.is_internal() && n.fanins.size() == 1 && n.cover == inv_cover();
}

bool Network::is_buf(NodeId id) const {
  const Node& n = node(id);
  return n.is_internal() && n.fanins.size() == 1 && n.cover == buf_cover();
}

bool Network::is_nand2(NodeId id) const {
  const Node& n = node(id);
  return n.is_internal() && n.fanins.size() == 2 && n.cover == nand2_cover();
}

std::string Network::fresh_name(const std::string& prefix) {
  for (;;) {
    std::string candidate = prefix + "_" + std::to_string(name_counter_++);
    if (!by_name_.contains(candidate)) return candidate;
  }
}

}  // namespace minpower
