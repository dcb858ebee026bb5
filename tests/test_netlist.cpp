#include <gtest/gtest.h>

#include "helpers.hpp"
#include "netlist/network.hpp"

namespace minpower {
namespace {

Network small_and_or() {
  // f = (a·b) + c
  Network net("tiny");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId ab = net.add_and2(a, b, "ab");
  const NodeId f = net.add_or2(ab, c, "f");
  net.add_po("out", f);
  return net;
}

TEST(Network, ConstructionAndCounts) {
  Network net = small_and_or();
  net.check();
  EXPECT_EQ(net.pis().size(), 3u);
  EXPECT_EQ(net.pos().size(), 1u);
  EXPECT_EQ(net.num_internal(), 2u);
  EXPECT_EQ(net.depth(), 2);
}

TEST(Network, Eval) {
  Network net = small_and_or();
  EXPECT_FALSE(net.eval({false, false, false})[0]);
  EXPECT_TRUE(net.eval({true, true, false})[0]);
  EXPECT_TRUE(net.eval({false, false, true})[0]);
  EXPECT_FALSE(net.eval({true, false, false})[0]);
}

TEST(Network, FanoutBookkeeping) {
  Network net = small_and_or();
  const NodeId a = net.find("a");
  const NodeId ab = net.find("ab");
  EXPECT_EQ(net.node(a).fanouts.size(), 1u);
  EXPECT_EQ(net.fanout_count(ab), 1);
  EXPECT_EQ(net.po_refs(net.find("f")), 1);
  EXPECT_EQ(net.fanout_count(net.find("f")), 1);
}

TEST(Network, TopoOrderRespectsEdges) {
  Network net = small_and_or();
  const auto order = net.topo_order();
  std::vector<int> position(net.capacity(), -1);
  for (std::size_t i = 0; i < order.size(); ++i)
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
    for (NodeId f : net.node(id).fanins)
      EXPECT_LT(position[static_cast<std::size_t>(f)],
                position[static_cast<std::size_t>(id)]);
}

TEST(Network, ReplaceEverywhere) {
  Network net = small_and_or();
  const NodeId c = net.find("c");
  const NodeId ab = net.find("ab");
  // Rewire the OR's 'c' input to read 'ab' instead.
  net.replace_everywhere(c, ab);
  net.check();
  EXPECT_TRUE(net.node(c).fanouts.empty());
  EXPECT_EQ(net.fanout_count(ab), 2);
}

TEST(Network, SweepRemovesDeadLogic) {
  Network net = small_and_or();
  const NodeId a = net.find("a");
  const NodeId b = net.find("b");
  net.add_and2(a, b, "dead");  // not reachable from any PO
  EXPECT_EQ(net.num_internal(), 3u);
  const int removed = net.sweep();
  EXPECT_GE(removed, 1);
  EXPECT_EQ(net.num_internal(), 2u);
  net.check();
}

TEST(Network, SweepCollapsesBuffers) {
  Network net("buf");
  const NodeId a = net.add_pi("a");
  const NodeId b1 = net.add_buf(a, "b1");
  const NodeId b2 = net.add_buf(b1, "b2");
  net.add_po("out", b2);
  net.sweep();
  net.check();
  EXPECT_EQ(net.num_internal(), 0u);
  EXPECT_EQ(net.pos()[0].driver, a);
}

TEST(Network, SweepPropagatesConstantCover) {
  Network net("konst");
  const NodeId a = net.add_pi("a");
  // Node with tautological cover: f = a + !a is normalized to 1 by cover
  // construction only if normalize is called; build explicitly:
  Cover c{{Cube::one()}};
  const NodeId one = net.add_node({a}, c, "one");
  net.add_po("out", one);
  net.sweep();
  net.check();
  EXPECT_EQ(net.num_internal(), 0u);
  EXPECT_EQ(net.node(net.pos()[0].driver).kind, NodeKind::kConstant1);
}

TEST(Network, DuplicateIsIndependent) {
  Network net = small_and_or();
  Network copy = net.duplicate();
  copy.add_pi("extra");
  EXPECT_EQ(net.pis().size(), 3u);
  EXPECT_EQ(copy.pis().size(), 4u);
  EXPECT_EQ(copy.find("ab"), net.find("ab"));  // ids preserved
}

TEST(Network, SubjectGraphPredicates) {
  Network net("subject");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  const NodeId i = net.add_inv(n);
  net.add_po("out", i);
  EXPECT_TRUE(net.is_nand2(n));
  EXPECT_TRUE(net.is_inv(i));
  EXPECT_FALSE(net.is_inv(n));
  EXPECT_TRUE(net.is_nand_network());

  const NodeId o = net.add_or2(a, b);
  net.add_po("out2", o);
  EXPECT_FALSE(net.is_nand_network());
}

TEST(Network, UnitDepths) {
  Network net = small_and_or();
  const auto d = net.unit_depths();
  EXPECT_EQ(d[static_cast<std::size_t>(net.find("a"))], 0);
  EXPECT_EQ(d[static_cast<std::size_t>(net.find("ab"))], 1);
  EXPECT_EQ(d[static_cast<std::size_t>(net.find("f"))], 2);
}

TEST(Network, FreshNamesAreUnique) {
  Network net("names");
  net.add_pi("n_0");  // collides with the generator's first pick
  const std::string f1 = net.fresh_name("n");
  const std::string f2 = net.fresh_name("n");
  EXPECT_NE(f1, "n_0");
  EXPECT_NE(f1, f2);
}

TEST(Network, EvalMatchesTruthTableOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Network net = testing::random_network(seed, 5, 10, 2);
    // Exhaustive truth table is self-consistent with repeated evals.
    const auto tables = testing::truth_tables(net);
    ASSERT_EQ(tables.size(), net.pos().size());
    EXPECT_EQ(tables[0].size(), 32u);
  }
}

TEST(Network, RemoveNodeRequiresNoReaders) {
  Network net = small_and_or();
  const NodeId f = net.find("f");
  // 'f' drives a PO; removing the PO reference first is required. Retarget
  // the PO to another node, then removal must succeed.
  net.set_po_driver(0, net.find("ab"));
  net.remove_node(f);
  net.check();
  EXPECT_EQ(net.num_internal(), 1u);
}

// The PO reference count is cached on each node. Every edit that moves a PO
// must keep it equal to a scan of the PO list, and check() recounts it.
TEST(Network, CachedPoRefsFollowEveryEdit) {
  Network net("porefs");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b, "n");
  const NodeId buf = net.add_buf(n, "buf");
  const NodeId dead = net.add_inv(a, "dead");
  net.add_po("o1", buf);
  net.add_po("o2", buf);
  net.add_po("o3", a);
  const auto expect_counts_match_scan = [&net] {
    net.check();
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      int scanned = 0;
      for (const PrimaryOutput& po : net.pos())
        if (po.driver == id) ++scanned;
      EXPECT_EQ(net.po_refs(id), scanned) << net.node(id).name;
      EXPECT_EQ(net.fanout_count(id),
                static_cast<int>(net.node(id).fanouts.size()) + scanned);
    }
  };
  expect_counts_match_scan();
  EXPECT_EQ(net.po_refs(buf), 2);
  EXPECT_EQ(net.fanout_count(a), 3);  // n, dead and o3

  net.set_po_driver(2, n);
  expect_counts_match_scan();
  EXPECT_EQ(net.po_refs(a), 0);
  EXPECT_EQ(net.fanout_count(n), 2);  // buf and o3

  net.remove_node(dead);
  expect_counts_match_scan();

  const NodeId m = net.add_nand2(b, a, "m");
  net.replace_everywhere(n, m);
  expect_counts_match_scan();
  EXPECT_EQ(net.po_refs(n), 0);
  EXPECT_EQ(net.po_refs(m), 1);

  // Sweep drops the orphaned n and collapses buf onto m: all three POs.
  net.sweep();
  expect_counts_match_scan();
  EXPECT_TRUE(net.node(n).is_dead());
  EXPECT_TRUE(net.node(buf).is_dead());
  EXPECT_EQ(net.po_refs(m), 3);
  EXPECT_EQ(net.fanout_count(m), 3);

  net.node(m).po_refs = 2;  // out of step with the PO list
  EXPECT_DEATH(net.check(), "cached PO reference count");
}

}  // namespace
}  // namespace minpower
