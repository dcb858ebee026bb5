// Reproduces Figure 1 and its footnote: the 4-input AND decomposition
// example with P(a)=0.3, P(b)=0.4, P(c)=0.7, P(d)=0.5 under p-type domino
// logic.
//   * SR(A) = 2.146 for configuration A = ((a·b)·c)·d
//   * SR(B) = 2.412 for configuration B = (a·b)·(c·d)
//   * footnote 1: with a library of 2- and 3-input AND gates (no AND4), the
//     minimum-power mapping has value 2.026 and comes from configuration A.

#include <cstdio>

#include "decomp/huffman.hpp"
#include "decomp/network_decompose.hpp"
#include "map/mapper.hpp"
#include "power/report.hpp"

using namespace minpower;

namespace {

double config_cost(const std::vector<int>& merge_order,
                   const std::vector<double>& p) {
  // merge_order lists node pairs in creation order over ids 0..3 then 4...
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  DecompTree t;
  t.num_leaves = 4;
  for (int i = 0; i < 4; ++i) {
    DecompTree::TNode leaf;
    leaf.leaf = i;
    t.nodes.push_back(leaf);
  }
  for (std::size_t i = 0; i + 1 < merge_order.size(); i += 2) {
    DecompTree::TNode n;
    n.left = merge_order[i];
    n.right = merge_order[i + 1];
    t.nodes.push_back(n);
  }
  t.root = static_cast<int>(t.nodes.size()) - 1;
  double leaves = 0.0;
  for (double x : p) leaves += x;  // leaf activity (dynamic p: E = p)
  return t.internal_cost(model, p) + leaves;
}

}  // namespace

int main() {
  const std::vector<double> p{0.3, 0.4, 0.7, 0.5};

  std::printf("Figure 1 — effect of decomposition on total switching "
              "activity (p-type domino)\n\n");
  const double sr_a = config_cost({0, 1, 4, 2, 5, 3}, p);
  const double sr_b = config_cost({0, 1, 2, 3, 4, 5}, p);
  std::printf("SR(A) = %.3f   (paper: 2.146)\n", sr_a);
  std::printf("SR(B) = %.3f   (paper: 2.412)\n", sr_b);

  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  const DecompTree h = huffman_tree(p, model);
  double leaves = 0.0;
  for (double x : p) leaves += x;
  std::printf("Huffman (Algorithm 2.1): SR = %.3f (<= SR(A): the figure "
              "compares two configurations;\n"
              "  the Huffman tree is the provable optimum, Theorem 2.2)\n\n",
              h.internal_cost(model, p) + leaves);

  // Footnote 1: map the AND4 over a {AND2, AND3} library and measure total
  // switching activity of all exposed nets (leaves + mapped gate outputs).
  // Unit caps and normalized voltage/clock make reported µW equal raw
  // activity sums.
  const std::string genlib =
      "GATE and2 1.0 O=a*b;   PIN * NONINV 1.0 999 1.0 0.0 1.0 0.0\n"
      "GATE and3 1.0 O=a*b*c; PIN * NONINV 1.0 999 1.0 0.0 1.0 0.0\n"
      "GATE inv  1.0 O=!a;    PIN * INV    1.0 999 1.0 0.0 1.0 0.0\n"
      "GATE nand2 1.0 O=!(a*b); PIN * INV  1.0 999 1.0 0.0 1.0 0.0\n";
  const Library lib = Library::parse_genlib(genlib, "fig1");

  // Subject graph: the AND4 as AND2/INV (via the generic NAND decomposition
  // of the single-cube cover with MINPOWER shapes).
  Network net("fig1");
  std::vector<NodeId> pis;
  for (const char* name : {"a", "b", "c", "d"}) pis.push_back(net.add_pi(name));
  Cover and4{{Cube::literal(0, true) & Cube::literal(1, true) &
              Cube::literal(2, true) & Cube::literal(3, true)}};
  const NodeDecomp plan =
      decompose_node(and4, p, CircuitStyle::kDynamicP, DecompAlgorithm::kMinPower);
  net.add_po("f", emit_node_decomp(net, pis, plan));
  net.sweep();

  MapOptions o;
  o.objective = MapObjective::kPower;
  o.style = CircuitStyle::kDynamicP;
  o.policy = RequiredTimePolicy::kUnconstrained;
  o.vdd = 1.0;
  o.t_cycle = 5e-9;  // makes load_power_uw(1, E) == E exactly
  o.po_load = 1.0;
  o.pi_prob1 = p;
  const MapResult r = map_network(net, lib, o);
  const MappedReport rep = evaluate_mapped(r.mapped, PowerParams::from(o));
  std::printf("Footnote 1 — min-power mapping with {AND2, AND3} library:\n");
  std::printf("  mapped gates: %zu, total switching value = %.3f "
              "(paper: 2.026)\n",
              rep.num_gates, rep.power_uw);
  for (const MappedGateInst& g : r.mapped.gates)
    std::printf("    %s\n", g.gate->name.c_str());

  // The paper's 2.026 is the best mapping of configuration A:
  // AND3(a,b,c) exposes P(abc)=0.084, then AND2(·,d) exposes the root
  // 0.042, plus the leaves (1.9). Our mapper starts from the Huffman tree
  // ((a·b)·d)·c and finds 1.9 + P(abd)=0.06 + 0.042 = 2.002 — strictly
  // better; the footnote's value is reproduced analytically:
  const double config_a_best = 1.9 + 0.3 * 0.4 * 0.7 + 0.3 * 0.4 * 0.7 * 0.5;
  std::printf("  configuration-A best mapping (paper's footnote): %.3f\n",
              config_a_best);
  return 0;
}
