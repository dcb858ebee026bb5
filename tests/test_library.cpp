#include <gtest/gtest.h>

#include "library/library.hpp"

namespace minpower {
namespace {

TEST(Expr, ParseAndFlatten) {
  const auto e = parse_expr("a*b*c + !d");
  ASSERT_EQ(e->kind, Expr::Kind::kOr);
  ASSERT_EQ(e->child.size(), 2u);
  EXPECT_EQ(e->child[0]->kind, Expr::Kind::kAnd);
  EXPECT_EQ(e->child[0]->child.size(), 3u);
  EXPECT_EQ(e->child[1]->kind, Expr::Kind::kNot);
}

TEST(Expr, PostfixComplementAndParens) {
  const auto e = parse_expr("(a+b)'");
  EXPECT_EQ(e->kind, Expr::Kind::kNot);
  EXPECT_EQ(e->child[0]->kind, Expr::Kind::kOr);
}

TEST(Expr, DoubleNegationCollapses) {
  const auto e = parse_expr("!!a");
  EXPECT_EQ(e->kind, Expr::Kind::kVar);
  EXPECT_EQ(e->var, "a");
}

TEST(Expr, ImplicitAnd) {
  const auto e = parse_expr("a b");
  EXPECT_EQ(e->kind, Expr::Kind::kAnd);
}

TEST(Expr, SyntaxErrorsThrow) {
  for (const char* text : {"", "a+", "(a*b", "a)", "!"})
    EXPECT_THROW(parse_expr(text), std::invalid_argument) << text;
}

TEST(Expr, VariablesInOrder) {
  const auto e = parse_expr("c*a + b*a");
  EXPECT_EQ(e->variables(), (std::vector<std::string>{"c", "a", "b"}));
}

TEST(Expr, Eval) {
  const auto e = parse_expr("a*!b + c");
  const std::vector<std::string> names{"a", "b", "c"};
  EXPECT_TRUE(e->eval(names, {true, false, false}));
  EXPECT_FALSE(e->eval(names, {true, true, false}));
  EXPECT_TRUE(e->eval(names, {false, false, true}));
}

TEST(Pattern, Nand2HasOnePattern) {
  const auto e = parse_expr("!(a*b)");
  const auto ps = generate_patterns(*e, {"a", "b"});
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0]->kind, Pattern::Kind::kNand);
  EXPECT_EQ(ps[0]->size(), 1);
  EXPECT_EQ(ps[0]->depth(), 1);
}

TEST(Pattern, InverterPattern) {
  const auto e = parse_expr("!a");
  const auto ps = generate_patterns(*e, {"a"});
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0]->kind, Pattern::Kind::kInv);
}

TEST(Pattern, Nand3HasTwoShapes) {
  // !(abc) = NAND(a, AND(b,c)) and NAND(AND(a,b), c) and NAND(AND(a,c), b):
  // unordered splits of 3 children = 3, but symmetric dedup by canonical
  // form keeps structurally distinct ones (leaves are distinct pins, so all
  // 3 remain).
  const auto e = parse_expr("!(a*b*c)");
  const auto ps = generate_patterns(*e, {"a", "b", "c"});
  EXPECT_EQ(ps.size(), 3u);
  for (const auto& p : ps) EXPECT_EQ(p->size(), 3);  // NAND + INV + NAND
}

// A shape drops pin labels and NAND child order: nand3's three patterns
// are one shape, and every subtree is interned before its parent.
TEST(Pattern, ShapesInternEverySubtreeOnce) {
  ShapeTable t;
  const auto nand3 =
      generate_patterns(*parse_expr("!(a*b*c)"), {"a", "b", "c"});
  ASSERT_EQ(nand3.size(), 3u);
  const std::uint32_t s = t.intern(*nand3[0]);
  for (const auto& p : nand3) EXPECT_EQ(t.intern(*p), s);
  EXPECT_EQ(t.size(), 4u);  // leaf, NAND{leaf,leaf}, INV(that), the root
  EXPECT_EQ(t.intern(*Pattern::nand(Pattern::leaf(1), Pattern::leaf(0))), 1u);

  const PatternShapes& lib = standard_library().shapes();
  EXPECT_EQ(lib.table.size(), 36u);
  std::size_t patterns = 0;
  for (const Gate& g : standard_library().gates())
    patterns += g.patterns.size();
  EXPECT_EQ(lib.roots.size(), patterns);
  const std::vector<Shape>& shapes = lib.table.shapes();
  EXPECT_EQ(shapes[0].kind, Pattern::Kind::kLeaf);
  for (std::uint32_t i = 1; i < shapes.size(); ++i) {
    EXPECT_LT(shapes[i].child[0], i);
    EXPECT_LT(shapes[i].child[1], i);
    if (shapes[i].kind == Pattern::Kind::kNand) {
      EXPECT_LE(shapes[i].child[0], shapes[i].child[1]);
    }
  }
}

TEST(Pattern, XorLeafDag) {
  const auto e = parse_expr("a*!b + !a*b");
  const auto ps = generate_patterns(*e, {"a", "b"});
  EXPECT_FALSE(ps.empty());
  // Every pattern mentions both pins (twice each).
  for (const auto& p : ps) EXPECT_GE(p->size(), 3);
}

/// Simulate a pattern over the {NAND, INV} semantics with leaf values.
bool eval_pattern(const Pattern& p, const std::vector<bool>& pins) {
  switch (p.kind) {
    case Pattern::Kind::kLeaf:
      return pins[static_cast<std::size_t>(p.pin)];
    case Pattern::Kind::kInv:
      return !eval_pattern(*p.child[0], pins);
    case Pattern::Kind::kNand:
      return !(eval_pattern(*p.child[0], pins) &&
               eval_pattern(*p.child[1], pins));
  }
  return false;
}

TEST(Pattern, AllStandardLibraryPatternsRealizeTheirGate) {
  const Library& lib = standard_library();
  for (const Gate& g : lib.gates()) {
    if (g.patterns.empty()) continue;
    const auto names = g.function->variables();
    const int k = g.num_inputs();
    for (const auto& pat : g.patterns) {
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << k); ++m) {
        std::vector<bool> in(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i)
          in[static_cast<std::size_t>(i)] = (m >> i) & 1;
        EXPECT_EQ(eval_pattern(*pat, in), g.function->eval(names, in))
            << g.name << " pattern " << pat->canonical() << " minterm " << m;
      }
    }
  }
}

TEST(Library, ParseStandard) {
  const Library& lib = standard_library();
  EXPECT_GE(lib.gates().size(), 25u);
  EXPECT_EQ(lib.inverter().name, "inv1");
  EXPECT_EQ(lib.nand2().name, "nand2");
  EXPECT_DOUBLE_EQ(lib.default_load(), 1.0);
}

// The inverter and the NAND2 must read their pins directly: !(!a*b) and
// !(a*a) have their shape but cover no plain NAND2 or INV subject node.
TEST(Library, BaseGatesReadTheirPinsDirectly) {
  const Library shaped = Library::parse_genlib(
      "GATE invaa 1.0 O=!(a*a); PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE nand2b 1.0 O=!(!a*b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n");
  EXPECT_FALSE(shaped.has_base_gates());
  const Library both = Library::parse_genlib(
      "GATE inv 2.0 O=!a; PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE invaa 1.0 O=!(a*a); PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE nand2b 1.0 O=!(!a*b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n"
      "GATE nand2 2.0 O=!(a*b); PIN * INV 1.2 999 0.5 0.5 0.5 0.5\n");
  ASSERT_TRUE(both.has_base_gates());
  EXPECT_EQ(both.inverter().name, "inv");
  EXPECT_EQ(both.nand2().name, "nand2");
  EXPECT_DOUBLE_EQ(both.default_load(), 1.2);
}

TEST(Library, FindGate) {
  const Library& lib = standard_library();
  ASSERT_NE(lib.find("aoi21"), nullptr);
  EXPECT_EQ(lib.find("aoi21")->num_inputs(), 3);
  EXPECT_EQ(lib.find("nope"), nullptr);
}

TEST(Library, PinDefaultsFromStar) {
  const Library& lib = standard_library();
  const Gate* n3 = lib.find("nand3");
  ASSERT_NE(n3, nullptr);
  ASSERT_EQ(n3->pins.size(), 3u);
  for (const GatePin& p : n3->pins) {
    EXPECT_DOUBLE_EQ(p.cap, 1.1);
    EXPECT_DOUBLE_EQ(p.intrinsic, 0.72);
    EXPECT_DOUBLE_EQ(p.drive, 0.58);
  }
}

TEST(Library, WorstDelayGrowsWithLoad) {
  const Gate& inv = standard_library().inverter();
  EXPECT_LT(inv.worst_delay(1.0), inv.worst_delay(4.0));
  EXPECT_DOUBLE_EQ(inv.max_drive(), 0.45);
}

TEST(Library, ParseExplicitPins) {
  const std::string text =
      "GATE g 2.5 O=a*!b;\n"
      "PIN a NONINV 1.5 999 0.1 0.2 0.3 0.4\n"
      "PIN b INV 0.5 999 0.5 0.6 0.7 0.8\n";
  const Library lib = Library::parse_genlib(text, "t");
  ASSERT_EQ(lib.gates().size(), 1u);
  const Gate& g = lib.gates()[0];
  ASSERT_EQ(g.pins.size(), 2u);
  EXPECT_EQ(g.pins[0].name, "a");
  EXPECT_DOUBLE_EQ(g.pins[0].cap, 1.5);
  EXPECT_DOUBLE_EQ(g.pins[0].intrinsic, 0.3);  // max(rise, fall) block
  EXPECT_DOUBLE_EQ(g.pins[1].drive, 0.8);
  EXPECT_EQ(g.area, 2.5);
}

TEST(Library, MalformedGenlibThrows) {
  const char* bad[] = {
      "",                                    // empty library
      "GATE g 1.0 O=!a;\nPIN a INV 1.0",     // truncated PIN
      "CELL g 1.0 O=!a;",                    // not a GATE
      "GATE g big O=!a; PIN a INV 1 999 1 1 1 1",
      "GATE g 1.0 !a; PIN a INV 1 999 1 1 1 1",
      "GATE g 1.0 O=!a; PIN a INV 1 999 1 x 1 1",
      "GATE g 1.0 O=!(a*b); PIN a INV 1 999 1 1 1 1",
      "GATE g 1.0 O=!(a*b; PIN * INV 1 999 1 1 1 1",
  };
  for (const char* text : bad)
    EXPECT_THROW(Library::parse_genlib(text, "bad"), GenlibError) << text;
}

TEST(Library, GenlibRoundTrip) {
  const Library& lib = standard_library();
  const Library back = Library::parse_genlib(lib.to_genlib(), "rt");
  ASSERT_EQ(back.gates().size(), lib.gates().size());
  for (std::size_t i = 0; i < lib.gates().size(); ++i) {
    const Gate& a = lib.gates()[i];
    const Gate& b = back.gates()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.area, b.area);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_DOUBLE_EQ(a.pins[p].cap, b.pins[p].cap);
      EXPECT_DOUBLE_EQ(a.pins[p].intrinsic, b.pins[p].intrinsic);
      EXPECT_DOUBLE_EQ(a.pins[p].drive, b.pins[p].drive);
    }
    // Same function.
    const auto va = a.function->variables();
    const auto vb = b.function->variables();
    ASSERT_EQ(va.size(), vb.size());
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << va.size()); ++m) {
      std::vector<bool> in(va.size());
      for (std::size_t k = 0; k < va.size(); ++k) in[k] = (m >> k) & 1;
      EXPECT_EQ(a.function->eval(va, in), b.function->eval(vb, in)) << a.name;
    }
  }
}

TEST(Library, ExprToStringParsesBack) {
  for (const char* text :
       {"a*b+c", "!(a+b)*c", "a*!b+!a*b", "(a+b)*(c+d)", "!a"}) {
    const auto e = parse_expr(text);
    const auto back = parse_expr(e->to_string());
    const auto vars = e->variables();
    ASSERT_EQ(vars, back->variables());
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << vars.size()); ++m) {
      std::vector<bool> in(vars.size());
      for (std::size_t k = 0; k < vars.size(); ++k) in[k] = (m >> k) & 1;
      EXPECT_EQ(e->eval(vars, in), back->eval(vars, in)) << text;
    }
  }
}

TEST(Library, CoverFromExprMatchesEval) {
  const auto e = parse_expr("a*!b + c*(a+b)");
  const auto vars = e->variables();
  const Cover c = cover_from_expr(*e, vars);
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << vars.size()); ++m) {
    std::vector<bool> in(vars.size());
    std::uint64_t assignment = 0;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      in[k] = (m >> k) & 1;
      if (in[k]) assignment |= std::uint64_t{1} << k;
    }
    EXPECT_EQ(c.eval(assignment), e->eval(vars, in)) << m;
  }
}

TEST(Library, InverterCountInPatterns) {
  // AND2 = INV(NAND2): one pattern of size 2.
  const Gate* and2 = standard_library().find("and2");
  ASSERT_NE(and2, nullptr);
  ASSERT_EQ(and2->patterns.size(), 1u);
  EXPECT_EQ(and2->patterns[0]->size(), 2);
}

}  // namespace
}  // namespace minpower
