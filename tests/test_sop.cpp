#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sop/cover.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

TEST(Cube, LiteralBasics) {
  const Cube a = Cube::literal(3, true);
  EXPECT_TRUE(a.has_pos(3));
  EXPECT_FALSE(a.has_neg(3));
  EXPECT_EQ(a.size(), 1);
  const Cube b = Cube::literal(3, false);
  EXPECT_TRUE(b.has_neg(3));
  EXPECT_TRUE((a & b).is_contradictory());
}

TEST(Cube, OneCube) {
  EXPECT_TRUE(Cube::one().is_one());
  EXPECT_EQ(Cube::one().size(), 0);
  EXPECT_TRUE(Cube::one().eval(0));
  EXPECT_TRUE(Cube::one().eval(~std::uint64_t{0}));
}

TEST(Cube, Eval) {
  const Cube c = Cube::literal(0, true) & Cube::literal(2, false);
  EXPECT_TRUE(c.eval(0b001));
  EXPECT_FALSE(c.eval(0b101));  // v2 = 1 violates !v2
  EXPECT_FALSE(c.eval(0b000));  // v0 = 0 violates v0
}

TEST(Cube, Implies) {
  const Cube ab = Cube::literal(0, true) & Cube::literal(1, true);
  const Cube a = Cube::literal(0, true);
  EXPECT_TRUE(ab.implies(a));
  EXPECT_FALSE(a.implies(ab));
  EXPECT_TRUE(a.implies(a));
}

TEST(Cube, DropAndWithout) {
  const Cube ab = Cube::literal(0, true) & Cube::literal(1, false);
  EXPECT_EQ(ab.drop(1), Cube::literal(0, true));
  EXPECT_EQ(ab.without(Cube::literal(0, true)), Cube::literal(1, false));
}

TEST(Cover, NormalizeAbsorption) {
  Cover c;
  c.add(Cube::literal(0, true));
  c.add(Cube::literal(0, true) & Cube::literal(1, true));  // absorbed
  c.normalize();
  EXPECT_EQ(c.num_cubes(), 1u);
  EXPECT_EQ(c.cubes()[0], Cube::literal(0, true));
}

TEST(Cover, NormalizeDropsContradiction) {
  Cover c;
  c.add(Cube::literal(0, true) & Cube::literal(0, false));
  c.normalize();
  EXPECT_TRUE(c.is_zero());
}

TEST(Cover, NormalizeConstantOne) {
  Cover c;
  c.add(Cube::literal(0, true));
  c.add(Cube::one());
  c.normalize();
  EXPECT_TRUE(c.is_one());
}

TEST(Cover, EvalOrSemantics) {
  // f = v0·!v1 + v2
  Cover f{{Cube::literal(0, true) & Cube::literal(1, false),
           Cube::literal(2, true)}};
  EXPECT_TRUE(f.eval(0b001));
  EXPECT_TRUE(f.eval(0b100));
  EXPECT_FALSE(f.eval(0b010));
  EXPECT_FALSE(f.eval(0b000));
}

TEST(Cover, CofactorShannon) {
  // f = v0·v1 + !v0·v2
  Cover f{{Cube::literal(0, true) & Cube::literal(1, true),
           Cube::literal(0, false) & Cube::literal(2, true)}};
  const Cover f1 = f.cofactor(0, true);
  const Cover f0 = f.cofactor(0, false);
  EXPECT_TRUE(Cover::equivalent(f1, Cover::literal(1, true)));
  EXPECT_TRUE(Cover::equivalent(f0, Cover::literal(2, true)));
}

TEST(Cover, ComplementConstants) {
  EXPECT_TRUE(Cover::zero().complement().is_one());
  EXPECT_TRUE(Cover::one().complement().is_zero());
}

TEST(Cover, ComplementDeMorgan) {
  // !(a·b) = !a + !b
  Cover ab{{Cube::literal(0, true) & Cube::literal(1, true)}};
  Cover want{{Cube::literal(0, false), Cube::literal(1, false)}};
  EXPECT_TRUE(Cover::equivalent(ab.complement(), want));
}

TEST(Cover, ConjunctionDistributes) {
  Cover a{{Cube::literal(0, true), Cube::literal(1, true)}};  // v0 + v1
  Cover b{{Cube::literal(2, true)}};                          // v2
  const Cover c = Cover::conjunction(a, b);
  Cover want{{Cube::literal(0, true) & Cube::literal(2, true),
              Cube::literal(1, true) & Cube::literal(2, true)}};
  EXPECT_TRUE(Cover::equivalent(c, want));
}

TEST(Cover, Remap) {
  Cover f{{Cube::literal(0, true) & Cube::literal(2, false)}};
  std::vector<int> m(kMaxCubeVars, -1);
  m[0] = 5;
  m[2] = 1;
  const Cover g = f.remap(m);
  EXPECT_TRUE(g.cubes()[0].has_pos(5));
  EXPECT_TRUE(g.cubes()[0].has_neg(1));
}

// Property: complement really is the Boolean complement, and double
// complement is the identity — over random covers.
class CoverComplementProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoverComplementProperty, ComplementIsExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const int vars = 5;
  Cover f;
  const int cubes = static_cast<int>(rng.range(1, 4));
  for (int c = 0; c < cubes; ++c) {
    Cube cube;
    for (int v = 0; v < vars; ++v) {
      const auto r = rng.below(3);
      if (r == 0) cube = cube & Cube::literal(v, true);
      if (r == 1) cube = cube & Cube::literal(v, false);
    }
    f.add(cube);
  }
  f.normalize();
  const Cover nf = f.complement();
  for (std::uint64_t m = 0; m < (1u << vars); ++m)
    EXPECT_NE(f.eval(m), nf.eval(m)) << "minterm " << m;
  EXPECT_TRUE(Cover::equivalent(nf.complement(), f));
}

INSTANTIATE_TEST_SUITE_P(Random, CoverComplementProperty,
                         ::testing::Range(0, 40));

// Property: normalize() preserves the function.
class CoverNormalizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoverNormalizeProperty, NormalizePreservesFunction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const int vars = 6;
  Cover f;
  const int cubes = static_cast<int>(rng.range(1, 6));
  for (int c = 0; c < cubes; ++c) {
    Cube cube;
    for (int v = 0; v < vars; ++v) {
      const auto r = rng.below(4);
      if (r == 0) cube = cube & Cube::literal(v, true);
      if (r == 1) cube = cube & Cube::literal(v, false);
    }
    f.add(cube);
  }
  Cover g = f;
  g.normalize();
  for (std::uint64_t m = 0; m < (1u << vars); ++m)
    EXPECT_EQ(f.eval(m), g.eval(m)) << "minterm " << m;
}

INSTANTIATE_TEST_SUITE_P(Random, CoverNormalizeProperty,
                         ::testing::Range(0, 40));

// Property: the minterm-by-minterm tautology check agrees with the
// complement on random covers of up to 12 variables, spread over the whole
// 64-variable range. Half the covers are OR-ed with their own complement,
// so both answers occur.
TEST(Cover, IsTautologyAgreesWithComplement) {
  int tautologies = 0;
  int others = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed * 7919 + 3);
    const int nvars = static_cast<int>(rng.range(1, 12));
    std::vector<int> vars;
    while (static_cast<int>(vars.size()) < nvars) {
      const int v = static_cast<int>(rng.below(kMaxCubeVars));
      if (std::find(vars.begin(), vars.end(), v) == vars.end())
        vars.push_back(v);
    }
    Cover f;
    const int cubes = static_cast<int>(rng.range(0, 8));
    for (int c = 0; c < cubes; ++c) {
      Cube cube;
      for (int v : vars) {
        const auto r = rng.below(3);
        if (r == 0) cube = cube & Cube::literal(v, true);
        if (r == 1) cube = cube & Cube::literal(v, false);
      }
      f.add(cube);
    }
    if (rng.coin()) f = Cover::disjunction(f, f.complement());
    const bool want = f.complement().is_zero();
    EXPECT_EQ(f.is_tautology(), want) << "seed " << seed << ": "
                                      << f.to_string();
    (want ? tautologies : others) += 1;
  }
  EXPECT_GT(tautologies, 0);
  EXPECT_GT(others, 0);
}

}  // namespace
}  // namespace minpower
