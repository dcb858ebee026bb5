#pragma once
// NAND2/INV pattern trees for structural matching (DAGON/MIS style).
//
// Every library gate's function is rewritten over the {NAND2, INV} basis.
// Associative operators admit multiple binary groupings, so one gate yields
// several structurally distinct patterns; the matcher tries them all. Leaves
// carry pin indices; a pin appearing several times (XOR-like gates) makes
// the pattern a leaf-DAG, which the matcher supports through binding
// consistency.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "library/expr.hpp"

namespace minpower {

struct Pattern {
  enum class Kind { kLeaf, kInv, kNand };
  Kind kind = Kind::kLeaf;
  int pin = -1;                          // kLeaf
  std::vector<std::unique_ptr<Pattern>> child;

  static std::unique_ptr<Pattern> leaf(int pin);
  static std::unique_ptr<Pattern> inv(std::unique_ptr<Pattern> c);
  static std::unique_ptr<Pattern> nand(std::unique_ptr<Pattern> a,
                                       std::unique_ptr<Pattern> b);

  std::unique_ptr<Pattern> clone() const;

  /// Canonical string (children of NAND ordered), used for deduplication.
  std::string canonical() const;

  /// Number of internal (NAND/INV) nodes — the subject nodes a match covers.
  int size() const;

  int depth() const;
};

/// A pattern subtree with its pin labels dropped and its NAND children
/// unordered: the part of a pattern the subject's structure alone decides.
struct Shape {
  Pattern::Kind kind = Pattern::Kind::kLeaf;
  /// Child shape ids: kInv uses child[0]; kNand keeps child[0] <= child[1].
  std::uint32_t child[2] = {0, 0};

  bool operator==(const Shape&) const = default;
};

/// The interned shapes of every subtree of a set of patterns; equal shapes
/// share one id. Id 0 is the leaf, and a shape's children have smaller ids
/// than the shape itself, so one pass in id order visits children first.
class ShapeTable {
 public:
  /// The id of `p`'s shape, adding it and its subtrees' shapes as needed.
  std::uint32_t intern(const Pattern& p);

  const std::vector<Shape>& shapes() const { return shapes_; }
  std::size_t size() const { return shapes_.size(); }

 private:
  std::vector<Shape> shapes_{Shape{}};
};

/// All structurally distinct NAND2/INV patterns realizing `expr`, where pin
/// name i of `pin_names` maps to leaf index i. `max_patterns` caps the
/// enumeration for wide gates.
std::vector<std::unique_ptr<Pattern>> generate_patterns(
    const Expr& expr, const std::vector<std::string>& pin_names,
    std::size_t max_patterns = 64);

}  // namespace minpower
