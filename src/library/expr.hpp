#pragma once
// Gate-function expression trees, as written in genlib GATE lines.
//
// Grammar (SIS genlib):   expr := term ('+' term)*
//                         term := factor (('*')? factor)*
//                         factor := '!' factor | factor "'" | '(' expr ')' | ident | CONST0 | CONST1
// AND/OR are flattened to n-ary nodes; NOT is pushed by the pattern
// generator, not here.

#include <memory>
#include <string>
#include <vector>

#include "sop/cover.hpp"

namespace minpower {

struct Expr {
  enum class Kind { kVar, kNot, kAnd, kOr, kConst0, kConst1 };

  Kind kind = Kind::kVar;
  std::string var;                           // kVar
  std::vector<std::unique_ptr<Expr>> child;  // kNot: 1, kAnd/kOr: >= 2

  static std::unique_ptr<Expr> make_var(std::string name);
  static std::unique_ptr<Expr> make_not(std::unique_ptr<Expr> c);
  static std::unique_ptr<Expr> make_nary(Kind k,
                                         std::vector<std::unique_ptr<Expr>> cs);

  std::unique_ptr<Expr> clone() const;

  /// Distinct variable names in first-appearance order.
  std::vector<std::string> variables() const;

  bool eval(const std::vector<std::string>& names,
            const std::vector<bool>& values) const;

  std::string to_string() const;
};

/// Parse a genlib expression. Throws std::invalid_argument on syntax errors.
std::unique_ptr<Expr> parse_expr(const std::string& text);

/// SOP of the expression with variable i = pin_names[i].
Cover cover_from_expr(const Expr& expr,
                      const std::vector<std::string>& pin_names);

}  // namespace minpower
