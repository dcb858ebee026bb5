#include "library/expr.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <stdexcept>

#include "util/check.hpp"

namespace minpower {

std::unique_ptr<Expr> Expr::make_var(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVar;
  e->var = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::make_not(std::unique_ptr<Expr> c) {
  // Collapse double negation.
  if (c->kind == Kind::kNot) return std::move(c->child[0]);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNot;
  e->child.push_back(std::move(c));
  return e;
}

std::unique_ptr<Expr> Expr::make_nary(Kind k,
                                      std::vector<std::unique_ptr<Expr>> cs) {
  MP_CHECK(k == Kind::kAnd || k == Kind::kOr);
  if (cs.size() == 1) return std::move(cs[0]);
  auto e = std::make_unique<Expr>();
  e->kind = k;
  // Flatten nested same-kind children.
  for (auto& c : cs) {
    if (c->kind == k) {
      for (auto& gc : c->child) e->child.push_back(std::move(gc));
    } else {
      e->child.push_back(std::move(c));
    }
  }
  return e;
}

std::unique_ptr<Expr> Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->var = var;
  for (const auto& c : child) e->child.push_back(c->clone());
  return e;
}

std::vector<std::string> Expr::variables() const {
  std::vector<std::string> out;
  const std::function<void(const Expr&)> walk = [&](const Expr& e) {
    if (e.kind == Kind::kVar) {
      if (std::find(out.begin(), out.end(), e.var) == out.end())
        out.push_back(e.var);
    }
    for (const auto& c : e.child) walk(*c);
  };
  walk(*this);
  return out;
}

bool Expr::eval(const std::vector<std::string>& names,
                const std::vector<bool>& values) const {
  switch (kind) {
    case Kind::kConst0:
      return false;
    case Kind::kConst1:
      return true;
    case Kind::kVar: {
      const auto it = std::find(names.begin(), names.end(), var);
      MP_CHECK(it != names.end());
      return values[static_cast<std::size_t>(it - names.begin())];
    }
    case Kind::kNot:
      return !child[0]->eval(names, values);
    case Kind::kAnd:
      for (const auto& c : child)
        if (!c->eval(names, values)) return false;
      return true;
    case Kind::kOr:
      for (const auto& c : child)
        if (c->eval(names, values)) return true;
      return false;
  }
  return false;
}

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::kConst0:
      return "CONST0";
    case Kind::kConst1:
      return "CONST1";
    case Kind::kVar:
      return var;
    case Kind::kNot:
      return "!" + child[0]->to_string();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      for (std::size_t i = 0; i < child.size(); ++i) {
        if (i) out += kind == Kind::kAnd ? "*" : "+";
        out += child[i]->to_string();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::unique_ptr<Expr> parse() {
    auto e = parse_or();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters in expression");
    return e;
  }

 private:
  [[noreturn]] static void fail(const char* message) {
    throw std::invalid_argument(message);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool accept(char c) {
    if (peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::unique_ptr<Expr> parse_or() {
    std::vector<std::unique_ptr<Expr>> terms;
    terms.push_back(parse_and());
    while (accept('+')) terms.push_back(parse_and());
    return Expr::make_nary(Expr::Kind::kOr, std::move(terms));
  }

  std::unique_ptr<Expr> parse_and() {
    std::vector<std::unique_ptr<Expr>> factors;
    factors.push_back(parse_factor());
    for (;;) {
      if (accept('*')) {
        factors.push_back(parse_factor());
        continue;
      }
      // Implicit AND: a factor can start right away (ident, '(', '!').
      skip_ws();
      if (pos_ < s_.size() &&
          (s_[pos_] == '(' || s_[pos_] == '!' ||
           std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
           s_[pos_] == '_')) {
        factors.push_back(parse_factor());
        continue;
      }
      break;
    }
    return Expr::make_nary(Expr::Kind::kAnd, std::move(factors));
  }

  std::unique_ptr<Expr> parse_factor() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of expression");
    std::unique_ptr<Expr> e;
    if (accept('!')) {
      e = Expr::make_not(parse_factor());
    } else if (accept('(')) {
      e = parse_or();
      if (!accept(')')) fail("missing ')' in expression");
    } else {
      std::string name;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_' || s_[pos_] == '[' || s_[pos_] == ']')) {
        name += s_[pos_++];
      }
      if (name.empty()) fail("expected identifier in expression");
      if (name == "CONST0") {
        e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kConst0;
      } else if (name == "CONST1") {
        e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kConst1;
      } else {
        e = Expr::make_var(std::move(name));
      }
    }
    // Postfix complement: a'
    while (accept('\'')) e = Expr::make_not(std::move(e));
    return e;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Expr> parse_expr(const std::string& text) {
  return Parser(text).parse();
}

Cover cover_from_expr(const Expr& expr,
                      const std::vector<std::string>& pin_names) {
  switch (expr.kind) {
    case Expr::Kind::kConst0:
      return Cover::zero();
    case Expr::Kind::kConst1:
      return Cover::one();
    case Expr::Kind::kVar: {
      const auto it =
          std::find(pin_names.begin(), pin_names.end(), expr.var);
      MP_CHECK(it != pin_names.end());
      return Cover::literal(static_cast<int>(it - pin_names.begin()), true);
    }
    case Expr::Kind::kNot:
      return cover_from_expr(*expr.child[0], pin_names).complement();
    case Expr::Kind::kAnd: {
      Cover out = Cover::one();
      for (const auto& c : expr.child)
        out = Cover::conjunction(out, cover_from_expr(*c, pin_names));
      return out;
    }
    case Expr::Kind::kOr: {
      Cover out = Cover::zero();
      for (const auto& c : expr.child)
        out = Cover::disjunction(out, cover_from_expr(*c, pin_names));
      return out;
    }
  }
  return Cover::zero();
}

}  // namespace minpower
