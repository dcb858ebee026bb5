#include "library/pattern.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace minpower {

std::unique_ptr<Pattern> Pattern::leaf(int pin) {
  auto p = std::make_unique<Pattern>();
  p->kind = Kind::kLeaf;
  p->pin = pin;
  return p;
}

std::unique_ptr<Pattern> Pattern::inv(std::unique_ptr<Pattern> c) {
  auto p = std::make_unique<Pattern>();
  p->kind = Kind::kInv;
  p->child.push_back(std::move(c));
  return p;
}

std::unique_ptr<Pattern> Pattern::nand(std::unique_ptr<Pattern> a,
                                       std::unique_ptr<Pattern> b) {
  auto p = std::make_unique<Pattern>();
  p->kind = Kind::kNand;
  p->child.push_back(std::move(a));
  p->child.push_back(std::move(b));
  return p;
}

std::unique_ptr<Pattern> Pattern::clone() const {
  auto p = std::make_unique<Pattern>();
  p->kind = kind;
  p->pin = pin;
  for (const auto& c : child) p->child.push_back(c->clone());
  return p;
}

std::string Pattern::canonical() const {
  switch (kind) {
    case Kind::kLeaf:
      return "L" + std::to_string(pin);
    case Kind::kInv:
      return "I(" + child[0]->canonical() + ")";
    case Kind::kNand: {
      std::string a = child[0]->canonical();
      std::string b = child[1]->canonical();
      if (b < a) std::swap(a, b);
      return "N(" + a + "," + b + ")";
    }
  }
  return "?";
}

std::uint32_t ShapeTable::intern(const Pattern& p) {
  Shape s;
  s.kind = p.kind;
  if (p.kind == Pattern::Kind::kLeaf) return 0;
  for (std::size_t i = 0; i < p.child.size(); ++i)
    s.child[i] = intern(*p.child[i]);
  if (p.kind == Pattern::Kind::kNand && s.child[1] < s.child[0])
    std::swap(s.child[0], s.child[1]);
  // A library has a few dozen shapes and builds its table once: a linear
  // scan is enough.
  const auto it = std::find(shapes_.begin(), shapes_.end(), s);
  if (it != shapes_.end())
    return static_cast<std::uint32_t>(it - shapes_.begin());
  shapes_.push_back(s);
  return static_cast<std::uint32_t>(shapes_.size() - 1);
}

int Pattern::size() const {
  if (kind == Kind::kLeaf) return 0;
  int n = 1;
  for (const auto& c : child) n += c->size();
  return n;
}

int Pattern::depth() const {
  if (kind == Kind::kLeaf) return 0;
  int d = 0;
  for (const auto& c : child) d = std::max(d, c->depth());
  return d + 1;
}

namespace {

using PatternList = std::vector<std::unique_ptr<Pattern>>;

class Generator {
 public:
  Generator(const std::vector<std::string>& pin_names, std::size_t cap)
      : pin_names_(pin_names), cap_(cap) {}

  PatternList gen(const Expr& e, bool complemented) {
    switch (e.kind) {
      case Expr::Kind::kVar: {
        const auto it =
            std::find(pin_names_.begin(), pin_names_.end(), e.var);
        MP_CHECK(it != pin_names_.end());
        const int pin = static_cast<int>(it - pin_names_.begin());
        PatternList out;
        out.push_back(complemented ? Pattern::inv(Pattern::leaf(pin))
                                   : Pattern::leaf(pin));
        return out;
      }
      case Expr::Kind::kNot:
        return gen(*e.child[0], !complemented);
      case Expr::Kind::kAnd:
        return complemented ? nand_of(e.child) : inv_all(nand_of(e.child));
      case Expr::Kind::kOr: {
        PatternList u = or_of(e.child);
        if (complemented) return inv_all(std::move(u));
        return u;
      }
      case Expr::Kind::kConst0:
      case Expr::Kind::kConst1:
        MP_CHECK_MSG(false, "constant gate functions have no pattern");
    }
    return {};
  }

 private:
  /// All NAND-rooted patterns for !(AND of children).
  PatternList nand_of(const std::vector<std::unique_ptr<Expr>>& children) {
    PatternList out;
    const int n = static_cast<int>(children.size());
    MP_CHECK(n >= 2);
    // Unordered splits {A, B}: child 0 always goes to A; the mask places the
    // remaining children; B must stay non-empty.
    for (std::uint32_t mask = 0; mask + 1 < (1u << (n - 1)); ++mask) {
      std::vector<const Expr*> A{children[0].get()};
      std::vector<const Expr*> B;
      for (int i = 1; i < n; ++i)
        ((mask >> (i - 1)) & 1 ? A : B)
            .push_back(children[static_cast<std::size_t>(i)].get());
      for (auto& pa : and_group_pos(A))
        for (auto& pb : and_group_pos(B)) {
          if (out.size() >= cap_) return out;
          out.push_back(Pattern::nand(pa->clone(), pb->clone()));
        }
    }
    return out;
  }

  /// Patterns for the *uncomplemented* AND of a child group.
  PatternList and_group_pos(const std::vector<const Expr*>& group) {
    if (group.size() == 1) return gen(*group[0], false);
    std::vector<std::unique_ptr<Expr>> owned;
    for (const Expr* e : group) owned.push_back(e->clone());
    return inv_all(nand_of(owned));
  }

  /// All NAND-rooted patterns for OR of children (NAND of complements).
  PatternList or_of(const std::vector<std::unique_ptr<Expr>>& children) {
    PatternList out;
    const int n = static_cast<int>(children.size());
    MP_CHECK(n >= 2);
    for (std::uint32_t mask = 0; mask + 1 < (1u << (n - 1)); ++mask) {
      std::vector<const Expr*> A{children[0].get()};
      std::vector<const Expr*> B;
      for (int i = 1; i < n; ++i)
        ((mask >> (i - 1)) & 1 ? A : B)
            .push_back(children[static_cast<std::size_t>(i)].get());
      for (auto& pa : or_group_neg(A))
        for (auto& pb : or_group_neg(B)) {
          if (out.size() >= cap_) return out;
          out.push_back(Pattern::nand(pa->clone(), pb->clone()));
        }
    }
    return out;
  }

  /// Patterns for the *complement* of the OR of a child group.
  PatternList or_group_neg(const std::vector<const Expr*>& group) {
    if (group.size() == 1) return gen(*group[0], true);
    std::vector<std::unique_ptr<Expr>> owned;
    for (const Expr* e : group) owned.push_back(e->clone());
    return inv_all(or_of(owned));
  }

  static PatternList inv_all(PatternList in) {
    PatternList out;
    out.reserve(in.size());
    for (auto& p : in) {
      // INV(INV(x)) would never match a reduced subject graph; collapse.
      if (p->kind == Pattern::Kind::kInv)
        out.push_back(std::move(p->child[0]));
      else
        out.push_back(Pattern::inv(std::move(p)));
    }
    return out;
  }

  const std::vector<std::string>& pin_names_;
  std::size_t cap_;
};

}  // namespace

std::vector<std::unique_ptr<Pattern>> generate_patterns(
    const Expr& expr, const std::vector<std::string>& pin_names,
    std::size_t max_patterns) {
  Generator g(pin_names, max_patterns);
  PatternList all = g.gen(expr, false);
  // Deduplicate by canonical form.
  std::set<std::string> seen;
  PatternList out;
  for (auto& p : all) {
    if (seen.insert(p->canonical()).second) out.push_back(std::move(p));
  }
  return out;
}

}  // namespace minpower
