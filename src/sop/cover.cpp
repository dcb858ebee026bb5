#include "sop/cover.hpp"

#include <algorithm>
#include <bit>

namespace minpower {

std::string Cube::to_string() const {
  if (is_one()) return "1";
  std::string out;
  for (int v = 0; v < kMaxCubeVars; ++v) {
    if (!mentions(v)) continue;
    if (!out.empty()) out += ' ';
    if (has_neg(v)) out += '!';
    out += 'v';
    out += std::to_string(v);
  }
  return out;
}

void Cover::normalize() {
  std::erase_if(cubes_, [](const Cube& c) { return c.is_contradictory(); });
  std::sort(cubes_.begin(), cubes_.end());
  cubes_.erase(std::unique(cubes_.begin(), cubes_.end()), cubes_.end());
  // Single-cube containment: remove cube i if some other cube j absorbs it
  // (every minterm of i is covered by j, i.e. i implies j).
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool absorbed = false;
    for (std::size_t j = 0; j < cubes_.size() && !absorbed; ++j) {
      if (i == j) continue;
      if (cubes_[i].implies(cubes_[j]) && cubes_[i] != cubes_[j]) absorbed = true;
      // Equal cubes were deduplicated above.
    }
    if (!absorbed) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
  // A cover containing the "1" cube is the constant 1.
  for (const Cube& c : cubes_) {
    if (c.is_one()) {
      cubes_ = {Cube::one()};
      return;
    }
  }
}

Cover Cover::disjunction(const Cover& a, const Cover& b) {
  Cover out;
  out.cubes_.reserve(a.num_cubes() + b.num_cubes());
  out.cubes_.insert(out.cubes_.end(), a.cubes_.begin(), a.cubes_.end());
  out.cubes_.insert(out.cubes_.end(), b.cubes_.begin(), b.cubes_.end());
  out.normalize();
  return out;
}

Cover Cover::conjunction(const Cover& a, const Cover& b) {
  Cover out;
  out.cubes_.reserve(a.num_cubes() * b.num_cubes());
  for (const Cube& ca : a.cubes_)
    for (const Cube& cb : b.cubes_) {
      const Cube c = ca & cb;
      if (!c.is_contradictory()) out.cubes_.push_back(c);
    }
  out.normalize();
  return out;
}

Cover Cover::cofactor(int var, bool value) const {
  Cover out;
  for (const Cube& c : cubes_) {
    if (value ? c.has_neg(var) : c.has_pos(var)) continue;  // cube dies
    out.cubes_.push_back(c.drop(var));
  }
  out.normalize();
  return out;
}

Cover Cover::complement() const {
  if (is_zero()) return one();
  if (is_one()) return zero();
  const std::uint64_t sup = support();
  MP_CHECK_MSG(std::popcount(sup) <= 24,
               "complement() limited to 24-variable node functions");
  // Shannon: !f = !x·!f_{!x} + x·!f_x on the lowest support variable.
  const int var = std::countr_zero(sup);
  const Cover f0 = cofactor(var, false).complement();
  const Cover f1 = cofactor(var, true).complement();
  Cover out = disjunction(conjunction(Cover::literal(var, false), f0),
                          conjunction(Cover::literal(var, true), f1));
  out.normalize();
  return out;
}

bool Cover::is_tautology() const {
  const std::uint64_t sup = support();
  MP_CHECK_MSG(std::popcount(sup) <= 24,
               "is_tautology() limited to 24-variable functions");
  // (a - sup) & sup steps through every subset of sup, from 0 back to 0.
  std::uint64_t a = 0;
  do {
    if (!eval(a)) return false;
    a = (a - sup) & sup;
  } while (a != 0);
  return true;
}

bool Cover::equivalent(const Cover& a, const Cover& b) {
  const std::uint64_t sup = a.support() | b.support();
  const int n = std::popcount(sup);
  MP_CHECK_MSG(n <= 24, "equivalent() limited to 24-variable functions");
  // Map the k-th set bit of sup to position k of the enumeration counter.
  int vars[24];
  int k = 0;
  for (int v = 0; v < kMaxCubeVars; ++v)
    if ((sup >> v) & 1) vars[k++] = v;
  const std::uint64_t count = std::uint64_t{1} << n;
  for (std::uint64_t m = 0; m < count; ++m) {
    std::uint64_t assignment = 0;
    for (int i = 0; i < n; ++i)
      if ((m >> i) & 1) assignment |= std::uint64_t{1} << vars[i];
    if (a.eval(assignment) != b.eval(assignment)) return false;
  }
  return true;
}

Cover Cover::remap(const std::vector<int>& new_var) const {
  Cover out;
  out.cubes_.reserve(cubes_.size());
  for (const Cube& c : cubes_) {
    std::uint64_t pos = 0;
    std::uint64_t neg = 0;
    for (std::uint64_t m = c.support(); m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      MP_CHECK(v < static_cast<int>(new_var.size()) && new_var[v] >= 0);
      const std::uint64_t bit = std::uint64_t{1} << new_var[v];
      if (c.has_pos(v)) pos |= bit;
      if (c.has_neg(v)) neg |= bit;
    }
    out.cubes_.push_back(Cube{pos, neg});
  }
  out.normalize();
  return out;
}

std::string Cover::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  for (const Cube& c : cubes_) {
    if (!out.empty()) out += " + ";
    out += c.to_string();
  }
  return out;
}

}  // namespace minpower
