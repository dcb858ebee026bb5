#pragma once
// Cover: a sum-of-products over local variables, the function representation
// attached to every internal node of a Boolean network.

#include <cstdint>
#include <string>
#include <vector>

#include "sop/cube.hpp"

namespace minpower {

class Cover {
 public:
  Cover() = default;
  explicit Cover(std::vector<Cube> cubes) : cubes_(std::move(cubes)) {}

  /// Constant covers.
  static Cover zero() { return Cover{}; }
  static Cover one() { return Cover{{Cube::one()}}; }

  /// f = single literal.
  static Cover literal(int var, bool positive) {
    return Cover{{Cube::literal(var, positive)}};
  }

  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }
  std::size_t num_cubes() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  bool is_zero() const { return cubes_.empty(); }
  bool is_one() const {
    for (const Cube& c : cubes_)
      if (c.is_one()) return true;
    return false;
  }

  /// Bitmask of variables mentioned anywhere in the cover.
  std::uint64_t support() const {
    std::uint64_t s = 0;
    for (const Cube& c : cubes_) s |= c.support();
    return s;
  }

  int num_literals() const {
    int n = 0;
    for (const Cube& c : cubes_) n += c.size();
    return n;
  }

  void add(const Cube& c) { cubes_.push_back(c); }

  bool eval(std::uint64_t assignment) const {
    for (const Cube& c : cubes_)
      if (c.eval(assignment)) return true;
    return false;
  }

  /// Drop contradictory cubes and cubes contained in other cubes; dedup.
  /// This is single-cube containment minimization, not full two-level
  /// minimization (which the BDD layer provides when needed).
  void normalize();

  /// OR of two covers (normalized).
  static Cover disjunction(const Cover& a, const Cover& b);

  /// AND of two covers (normalized; cross product of cubes).
  static Cover conjunction(const Cover& a, const Cover& b);

  /// Complement by Shannon expansion; exact. Intended for the small node
  /// functions seen during synthesis (support is checked <= 24 vars).
  Cover complement() const;

  /// True iff the cover is the constant-1 function: an exact check that
  /// evaluates every minterm of the support (supports up to 24 variables).
  bool is_tautology() const;

  /// Cofactor with respect to literal (var = value).
  Cover cofactor(int var, bool value) const;

  /// True iff the two covers denote the same function (exhaustive over the
  /// union support; supports up to 24 variables).
  static bool equivalent(const Cover& a, const Cover& b);

  /// Rewrite the cover after a change of variable numbering: new_var[i] is
  /// the new index for old index i, or -1 when the variable must be unused.
  Cover remap(const std::vector<int>& new_var) const;

  std::string to_string() const;

  bool operator==(const Cover&) const = default;

 private:
  std::vector<Cube> cubes_;
};

}  // namespace minpower
