#pragma once
// Gate library with the pin-dependent SIS delay model (Sec. 3.1, Eq. 14):
//   arrival(n,g,C) = max_i ( τ_i,g + R_i,g · C + arrival(input_i) )
// Each pin carries an input capacitance, an intrinsic (block) delay τ and a
// drive resistance R (the fanout-delay coefficient). Capacitance is in
// abstract "unit loads"; `kUnitCapFarads` converts to Farads for the power
// formula of Eq. 1.

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "library/expr.hpp"
#include "library/pattern.hpp"

namespace minpower {

/// One capacitance unit in Farads (10 fF): keeps mapped power in the µW
/// range the paper reports at Vdd = 5 V, 20 MHz.
inline constexpr double kUnitCapFarads = 1e-14;

/// Malformed genlib text; the message says what is wrong.
struct GenlibError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct GatePin {
  std::string name;
  double cap = 1.0;        // input capacitance, unit loads
  double intrinsic = 0.0;  // block delay, ns
  double drive = 0.0;      // drive resistance: ns per unit load
};

struct Gate {
  std::string name;
  double area = 0.0;
  std::string output;
  std::unique_ptr<Expr> function;
  std::vector<GatePin> pins;                        // order = leaf pin index
  std::vector<std::unique_ptr<Pattern>> patterns;   // NAND2/INV trees

  int num_inputs() const { return static_cast<int>(pins.size()); }

  /// Worst-case delay through the gate at load C (used for reporting).
  double worst_delay(double load) const;

  /// Largest drive resistance over pins (for curve shifting).
  double max_drive() const;
};

/// The shapes of a library's patterns: the interned table, and each
/// pattern's root shape in library order (gate by gate, each gate's
/// patterns in order).
struct PatternShapes {
  ShapeTable table;
  std::vector<std::uint32_t> roots;
};

class Library {
 public:
  const std::vector<Gate>& gates() const { return gates_; }
  const std::string& name() const { return name_; }
  /// The shapes of every gate's patterns. Built on first use, once per
  /// library and thread-safe, so that parsing a genlib does not pay for it.
  const PatternShapes& shapes() const;

  const Gate* find(const std::string& gate_name) const;

  /// Smallest-area inverter / NAND2 (must exist in any usable library).
  const Gate& inverter() const;
  const Gate& nand2() const;
  /// True when both exist, i.e. inverter() and nand2() may be called.
  bool has_base_gates() const {
    return inverter_index_ >= 0 && nand2_index_ >= 0;
  }

  /// Default load during postorder traversal: the input capacitance of the
  /// smallest 2-input NAND (Sec. 3.2.3).
  double default_load() const;

  /// Throws GenlibError on malformed text (missing tokens or '=', bad
  /// numbers, a function variable without a PIN, an empty library).
  static Library parse_genlib(const std::string& text,
                              std::string name = "genlib");

  /// Serialize back to genlib text (pin-per-line form). Round-trips through
  /// parse_genlib up to the lossy block/fanout split (intrinsic and drive
  /// are emitted as both rise and fall values).
  std::string to_genlib() const;

 private:
  std::string name_;
  std::vector<Gate> gates_;
  struct ShapeCache {
    std::once_flag built;
    PatternShapes shapes;
  };
  std::unique_ptr<ShapeCache> shapes_ = std::make_unique<ShapeCache>();
  int inverter_index_ = -1;
  int nand2_index_ = -1;
};

/// The embedded lib2-like library used by the experiments.
const Library& standard_library();

/// Its genlib source text (also usable to test the parser round trip).
const std::string& standard_library_genlib();

}  // namespace minpower
