#include "library/library.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace minpower {

double Gate::worst_delay(double load) const {
  double d = 0.0;
  for (const GatePin& p : pins)
    d = std::max(d, p.intrinsic + p.drive * load);
  return d;
}

double Gate::max_drive() const {
  double r = 0.0;
  for (const GatePin& p : pins) r = std::max(r, p.drive);
  return r;
}

const Gate* Library::find(const std::string& gate_name) const {
  for (const Gate& g : gates_)
    if (g.name == gate_name) return &g;
  return nullptr;
}

const Gate& Library::inverter() const {
  MP_CHECK_MSG(inverter_index_ >= 0, "library has no inverter");
  return gates_[static_cast<std::size_t>(inverter_index_)];
}

const Gate& Library::nand2() const {
  MP_CHECK_MSG(nand2_index_ >= 0, "library has no 2-input NAND");
  return gates_[static_cast<std::size_t>(nand2_index_)];
}

double Library::default_load() const { return nand2().pins[0].cap; }

const PatternShapes& Library::shapes() const {
  std::call_once(shapes_->built, [this] {
    PatternShapes& s = shapes_->shapes;
    for (const Gate& g : gates_)
      for (const auto& pat : g.patterns)
        s.roots.push_back(s.table.intern(*pat));
  });
  return shapes_->shapes;
}

Library Library::parse_genlib(const std::string& text, std::string name) {
  Library lib;
  lib.name_ = std::move(name);

  // Tokenize the whole file (comments stripped per line). genlib allows PIN
  // entries on the GATE line or on following lines, so a token stream is the
  // robust representation.
  std::vector<std::string> tokens;
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (const auto hash = line.find('#'); hash != std::string::npos)
        line.erase(hash);
      for (std::string_view t : split_ws(line)) tokens.emplace_back(t);
    }
  }

  const auto fail = [&lib](const std::string& message) {
    throw GenlibError("genlib " + lib.name_ + ": " + message);
  };
  std::size_t pos = 0;
  auto next = [&]() -> const std::string& {
    if (pos >= tokens.size()) fail("unexpected end of file");
    return tokens[pos++];
  };

  while (pos < tokens.size()) {
    if (tokens[pos] != "GATE") fail("expected GATE, got " + tokens[pos]);
    ++pos;
    Gate g;
    g.name = next();
    const auto area = parse_number<double>(next());
    if (!area) fail("bad area for gate " + g.name);
    g.area = *area;
    // Function: tokens up to and including the one ending with ';'.
    std::string fn;
    for (;;) {
      const std::string& t = next();
      if (!fn.empty()) fn += ' ';
      fn += t;
      if (!t.empty() && t.back() == ';') break;
    }
    const auto eq = fn.find('=');
    if (eq == std::string::npos)
      fail("function of gate " + g.name + " needs '='");
    g.output = std::string(trim(fn.substr(0, eq)));
    try {
      g.function = parse_expr(fn.substr(eq + 1, fn.rfind(';') - eq - 1));
    } catch (const std::invalid_argument& e) {
      fail("bad function of gate " + g.name + ": " + e.what());
    }

    // PIN entries.
    std::vector<GatePin> pins;
    bool star = false;
    GatePin star_pin;
    while (pos < tokens.size() && tokens[pos] == "PIN") {
      ++pos;
      GatePin p;
      p.name = next();
      next();  // phase (INV/NONINV/UNKNOWN) — not needed for matching
      const auto cap = parse_number<double>(next());
      next();  // max-load
      const auto rb = parse_number<double>(next());
      const auto rf = parse_number<double>(next());
      const auto fb = parse_number<double>(next());
      const auto ff = parse_number<double>(next());
      if (!(cap && rb && rf && fb && ff))
        fail("bad PIN numbers for pin " + p.name + " of gate " + g.name);
      p.cap = *cap;
      p.intrinsic = std::max(*rb, *fb);
      p.drive = std::max(*rf, *ff);
      if (p.name == "*") {
        star = true;
        star_pin = p;
      } else {
        pins.push_back(p);
      }
    }

    const std::vector<std::string> vars = g.function->variables();
    for (const std::string& v : vars) {
      const GatePin* found = nullptr;
      for (const GatePin& p : pins)
        if (p.name == v) found = &p;
      if (found != nullptr) {
        g.pins.push_back(*found);
      } else {
        if (!star) fail("missing PIN for " + v + " of gate " + g.name);
        star_pin.name = v;
        g.pins.push_back(star_pin);
      }
    }
    if (g.function->kind != Expr::Kind::kConst0 &&
        g.function->kind != Expr::Kind::kConst1)
      g.patterns = generate_patterns(*g.function, vars);
    lib.gates_.push_back(std::move(g));
  }

  // Locate the canonical inverter (!a) and NAND2 (!(a*b)). Their operands
  // must be the pins themselves: a gate of the same shape over other
  // operands, such as !(!a*b) or !(a*a), covers no plain NAND2 or INV
  // subject node, so a library with only those cannot map every subject.
  const auto is_var = [](const std::unique_ptr<Expr>& e) {
    return e->kind == Expr::Kind::kVar;
  };
  for (std::size_t i = 0; i < lib.gates_.size(); ++i) {
    const Gate& g = lib.gates_[i];
    const auto is_better = [&](int idx) {
      return idx < 0 || g.area < lib.gates_[static_cast<std::size_t>(idx)].area;
    };
    const Expr& f = *g.function;
    if (g.num_inputs() == 1 && f.kind == Expr::Kind::kNot &&
        is_var(f.child[0]) && is_better(lib.inverter_index_))
      lib.inverter_index_ = static_cast<int>(i);
    if (g.num_inputs() == 2 && f.kind == Expr::Kind::kNot &&
        f.child[0]->kind == Expr::Kind::kAnd &&
        std::all_of(f.child[0]->child.begin(), f.child[0]->child.end(),
                    is_var) &&
        is_better(lib.nand2_index_))
      lib.nand2_index_ = static_cast<int>(i);
  }
  if (lib.gates_.empty()) fail("empty library");
  return lib;
}

std::string Library::to_genlib() const {
  std::string out;
  char buf[256];
  for (const Gate& g : gates_) {
    std::snprintf(buf, sizeof buf, "GATE %s %g %s=%s;\n", g.name.c_str(),
                  g.area, g.output.c_str(), g.function->to_string().c_str());
    out += buf;
    for (const GatePin& p : g.pins) {
      std::snprintf(buf, sizeof buf, "PIN %s UNKNOWN %g 999 %g %g %g %g\n",
                    p.name.c_str(), p.cap, p.intrinsic, p.drive, p.intrinsic,
                    p.drive);
      out += buf;
    }
  }
  return out;
}

namespace {

// A lib2-scale library: INV/NAND/NOR families in three drive strengths /
// input counts, AND/OR, AOI/OAI complex gates, XOR/XNOR and a buffer.
// Numbers follow the usual static-CMOS trends: per-input cap ~1 unit,
// larger stacks are slower, complex gates amortize area but drive weakly.
const char kStandardGenlib[] = R"(
# minpower standard cell library (lib2-like)
GATE inv1   1.0  O=!a;        PIN a INV 1.0 999 0.40 0.45 0.40 0.45
GATE inv2   2.0  O=!a;        PIN a INV 2.0 999 0.32 0.22 0.32 0.22
GATE inv4   4.0  O=!a;        PIN a INV 4.0 999 0.28 0.11 0.28 0.11
GATE buf2   3.0  O=a;         PIN a NONINV 1.0 999 0.75 0.25 0.75 0.25
GATE nand2  2.0  O=!(a*b);    PIN * INV 1.0 999 0.50 0.50 0.50 0.50
GATE nand3  3.0  O=!(a*b*c);  PIN * INV 1.1 999 0.72 0.58 0.72 0.58
GATE nand4  4.0  O=!(a*b*c*d); PIN * INV 1.2 999 0.94 0.66 0.94 0.66
GATE nor2   2.0  O=!(a+b);    PIN * INV 1.0 999 0.58 0.58 0.58 0.58
GATE nor3   3.0  O=!(a+b+c);  PIN * INV 1.1 999 0.86 0.70 0.86 0.70
GATE nor4   4.0  O=!(a+b+c+d); PIN * INV 1.2 999 1.14 0.82 1.14 0.82
GATE and2   3.0  O=a*b;       PIN * NONINV 1.0 999 0.90 0.35 0.90 0.35
GATE and3   4.0  O=a*b*c;     PIN * NONINV 1.1 999 1.12 0.38 1.12 0.38
GATE and4   5.0  O=a*b*c*d;   PIN * NONINV 1.2 999 1.34 0.42 1.34 0.42
GATE or2    3.0  O=a+b;       PIN * NONINV 1.0 999 0.98 0.35 0.98 0.35
GATE or3    4.0  O=a+b+c;     PIN * NONINV 1.1 999 1.26 0.38 1.26 0.38
GATE or4    5.0  O=a+b+c+d;   PIN * NONINV 1.2 999 1.54 0.42 1.54 0.42
GATE aoi21  3.0  O=!(a*b+c);  PIN * INV 1.1 999 0.68 0.62 0.68 0.62
GATE aoi22  4.0  O=!(a*b+c*d); PIN * INV 1.1 999 0.78 0.66 0.78 0.66
GATE oai21  3.0  O=!((a+b)*c); PIN * INV 1.1 999 0.68 0.62 0.68 0.62
GATE oai22  4.0  O=!((a+b)*(c+d)); PIN * INV 1.1 999 0.78 0.66 0.78 0.66
GATE aoi211 4.0 O=!(a*b+c+d); PIN * INV 1.2 999 0.88 0.72 0.88 0.72
GATE oai211 4.0 O=!((a+b)*c*d); PIN * INV 1.2 999 0.88 0.72 0.88 0.72
GATE xor2   5.0  O=a*!b+!a*b; PIN * UNKNOWN 1.4 999 1.10 0.68 1.10 0.68
GATE xnor2  5.0  O=a*b+!a*!b; PIN * UNKNOWN 1.4 999 1.10 0.68 1.10 0.68
GATE mux21  5.0  O=s*a+!s*b;  PIN * UNKNOWN 1.3 999 1.05 0.60 1.05 0.60
GATE nand2b 3.0 O=!(!a*b);   PIN * INV 1.1 999 0.62 0.55 0.62 0.55
GATE nor2b  3.0  O=!(!a+b);   PIN * INV 1.1 999 0.70 0.58 0.70 0.58
)";

}  // namespace

const std::string& standard_library_genlib() {
  static const std::string text(kStandardGenlib);
  return text;
}

const Library& standard_library() {
  static const Library lib =
      Library::parse_genlib(standard_library_genlib(), "mp-lib2");
  return lib;
}

}  // namespace minpower
