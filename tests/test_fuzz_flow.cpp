// Seeded mutation fuzz of the engine's text inputs (ctest label `fuzz`):
// the minpower.flow.v1 decoders, the BLIF reader and the genlib reader.
// The committed suite baseline, one journal cell, the 17 suite BLIFs and
// the built-in genlib are mutated by bit flips, truncation, and line
// duplication or deletion over a fixed seed range; every mutant must decode
// or come back with an error. None may abort, and under the sanitizer build
// none may reach undefined behaviour (an out-of-range double-to-integer
// cast included).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "map/mapper.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

std::string baseline_text() {
  std::ifstream in(std::string(MP_TEST_DATA_DIR) +
                   "/baselines/flow_suite.json");
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One mutant of `text`, the kind chosen by `seed`: 1–4 bit flips, a
/// truncation, or one line duplicated or deleted.
std::string mutate(const std::string& text, std::uint64_t seed) {
  Rng rng(seed);
  std::string out = text;
  switch (seed % 4) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i)
        out[rng.below(out.size())] ^= static_cast<char>(1u << rng.below(8));
      return out;
    }
    case 1:
      out.resize(rng.below(out.size()));
      return out;
    default: {
      std::vector<std::string> lines;
      std::istringstream in(text);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      const std::size_t at = rng.below(lines.size());
      if (seed % 4 == 2)
        lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
      else
        lines.erase(lines.begin() + static_cast<long>(at));
      out.clear();
      for (const std::string& line : lines) out += line + '\n';
      return out;
    }
  }
}

constexpr std::uint64_t kSeeds = 800;

TEST(FuzzFlow, MutatedReportsDecodeOrFail) {
  const std::string text = baseline_text();
  ASSERT_FALSE(text.empty());
  int decoded = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string mutant = mutate(text, seed);
    std::string error;
    const std::optional<JsonValue> doc = parse_json(mutant, &error);
    if (!doc) {
      ++rejected;
      continue;
    }
    FlowDoc flow;
    if (parse_flow_json(*doc, &flow, &error)) {
      ++decoded;
    } else {
      EXPECT_FALSE(error.empty()) << "seed " << seed;
      ++rejected;
    }
  }
  // The corpus exercises both outcomes, so neither path goes untested.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzFlow, MutatedJournalCellsDecodeOrFail) {
  // A journal cell line: one baseline cell as write_flow_result_json
  // renders it, pretty-printed so line edits duplicate or drop members.
  const std::optional<JsonValue> doc = parse_json(baseline_text());
  ASSERT_TRUE(doc.has_value());
  FlowDoc flow;
  std::string error;
  ASSERT_TRUE(parse_flow_json(*doc, &flow, &error)) << error;
  std::ostringstream os;
  {
    JsonWriter w(os);
    write_flow_result_json(w, flow.per_circuit.at(0).at(0));
  }
  const std::string cell = os.str();

  int decoded = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::optional<JsonValue> v = parse_json(mutate(cell, seed), &error);
    if (!v) {
      ++rejected;
      continue;
    }
    FlowResult r;
    error.clear();
    if (parse_flow_result_json(*v, &r, &error)) {
      ++decoded;
    } else {
      EXPECT_FALSE(error.empty()) << "seed " << seed;
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzFlow, MutatedSuiteBlifsParseAndPrepareOrFail) {
  // Every mutant that parses goes on through rugged-lite, the first step
  // of every request; it must come back or throw, never abort.
  constexpr std::uint64_t kBlifSeeds = 400;
  int parsed = 0;
  int rejected = 0;
  int threw = 0;
  for (const BenchProfile& p : paper_suite()) {
    const std::string text = write_blif_string(generate_benchmark(p));
    for (std::uint64_t seed = 1; seed <= kBlifSeeds; ++seed) {
      BlifError error;
      std::optional<Network> net =
          try_read_blif_string(mutate(text, seed), &error);
      if (!net) {
        EXPECT_FALSE(error.message.empty()) << p.name << " seed " << seed;
        ++rejected;
        continue;
      }
      ++parsed;
      try {
        prepare_network(*net);
      } catch (const std::exception&) {
        ++threw;
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  std::printf("%d mutants parsed (%d threw in rugged-lite), %d rejected\n",
              parsed, threw, rejected);
}

TEST(FuzzFlow, MutatedGenlibsBuildOrFailAndMap) {
  // The built-in library's genlib text: every mutant builds a Library or
  // throws GenlibError. One that passes the CLI's --genlib check (an
  // inverter and a 2-input NAND) must map a small subject; a mapper that
  // cannot use it must say so by exception, never abort.
  constexpr std::uint64_t kGenlibSeeds = 1200;
  Network raw = testing::random_network(7, 6, 14, 3);
  prepare_network(raw);
  const Network subject =
      decompose_network(raw, NetworkDecompOptions{}).network;
  int built = 0;
  int rejected = 0;
  int mapped = 0;
  for (std::uint64_t seed = 1; seed <= kGenlibSeeds; ++seed) {
    std::optional<Library> lib;
    try {
      lib.emplace(
          Library::parse_genlib(mutate(standard_library_genlib(), seed)));
    } catch (const GenlibError& e) {
      EXPECT_NE(std::string(e.what()), "") << "seed " << seed;
      ++rejected;
      continue;
    }
    ++built;
    if (!lib->has_base_gates()) continue;
    const MapResult r = map_network(subject, *lib, MapOptions{});
    r.mapped.check();
    ++mapped;
  }
  EXPECT_GT(mapped, 0);
  EXPECT_GT(rejected, 0);
  std::printf("%d genlib mutants built (%d mapped), %d rejected\n", built,
              mapped, rejected);
}

}  // namespace
}  // namespace minpower
