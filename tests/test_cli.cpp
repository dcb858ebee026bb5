// The CLI must turn bad user input into exit code 1 with a message on
// stderr, never an MP_CHECK abort (exit 134 via SIGABRT).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "benchgen/benchgen.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"

namespace {

struct Run {
  int exit_code = -1;  // -1 when the process died from a signal
  std::string output;  // stdout and stderr together
};

Run run_cli(const std::string& args) {
  const std::string cmd = std::string(MP_CLI_PATH) + " " + args + " 2>&1";
  Run r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "mp_cli_" + name;
  std::ofstream(path) << text;
  return path;
}

void expect_clean_failure(const std::string& args, const std::string& message) {
  const Run r = run_cli(args);
  EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
  EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("MP_CHECK"), std::string::npos) << r.output;
}

TEST(Cli, BenchHelpIsUsageNotAbort) {
  expect_clean_failure("bench --help", "usage: minpower bench <name>");
}

TEST(Cli, UnknownBenchmarkIsFatalNotAbort) {
  expect_clean_failure("bench nosuch", "unknown benchmark nosuch");
}

// `bench --scale` writes the scale generator's instance itself, so a
// 1000-gate point can be profiled through `minpower flow`.
TEST(Cli, BenchScaleWritesTheGeneratedInstance) {
  const std::string path = ::testing::TempDir() + "mp_cli_mesh-100.blif";
  const auto r = run_cli("bench --scale mesh:100 --seed 7 -o " + path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), minpower::write_blif_string(
                           minpower::generate_scale_benchmark(
                               {"mesh", 100, 7})));
}

TEST(Cli, BadBenchScaleIsFatalNotAbort) {
  expect_clean_failure("bench --scale ring:100", "unknown scale family 'ring'");
  for (const char* spec : {"chain", "chain:", "chain:0", "chain:x",
                           "chain:-5", "chain:1000001"})
    expect_clean_failure(std::string("bench --scale ") + spec,
                         "--scale wants <family>:<gates>");
  expect_clean_failure("bench --scale cone:10 --seed -1",
                       "--seed needs a number, got '-1'");
  expect_clean_failure("bench x2 --scale cone:10",
                       "bench takes a suite name or --scale, not both");
}

TEST(Cli, GenlibWithoutNand2OrInverterIsFatalNotAbort) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string no_nand2 = write_temp(
      "no_nand2.genlib",
      "GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE nor2 2.0 O=!(a+b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n");
  const std::string no_inv = write_temp(
      "no_inv.genlib",
      "GATE nand2 2.0 O=!(a*b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n");
  for (const std::string& lib : {no_nand2, no_inv})
    expect_clean_failure("flow " + blif + " --genlib " + lib,
                         "needs an inverter and a 2-input NAND");
}

// A NAND2-shaped gate over an inverted pin is no NAND2: mapping with it
// alone would find no match at a plain NAND2 node and abort.
TEST(Cli, GenlibWithOnlyInvertedInputNandIsFatalNotAbort) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string lib = write_temp(
      "nand2b_only.genlib",
      "GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE nand2b 2.0 O=!(!a*b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n");
  expect_clean_failure("flow " + blif + " --genlib " + lib,
                       "needs an inverter and a 2-input NAND");
}

TEST(Cli, MalformedGenlibIsFatalNotAbort) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string base =
      "GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.4 0.4 0.4 0.4\n"
      "GATE nand2 2.0 O=!(a*b); PIN * INV 1.0 999 0.5 0.5 0.5 0.5\n";
  const struct {
    const char* name;
    const char* gate;
    const char* message;
  } cases[] = {
      {"bad_pin_numbers.genlib",
       "GATE and2 3.0 O=a*b; PIN * NONINV 1.0 999 fast 0.5 0.5 0.5\n",
       "bad PIN numbers for pin * of gate and2"},
      {"missing_pin.genlib",
       "GATE and2 3.0 O=a*b; PIN a NONINV 1.0 999 0.5 0.5 0.5 0.5\n",
       "missing PIN for b of gate and2"},
      {"missing_eq.genlib",
       "GATE and2 3.0 a*b; PIN * NONINV 1.0 999 0.5 0.5 0.5 0.5\n",
       "function of gate and2 needs '='"},
      {"unbalanced_paren.genlib",
       "GATE and2 3.0 O=(a*b; PIN * NONINV 1.0 999 0.5 0.5 0.5 0.5\n",
       "bad function of gate and2: missing ')' in expression"},
  };
  for (const auto& c : cases)
    expect_clean_failure(
        "flow " + blif + " --genlib " + write_temp(c.name, base + c.gate),
        c.message);
}

TEST(Cli, UnwritableOutputIsFatalNotAbort) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string out = "/nonexistent/d/y.blif";
  for (const char* cmd : {"opt", "map"})
    expect_clean_failure(std::string(cmd) + " " + blif + " -o " + out,
                         "cannot open output file " + out);
}

TEST(Cli, MalformedNumericFlagIsFatalNotAbort) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  // Non-numeric text and trailing text are both rejected, naming the flag
  // and the value.
  expect_clean_failure("flow " + blif + " --threads abc",
                       "--threads needs a number, got 'abc'");
  expect_clean_failure("verify --seed 4x", "--seed needs a number, got '4x'");
  expect_clean_failure("flow " + blif + " --threads -1",
                       "--threads needs a number, got '-1'");
}

TEST(Cli, UnknownMapObjectiveIsFatal) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  expect_clean_failure("map " + blif + " -O nope",
                       "-O must be power|area, got 'nope'");
}

TEST(Cli, UnknownDecompAlgorithmIsFatal) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  expect_clean_failure("decomp " + blif + " -a nope",
                       "-a must be minpower|balanced, got 'nope'");
}

TEST(Cli, NegativeVerifyCountIsFatal) {
  expect_clean_failure("verify --count -1", "--count must be at least 1, got -1");
}

TEST(Cli, NegativeDeadlineIsFatal) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  expect_clean_failure("flow " + blif + " --deadline-ms -1",
                       "--deadline-ms must not be negative, got '-1'");
}

TEST(Cli, OutOfRangeServePortIsFatal) {
  expect_clean_failure("serve --port 99999999",
                       "--port needs a number, got '99999999'");
}

TEST(Cli, TrendRecordWithoutRequiredFieldsIsFatal) {
  const std::string traj = write_temp(
      "bare.jsonl",
      "{\"schema\":\"minpower.bench_trajectory.v1\",\"family\":\"chain\"}\n");
  expect_clean_failure("trend " + traj,
                       traj + ":1: trajectory record lacks required field "
                              "'seed'");
}

TEST(Cli, CompareOfMalformedReportIsFatal) {
  const std::string base =
      std::string(MP_TEST_DATA_DIR) + "/baselines/flow_suite.json";
  std::ifstream in(base);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The first cell's area as the file writes it, so a regenerated
  // baseline keeps the mutant applicable.
  const std::string area = minpower::testing::first_number(text, "area");
  const std::string field = "\"area\": " + area + ",";
  const std::size_t at = text.find(field);
  ASSERT_FALSE(area.empty());
  ASSERT_NE(at, std::string::npos);
  text.replace(at, field.size(), "\"area\": \"" + area + "\",");
  const std::string mutant = write_temp("string_area.json", text);
  expect_clean_failure("compare " + base + " " + mutant + " --qor-only",
                       mutant + ": circuits[0] 's208' methods[0]: missing or "
                                "mistyped field 'area'");
}

// A misspelt flag must not pass for a positional argument.
TEST(Cli, UnknownOptionIsFatal) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string base =
      std::string(MP_TEST_DATA_DIR) + "/baselines/flow_suite.json";
  expect_clean_failure("stats " + blif + " --verbos",
                       "unknown option --verbos");
  expect_clean_failure("flow " + blif + " --threds 2",
                       "unknown option --threds");
  expect_clean_failure("compare " + base + " " + base + " --qor-onyl",
                       "unknown option --qor-onyl");
  // A flag that only another subcommand reads is refused, not ignored.
  expect_clean_failure("stats " + blif + " --qor-only --shards 3",
                       "option --qor-only does not apply to stats");
  expect_clean_failure("decomp " + blif + " --threads 2",
                       "option --threads does not apply to decomp");
  expect_clean_failure("compare " + base + " " + base + " --bounded",
                       "option --bounded does not apply to compare");
  expect_clean_failure("verify --count 1 --shards 2",
                       "option --shards does not apply to verify");
  expect_clean_failure("bench s208 --genlib x.genlib",
                       "option --genlib does not apply to bench");
  EXPECT_EQ(run_cli("decomp " + blif + " -a balanced --bounded -o " +
                    ::testing::TempDir() + "mp_cli_decomp.blif")
                .exit_code,
            0);
}

// `profile --diff` sets two traces side by side: the wall and every phase,
// each side's self and total time, the change and its percentage.
TEST(Cli, ProfileDiffOfTwoTracedRuns) {
  const std::string blif = write_temp("and.blif",
                                      ".model t\n.inputs a b\n.outputs y\n"
                                      ".names a b y\n11 1\n.end\n");
  const std::string base = ::testing::TempDir() + "mp_cli_base.trace.json";
  const std::string cand = ::testing::TempDir() + "mp_cli_cand.trace.json";
  for (const std::string& trace : {base, cand})
    ASSERT_EQ(run_cli("flow " + blif + " --trace " + trace).exit_code, 0);
  const std::string json = ::testing::TempDir() + "mp_cli_diff.json";
  const auto r = run_cli("profile --diff " + base + " " + cand + " --json " +
                        json);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(wall)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("map.curves"), std::string::npos) << r.output;
  std::ifstream in(json);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  for (const char* key : {"\"minpower.profile_diff.v1\"", "\"wall\"",
                          "\"name\": \"map.curves\"", "\"base_self_us\"",
                          "\"cand_total_us\"", "\"delta_self_us\"",
                          "\"self_pct\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key << "\n" << doc;

  const std::string bad = write_temp("bad.trace.json", "not json");
  const std::string missing = ::testing::TempDir() + "mp_cli_none.json";
  expect_clean_failure("profile --diff " + base + " " + missing,
                       "cannot open trace file " + missing);
  expect_clean_failure("profile --diff " + bad + " " + cand, bad + ": ");
  expect_clean_failure("profile --diff " + base,
                       "profile --diff needs <base.trace.json> "
                       "<cand.trace.json>");
}

TEST(Cli, ProfileOfTraceWithOutOfRangePidIsFatal) {
  const std::string trace = write_temp(
      "huge_pid.trace.json",
      "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"ts\":1,"
      "\"dur\":1,\"tid\":1,\"pid\":1e12}]}\n");
  expect_clean_failure("profile " + trace,
                       trace + ": pid outside int range");
}

}  // namespace
