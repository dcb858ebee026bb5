// The CLI must turn bad user input into exit code 1 with a message on
// stderr, never an MP_CHECK abort (exit 134 via SIGABRT).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

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
  const std::size_t at = text.find("\"area\": 168,");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::strlen("\"area\": 168,"), "\"area\": \"168\",");
  const std::string mutant = write_temp("string_area.json", text);
  expect_clean_failure("compare " + base + " " + mutant + " --qor-only",
                       mutant + ": circuits[0] 's208' methods[0]: missing or "
                                "mistyped field 'area'");
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
