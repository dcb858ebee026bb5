// End-to-end pins of `minpower flow`, the front end over the in-process
// engine and the crash-isolated shard workers (DESIGN.md §7, §14). Each test
// runs the built binary on three suite circuits written by `minpower bench`
// and checks what the two modes must share:
//   - the sharded document does not depend on the shard count (beyond the
//     `num_threads` header, which records it) or on a journal resume;
//   - it is the canonical rendering (zeroed wall times, no metrics block,
//     3/3/6 pass counters per circuit) of an in-process FlowSession run;
//   - an in-process `--json` report carries the same cells;
//   - `--metrics-out` and `--trace` write the mode's sidecar and a trace
//     that `minpower profile` can analyze.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "trace/analysis.hpp"
#include "util/json_reader.hpp"

namespace minpower {
namespace {

const char* const kCircuits[] = {"cm42a", "x2", "s208"};

struct CliRun {
  int exit_code = -1;  // -1 when the process died from a signal
  std::string output;  // stdout and stderr together
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(MP_CLI_PATH) + " " + args + " 2>&1";
  CliRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The document with its `"num_threads": N` header value blanked: the one
/// line in which sharded documents at different shard counts differ.
std::string without_num_threads(std::string doc) {
  const std::string key = "\"num_threads\": ";
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return doc;
  const std::size_t end = doc.find(',', at);
  return doc.replace(at + key.size(), end - at - key.size(), "_");
}

/// A per-test scratch directory holding the three suite BLIFs.
class FlowFrontEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "mp_frontend_" + info->name() + "_" +
           std::to_string(::getpid()) + "_";
    for (const char* name : kCircuits) {
      const std::string path = dir_ + name + ".blif";
      const CliRun r = run_cli(std::string("bench ") + name + " -o " + path);
      ASSERT_EQ(r.exit_code, 0) << r.output;
      blifs_ += " " + path;
      paths_.push_back(path);
    }
  }

  std::string file(const std::string& name) const { return dir_ + name; }

  /// `minpower flow <the three BLIFs> <args>`, which must exit 0.
  std::string flow(const std::string& args) const {
    const CliRun r = run_cli("flow" + blifs_ + " " + args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
    return r.output;
  }

  std::string dir_;
  std::string blifs_;
  std::vector<std::string> paths_;
};

TEST_F(FlowFrontEnd, ShardedDocumentIsShardCountAndResumeInvariant) {
  flow("--shards 2 --json " + file("s2.json"));
  flow("--shards 3 --json " + file("s3.json") + " --journal " +
       file("j.jsonl"));
  const std::string s2 = slurp(file("s2.json"));
  const std::string s3 = slurp(file("s3.json"));
  ASSERT_FALSE(s3.empty());
  EXPECT_NE(s2.find("\"num_threads\": 2,"), std::string::npos);
  EXPECT_NE(s3.find("\"num_threads\": 3,"), std::string::npos);
  EXPECT_EQ(without_num_threads(s2), without_num_threads(s3));

  // Keep the header and the first 7 journaled cells: the resumed run must
  // take those 7 and compute the other 11, byte-identically.
  std::istringstream journal(slurp(file("j.jsonl")));
  std::ofstream partial(file("partial.jsonl"));
  std::string line;
  for (int i = 0; i < 8 && std::getline(journal, line); ++i)
    partial << line << '\n';
  partial.close();
  const std::string out = flow("--shards 3 --resume " + file("partial.jsonl") +
                               " --json " + file("resumed.json"));
  EXPECT_NE(out.find("cells: 7 resumed, 11 computed, 0 failed"),
            std::string::npos)
      << out;
  EXPECT_EQ(slurp(file("resumed.json")), s3);
}

TEST_F(FlowFrontEnd, ShardedDocumentIsTheCanonicalInProcessRendering) {
  flow("--shards 3 --json " + file("s3.json"));

  std::vector<Network> nets;
  for (const std::string& path : paths_) {
    nets.push_back(read_blif_file(path));
    prepare_network(nets.back());
  }
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);
  FlowSession engine(standard_library());
  const std::vector<std::vector<FlowResult>> grid = engine.run_suite(circuits);

  EngineCounters counters;
  counters.decomp_passes = 9;
  counters.activity_passes = 9;
  counters.map_passes = 18;
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  std::ostringstream expected;
  write_flow_json(expected, grid, counters, /*num_threads=*/3,
                  /*elapsed_ms=*/0.0, standard_library().name(), policy);
  EXPECT_EQ(slurp(file("s3.json")), expected.str());
}

TEST_F(FlowFrontEnd, InProcessCellsEqualTheShardedDocument) {
  flow("--shards 3 --json " + file("s3.json"));
  const std::string out = flow("--json " + file("in.json"));
  EXPECT_NE(out.find("engine: 9 decompositions, 9 activity passes, 18 "
                     "mappings"),
            std::string::npos)
      << out;

  std::string error;
  const std::optional<JsonValue> doc =
      parse_json(slurp(file("in.json")), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->find("metrics"), nullptr);
  FlowDoc in;
  ASSERT_TRUE(parse_flow_json(*doc, &in, &error)) << error;
  ASSERT_EQ(in.per_circuit.size(), 3u);

  // Re-rendered canonically, the in-process cells are the sharded document.
  FlowJsonPolicy policy;
  policy.include_metrics = false;
  policy.zero_wall_times = true;
  std::ostringstream rendered;
  write_flow_json(rendered, in.per_circuit, in.counters, /*num_threads=*/3,
                  /*elapsed_ms=*/0.0, in.library, policy);
  EXPECT_EQ(rendered.str(), slurp(file("s3.json")));
}

TEST_F(FlowFrontEnd, MetricsSidecarSchemaFollowsTheMode) {
  const std::pair<const char*, const char*> modes[] = {
      {"", "minpower.metrics.v1"},
      {"--shards 2 ", "minpower.shard_metrics.v1"}};
  for (const auto& [args, schema] : modes) {
    flow(std::string(args) + "--metrics-out " + file("m.json"));
    std::string error;
    const std::optional<JsonValue> doc =
        parse_json(slurp(file("m.json")), &error);
    ASSERT_TRUE(doc.has_value()) << args << error;
    EXPECT_EQ(doc->string_or("schema"), schema) << args;
    const JsonValue* metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr) << args;
    EXPECT_EQ(metrics->kind, JsonValue::Kind::kObject) << args;
  }
}

TEST_F(FlowFrontEnd, TraceOfEitherModeIsAnalyzable) {
  for (const char* args : {"", "--shards 2 "}) {
    const std::string out = flow(std::string(args) + "--trace " +
                                 file("t.json") + " --json " +
                                 file("traced.json"));
    EXPECT_NE(out.find("trace: "), std::string::npos) << out;
    trace::TraceProfile profile;
    std::string error;
    EXPECT_TRUE(
        trace::analyze_chrome_trace(slurp(file("t.json")), &profile, &error))
        << args << error;
    EXPECT_GT(profile.num_events, 0u) << args;
  }
}

}  // namespace
}  // namespace minpower
