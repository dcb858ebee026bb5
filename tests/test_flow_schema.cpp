// Golden-schema test for the machine-readable reports: the key set, key
// order, and value types of `minpower.flow.v1` are locked against
// tests/golden/flow_schema_v1.txt, so any schema drift (added, renamed,
// retyped, or reordered fields) fails CI until the golden file — and the
// consumers documented in DESIGN.md — are updated deliberately.
//
// The skeleton normalizes values away: every scalar collapses to its type
// name, arrays descend into their first element. Regenerate the golden file
// by running this test with MINPOWER_REGEN_SCHEMA=1 and committing the
// updated text.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "library/library.hpp"
#include "util/json_reader.hpp"
#include "verify/verify.hpp"

namespace minpower {
namespace {

void append_skeleton(const JsonValue& v, const std::string& path,
                     std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      out += path + ": object\n";
      for (const auto& [key, child] : v.members)
        append_skeleton(child, path + "." + key, out);
      break;
    case JsonValue::Kind::kArray:
      out += path + ": array\n";
      if (!v.items.empty()) append_skeleton(v.items.front(), path + "[]", out);
      break;
    default:
      out += path + ": " + v.kind_name() + "\n";
      break;
  }
}

std::string schema_skeleton(const std::string& json) {
  std::string error;
  const auto parsed = parse_json(json, &error);
  EXPECT_TRUE(parsed.has_value()) << "invalid JSON: " << error;
  if (!parsed) return {};
  std::string out;
  append_skeleton(*parsed, "$", out);
  return out;
}

std::string flow_json() {
  Network net = testing::random_network(55, /*num_pi=*/6, /*num_nodes=*/14,
                                        /*num_po=*/3);
  prepare_network(net);
  FlowSession engine(standard_library());
  const std::vector<std::vector<FlowResult>> results{
      engine.run_circuit(net)};
  std::ostringstream os;
  write_flow_json(os, results, engine.counters(), 1, 12.5,
                  standard_library().name());
  return os.str();
}

std::string golden_path() {
  return std::string(MP_TEST_DATA_DIR) + "/golden/flow_schema_v1.txt";
}

TEST(FlowSchema, MatchesGoldenSkeleton) {
  const std::string actual = schema_skeleton(flow_json());
  ASSERT_FALSE(actual.empty());

  if (std::getenv("MINPOWER_REGEN_SCHEMA")) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run with MINPOWER_REGEN_SCHEMA=1 to create";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "minpower.flow.v1 schema drifted; if intentional, regenerate the "
         "golden file with MINPOWER_REGEN_SCHEMA=1 and update DESIGN.md";
}

TEST(FlowSchema, RequiredTopLevelFieldsAndTypes) {
  // Redundant with the golden file but self-describing: the contract the
  // flow-bench consumers rely on.
  std::string error;
  const auto parsed = parse_json(flow_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue& root = *parsed;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  const JsonValue* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "minpower.flow.v1");

  for (const char* key : {"library"}) {
    const JsonValue* v = root.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->kind, JsonValue::Kind::kString) << key;
  }
  for (const char* key : {"num_threads", "elapsed_ms"}) {
    const JsonValue* v = root.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->kind, JsonValue::Kind::kNumber) << key;
  }

  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->kind, JsonValue::Kind::kObject);
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const JsonValue* arr = metrics->find(key);
    ASSERT_NE(arr, nullptr) << key;
    ASSERT_EQ(arr->kind, JsonValue::Kind::kArray) << key;
    ASSERT_FALSE(arr->items.empty()) << key << " empty after a full flow run";
    const JsonValue& first = arr->items.front();
    ASSERT_NE(first.find("name"), nullptr) << key;
    EXPECT_EQ(first.find("name")->kind, JsonValue::Kind::kString) << key;
  }
  // A flow run must have counted BDD work and per-site checkpoints.
  const JsonValue* counters = metrics->find("counters");
  bool saw_bdd = false;
  bool saw_checkpoint = false;
  for (const JsonValue& c : counters->items) {
    const std::string& name = c.find("name")->string;
    if (name == "bdd.unique_lookups" && c.find("value")->number > 0)
      saw_bdd = true;
    if (name.rfind("budget.checkpoint.", 0) == 0 &&
        c.find("value")->number > 0)
      saw_checkpoint = true;
  }
  EXPECT_TRUE(saw_bdd) << "bdd.unique_lookups missing or zero";
  EXPECT_TRUE(saw_checkpoint) << "no budget.checkpoint.* counter recorded";

  const JsonValue* circuits = root.find("circuits");
  ASSERT_NE(circuits, nullptr);
  ASSERT_EQ(circuits->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(circuits->items.empty());
  const JsonValue* methods = circuits->items.front().find("methods");
  ASSERT_NE(methods, nullptr);
  ASSERT_EQ(methods->items.size(), 6u) << "six methods per circuit";
  for (const JsonValue& m : methods->items) {
    for (const char* key : {"area", "delay_ns", "power_uw", "gates"}) {
      const JsonValue* v = m.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::Kind::kNumber) << key;
    }
    ASSERT_NE(m.find("phases"), nullptr);
  }
}

TEST(FlowSchema, VerifyReportParsesAsJson) {
  verify::VerifyOptions o;
  o.seed = 8;
  o.count = 2;
  o.mc_samples = 100;
  const verify::VerifyReport r = verify::run_verification(o);
  std::ostringstream os;
  verify::write_verify_json(os, o, r);
  std::string error;
  const auto parsed = parse_json(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* schema = parsed->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "minpower.verify.v1");
  ASSERT_NE(parsed->find("checks"), nullptr);
  EXPECT_EQ(parsed->find("checks")->kind, JsonValue::Kind::kObject);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
        "{} extra", "[1 2]", "nul"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonReader, ParsesEscapesAndNumbers) {
  const auto v = parse_json(
      "{\"s\": \"a\\n\\\"b\\\"\", \"x\": -1.5e3, \"t\": true, "
      "\"n\": null, \"arr\": [1, 2, 3]}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("s")->string, "a\n\"b\"");
  EXPECT_EQ(v->find("x")->number, -1500.0);
  EXPECT_TRUE(v->find("t")->boolean);
  EXPECT_EQ(v->find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->find("arr")->items.size(), 3u);
}

}  // namespace
}  // namespace minpower
