// util/json_reader.hpp module tests: the parser must cover everything the
// tool's own writers emit — JsonWriter control-character escapes, the trace
// exporter's \uXXXX sequences, and negative / exponent-form numbers — and
// stay strict about everything else (bad escapes, unpaired surrogates,
// malformed numbers, trailing garbage, runaway nesting).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string error;
  const auto v = parse_json(text, &error);
  EXPECT_TRUE(v.has_value()) << text << ": " << error;
  return v.value_or(JsonValue{});
}

void expect_reject(const std::string& text) {
  std::string error;
  EXPECT_FALSE(parse_json(text, &error).has_value()) << text;
  EXPECT_FALSE(error.empty()) << text;
}

TEST(JsonReader, DecodesSimpleEscapes) {
  const JsonValue v =
      parse_ok(R"({"s": "a\"b\\c\/d\b\f\n\r\t"})");
  EXPECT_EQ(v.find("s")->string, "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  // 1-, 2-, and 3-byte UTF-8 plus a surrogate pair (4-byte).
  const JsonValue v = parse_ok(
      R"({"ascii": "A", "two": "é", "three": "€",)"
      R"( "pair": "😀"})");
  EXPECT_EQ(v.find("ascii")->string, "A");
  EXPECT_EQ(v.find("two")->string, "\xC3\xA9");        // é
  EXPECT_EQ(v.find("three")->string, "\xE2\x82\xAC");  // €
  EXPECT_EQ(v.find("pair")->string, "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(JsonReader, UpperAndLowerCaseHexBothWork) {
  EXPECT_EQ(parse_ok(R"("é")").string, parse_ok(R"("é")").string);
}

TEST(JsonReader, RejectsBadUnicodeEscapes) {
  expect_reject(R"("\u12")");            // truncated
  expect_reject(R"("\uZZZZ")");          // bad hex
  expect_reject(R"("\ud83d")");          // unpaired high surrogate
  expect_reject(R"("\ud83dxx")");        // high surrogate, no \u follows
  expect_reject(R"("\ud83dA")");    // high surrogate, low half invalid
  expect_reject(R"("\ude00")");          // lone low surrogate
  expect_reject(R"("\x41")");            // not a JSON escape
}

TEST(JsonReader, ParsesNumberForms) {
  const JsonValue v = parse_ok(
      R"({"neg": -42, "frac": 3.25, "negfrac": -0.5, "exp": 1e3,)"
      R"( "negexp": 2.5e-2, "upper": 4E+2, "zero": 0, "negzero": -0})");
  EXPECT_EQ(v.find("neg")->number, -42.0);
  EXPECT_EQ(v.find("frac")->number, 3.25);
  EXPECT_EQ(v.find("negfrac")->number, -0.5);
  EXPECT_EQ(v.find("exp")->number, 1000.0);
  EXPECT_EQ(v.find("negexp")->number, 0.025);
  EXPECT_EQ(v.find("upper")->number, 400.0);
  EXPECT_EQ(v.find("zero")->number, 0.0);
  EXPECT_EQ(v.find("negzero")->number, 0.0);
  EXPECT_TRUE(std::signbit(v.find("negzero")->number));
}

TEST(JsonReader, Parses17DigitDoublesExactly) {
  // write_flow_json emits %.17g — a round trip must be bit-exact.
  const double x = 211.34703457355499;
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("x", x);
    w.end_object();
  }
  EXPECT_EQ(parse_ok(os.str()).find("x")->number, x);
}

TEST(JsonReader, RejectsMalformedNumbers) {
  expect_reject("+5");     // leading plus
  expect_reject("-");      // sign alone
  expect_reject(".5");     // missing integer part
  expect_reject("1e");     // empty exponent
  expect_reject("1e+");    // empty signed exponent
  expect_reject("1.2.3");  // double dot
  expect_reject("1-2");    // stray sign
}

TEST(JsonReader, RoundTripsJsonWriterControlCharacters) {
  // JsonWriter escapes control bytes as \u00XX; the reader must decode
  // them back to the original bytes.
  const std::string original = std::string("a\x01b\x1f") + "c\nd";
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("s", original);
    w.end_object();
  }
  EXPECT_EQ(parse_ok(os.str()).find("s")->string, original);
}

TEST(JsonReader, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += ']';
  expect_reject(deep);

  std::string shallow;
  for (int i = 0; i < 30; ++i) shallow += '[';
  shallow += "1";
  for (int i = 0; i < 30; ++i) shallow += ']';
  EXPECT_TRUE(parse_json(shallow).has_value());
}

TEST(JsonReader, RejectsTrailingContentAndTruncation) {
  expect_reject("{} {}");
  expect_reject("[1,2] x");
  expect_reject("{\"a\": 1");
  expect_reject("[1, 2");
  expect_reject("\"abc");
  expect_reject("{\"a\"");
}

TEST(JsonReader, ObjectOrderAndDuplicateKeysPreserved) {
  const JsonValue v = parse_ok(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  // find() returns the first occurrence.
  EXPECT_EQ(v.find("b")->number, 1.0);
}

TEST(JsonReader, MemberAccessorsFallBackOnAbsentOrMistyped) {
  const JsonValue v =
      parse_ok(R"({"n": 42.9, "s": "text", "ns": "7", "sn": 7})");
  EXPECT_EQ(v.number_or("n"), 42.9);
  EXPECT_EQ(v.number_or<std::uint64_t>("sn"), 7u);
  EXPECT_EQ(v.number_or<std::uint64_t>("n", 5), 5u);  // 42.9 is no integer
  EXPECT_EQ(v.number_or("missing"), 0.0);
  EXPECT_EQ(v.number_or<int>("ns", -1), -1);  // a string is not a number
  EXPECT_EQ(v.string_or("s"), "text");
  EXPECT_EQ(v.string_or("missing"), "");
  EXPECT_EQ(v.string_or("sn", "?"), "?");  // a number is not a string
}

TEST(JsonReader, IntegerConversionRejectsWhatDoesNotFit) {
  EXPECT_EQ(json_integer<int>(-7.0), -7);
  EXPECT_EQ(json_integer<std::uint64_t>(9007199254740992.0),
            9007199254740992u);
  EXPECT_EQ(json_integer<std::uint64_t>(-0.0), 0u);
  EXPECT_FALSE(json_integer<std::uint64_t>(-5.0));      // negative, unsigned
  EXPECT_FALSE(json_integer<std::uint64_t>(1e30));      // above 2^64
  EXPECT_FALSE(json_integer<std::uint64_t>(18446744073709551616.0));  // 2^64
  EXPECT_FALSE(json_integer<int>(2147483648.0));        // INT_MAX + 1
  EXPECT_EQ(json_integer<int>(-2147483648.0), -2147483647 - 1);
  EXPECT_FALSE(json_integer<std::size_t>(1e300));
  EXPECT_FALSE(json_integer<int>(0.5));                 // not integral
  EXPECT_FALSE(json_integer<int>(std::nan("")));
  EXPECT_FALSE(json_integer<int>(HUGE_VAL));
  const JsonValue v = parse_ok(R"({"big": 1e30, "neg": -5})");
  EXPECT_EQ(v.number_or<std::uint64_t>("big", 3), 3u);
  EXPECT_EQ(v.number_or<std::uint64_t>("neg", 3), 3u);
  EXPECT_EQ(v.number_or<int>("neg"), -5);
}

}  // namespace
}  // namespace minpower
