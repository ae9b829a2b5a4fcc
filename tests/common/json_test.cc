#include "common/json.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace ppn {
namespace {

TEST(JsonTest, ParsesScalars) {
  JsonValue value;
  ASSERT_TRUE(ParseJson("null", &value));
  EXPECT_TRUE(value.is_null());
  ASSERT_TRUE(ParseJson("true", &value));
  EXPECT_TRUE(value.AsBool());
  ASSERT_TRUE(ParseJson("false", &value));
  EXPECT_FALSE(value.AsBool());
  ASSERT_TRUE(ParseJson("42", &value));
  EXPECT_DOUBLE_EQ(value.AsNumber(), 42.0);
  ASSERT_TRUE(ParseJson("-1.5e-3", &value));
  EXPECT_DOUBLE_EQ(value.AsNumber(), -1.5e-3);
  ASSERT_TRUE(ParseJson("\"hi\"", &value));
  EXPECT_EQ(value.AsString(), "hi");
}

TEST(JsonTest, ParsesNestedContainers) {
  JsonValue value;
  ASSERT_TRUE(ParseJson(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": -0.25})", &value));
  ASSERT_TRUE(value.is_object());
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[0].AsNumber(), 1.0);
  EXPECT_EQ(a->AsArray()[2].StringOr("b", ""), "x");
  EXPECT_TRUE(value.Find("c")->Find("d")->is_null());
  EXPECT_DOUBLE_EQ(value.NumberOr("e", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(value.NumberOr("missing", 7.0), 7.0);
}

TEST(JsonTest, ParsesStringEscapes) {
  JsonValue value;
  ASSERT_TRUE(ParseJson(R"("a\"b\\c\n\tA")", &value));
  EXPECT_EQ(value.AsString(), "a\"b\\c\n\tA");
}

TEST(JsonTest, RoundTripsSeventeenDigitDoubles) {
  // The RunLog writes %.17g; the parser must read those back bit-exactly.
  const double original = 0.1234567890123456789;
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", original);
  JsonValue value;
  ASSERT_TRUE(ParseJson(text, &value));
  EXPECT_EQ(value.AsNumber(), original);
}

TEST(JsonTest, IntOrReadsIntegerTokensExactly) {
  JsonValue value;
  ASSERT_TRUE(ParseJson(R"({"odd": 9007199254740993, "neg": -5505767809153612232,
      "min": -9223372036854775808, "over": 9223372036854775808,
      "real": 1.5, "exp": 1e3, "text": "7"})",
                        &value));
  EXPECT_EQ(value.IntOr("odd", 0), 9007199254740993);  // 2^53 + 1.
  EXPECT_EQ(value.IntOr("neg", 0), -5505767809153612232);
  EXPECT_EQ(value.IntOr("min", 0), std::numeric_limits<int64_t>::min());
  // Anything but an integer token that fits yields the fallback.
  EXPECT_EQ(value.IntOr("over", -1), -1);
  EXPECT_EQ(value.IntOr("real", -1), -1);
  EXPECT_EQ(value.IntOr("exp", -1), -1);
  EXPECT_EQ(value.IntOr("text", -1), -1);
  EXPECT_EQ(value.IntOr("missing", -1), -1);
  // The double view of an integer token is the one strtod gives.
  EXPECT_EQ(value.NumberOr("odd", 0.0), 9007199254740992.0);
  EXPECT_EQ(value.NumberOr("over", 0.0), 9223372036854775808.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("", &value, &error));
  EXPECT_FALSE(ParseJson("{", &value, &error));
  EXPECT_FALSE(ParseJson("[1, ]", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &value, &error));
  EXPECT_FALSE(ParseJson("nulL", &value, &error));
  EXPECT_FALSE(ParseJson("1 2", &value, &error));  // Trailing garbage.
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, FindChecksObjectAndReturnsFirstMatch) {
  JsonValue value;
  ASSERT_TRUE(ParseJson(R"({"k": 1, "k": 2})", &value));
  ASSERT_NE(value.Find("k"), nullptr);
  EXPECT_DOUBLE_EQ(value.Find("k")->AsNumber(), 1.0);
  EXPECT_EQ(value.Find("absent"), nullptr);
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Structural equality; numbers compare bitwise.
bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.AsBool() == b.AsBool();
    case JsonValue::Type::kNumber:
      return Bits(a.AsNumber()) == Bits(b.AsNumber());
    case JsonValue::Type::kString:
      return a.AsString() == b.AsString();
    case JsonValue::Type::kArray: {
      const auto& x = a.AsArray();
      const auto& y = b.AsArray();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!SameJson(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      const auto& x = a.AsObject();
      const auto& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first) return false;
        if (!SameJson(x[i].second, y[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

TEST(JsonWriterTest, EveryAsciiByteAndUtf8RoundTripThroughJsonString) {
  std::string ascii;
  for (int c = 0; c < 0x80; ++c) ascii.push_back(static_cast<char>(c));
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x93\x88";
  for (const std::string& text : {ascii, utf8}) {
    const std::string literal = JsonString(text);
    JsonValue value;
    std::string error;
    ASSERT_TRUE(ParseJson(literal, &value, &error))
        << error << ": " << literal;
    EXPECT_EQ(value.AsString(), text);
  }
  EXPECT_EQ(JsonString("a\"b\\c\n\x01"), "\"a\\\"b\\\\c\\u000a\\u0001\"");
}

TEST(JsonWriterTest, JsonNumberRoundTripsBitwise) {
  for (const double original :
       {0.1, 1.0 / 3.0, -0.0, 5e-324, DBL_MAX, -DBL_MAX, 0.0, 1e100}) {
    const std::string text = JsonNumber(original);
    JsonValue value;
    ASSERT_TRUE(ParseJson(text, &value)) << text;
    EXPECT_EQ(Bits(value.AsNumber()), Bits(original)) << text;
  }
}

TEST(JsonWriterTest, NonFiniteNumbersPrintNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(JsonWriterTest, AppendJsonValueRoundTripsParsedDocuments) {
  // The shape trace_merge re-serializes: nested args, escapes, and flow
  // ids written as hex strings.
  const char* document = R"({"traceEvents": [
    {"name": "exec.cell", "ph": "X", "ts": 12.5, "dur": 3.25, "pid": 1,
     "tid": 2, "args": {"index": 3, "note": "tab\there \"q\" back\\slash\n",
     "nested": {"list": [1, -0.5, 1e-300, true, false, null, [], {}],
                "empty": {}}}},
    {"name": "fabric.cell", "cat": "fabric", "ph": "s",
     "id": "0xff000000000003", "ts": 0.001, "pid": 1, "tid": 0},
    {"name": "caf\u00e9 \u0001\/", "ph": "f", "bp": "e",
     "id": "0x10000000001", "ts": 1e3, "pid": 2, "tid": 1}],
   "otherData": {"ppn_dropped_events": 0,
                 "ppn_epoch_unix_us": 1754650000123456}})";
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(document, &parsed, &error)) << error;
  std::string written;
  AppendJsonValue(&written, parsed);
  JsonValue reparsed;
  ASSERT_TRUE(ParseJson(written, &reparsed, &error))
      << error << ": " << written;
  EXPECT_TRUE(SameJson(parsed, reparsed)) << written;
  const JsonValue& flow = reparsed.Find("traceEvents")->AsArray()[1];
  EXPECT_EQ(flow.StringOr("id", ""), "0xff000000000003");
}

}  // namespace
}  // namespace ppn
