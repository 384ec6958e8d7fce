// Tests for the minimal JSON reader/writer behind the results files. The
// property that matters most is lossless round-tripping: a results file
// records the run exactly only if 64-bit seeds and shortest-round-trip
// doubles survive Dump() -> Parse() exactly, which is what Parse() lets
// these tests check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "runner/json.h"

namespace omcast {
namespace {

using runner::Json;

Json ParseOk(const std::string& text) {
  std::string error;
  Json doc = Json::Parse(text, &error);
  EXPECT_TRUE(error.empty()) << "parse of " << text << " failed: " << error;
  return doc;
}

void ExpectParseFails(const std::string& text) {
  std::string error;
  (void)Json::Parse(text, &error);
  EXPECT_FALSE(error.empty()) << "parse of " << text << " should have failed";
}

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(ParseOk("null").type(), Json::Type::kNull);
  EXPECT_TRUE(ParseOk("true").AsBool());
  EXPECT_FALSE(ParseOk("false").AsBool());
  EXPECT_EQ(ParseOk("\"hi\"").AsString(), "hi");
  EXPECT_EQ(ParseOk("42").AsUint(), 42u);
  EXPECT_EQ(ParseOk("-42").AsInt(), -42);
  EXPECT_DOUBLE_EQ(ParseOk("2.5e3").AsDouble(), 2500.0);
}

TEST(Json, Uint64SeedsSurviveExactly) {
  // Cell seeds routinely exceed int64 range; double would truncate them.
  const std::uint64_t seed = 18446744073709551615ull;  // 2^64 - 1
  Json doc = Json::MakeObject();
  doc.Set("seed", Json(seed));
  const Json back = ParseOk(doc.Dump());
  EXPECT_EQ(back.Find("seed")->AsUint(), seed);

  const std::int64_t negative = std::numeric_limits<std::int64_t>::min();
  doc.Set("neg", Json(negative));
  EXPECT_EQ(ParseOk(doc.Dump()).Find("neg")->AsInt(), negative);
}

TEST(Json, DoublesRoundTripBitExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           6.02e23,
                           5e-324,  // min denormal
                           -1.7976931348623157e308,
                           3.0000000000000004};
  for (const double v : values) {
    Json arr = Json::MakeArray();
    arr.Append(Json(v));
    const double back = ParseOk(arr.Dump()).AsArray()[0].AsDouble();
    EXPECT_EQ(back, v) << "value " << v << " did not round-trip";
  }
}

TEST(Json, NegativeZeroKeepsItsSign) {
  Json arr = Json::MakeArray();
  arr.Append(Json(-0.0));
  const double back = ParseOk(arr.Dump()).AsArray()[0].AsDouble();
  EXPECT_TRUE(std::signbit(back)) << "-0.0 became +0.0 across a round-trip";
}

TEST(Json, IntegerValuedDoublesReadBackAsNumbers) {
  // to_chars prints 5.0 as "5"; a reader must still be able to AsDouble it.
  Json arr = Json::MakeArray();
  arr.Append(Json(5.0));
  const Json back = ParseOk(arr.Dump());
  EXPECT_DOUBLE_EQ(back.AsArray()[0].AsDouble(), 5.0);
}

TEST(Json, StringEscapes) {
  Json doc = Json::MakeObject();
  doc.Set("s", Json(std::string("a\"b\\c\n\t\x01 end")));
  const std::string text = doc.Dump();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_EQ(ParseOk(text).Find("s")->AsString(), "a\"b\\c\n\t\x01 end");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(ParseOk("\"\\u0041\"").AsString(), "A");
  EXPECT_EQ(ParseOk("\"\\u00e9\"").AsString(), "\xc3\xa9");      // e-acute
  EXPECT_EQ(ParseOk("\"\\u20ac\"").AsString(), "\xe2\x82\xac");  // euro sign
}

TEST(Json, ObjectsKeepInsertionOrderAndOverwriteInPlace) {
  Json doc = Json::MakeObject();
  doc.Set("zulu", Json(1.0));
  doc.Set("alpha", Json(2.0));
  doc.Set("mike", Json(3.0));
  doc.Set("zulu", Json(9.0));  // overwrite must not move the key
  EXPECT_EQ(doc.Dump(), "{\"zulu\":9,\"alpha\":2,\"mike\":3}");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.Find("zulu")->AsDouble(), 9.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(Json, NestedStructuresRoundTrip) {
  Json inner = Json::MakeObject();
  inner.Set("label", Json(std::string("ROST")));
  inner.Set("values", Json::MakeArray());
  Json arr = Json::MakeArray();
  arr.Append(inner);
  arr.Append(Json(1.5));
  Json doc = Json::MakeObject();
  doc.Set("empty_obj", Json::MakeObject());
  doc.Set("cells", arr);
  const std::string compact = doc.Dump();
  const std::string pretty = doc.Dump(/*indent=*/1);
  EXPECT_EQ(ParseOk(compact).Dump(), compact);
  EXPECT_EQ(ParseOk(pretty).Dump(), compact) << "indent changed the value";
}

TEST(Json, ParseErrorsAreReportedNotFatal) {
  ExpectParseFails("");
  ExpectParseFails("{");
  ExpectParseFails("[1,]");
  ExpectParseFails("{\"a\":1,}");
  ExpectParseFails("\"unterminated");
  ExpectParseFails("\"bad\\q escape\"");
  ExpectParseFails("tru");
  ExpectParseFails("-");
  ExpectParseFails("1 2");   // trailing garbage
  ExpectParseFails("{\"a\" 1}");
}

TEST(Json, WhitespaceIsTolerated) {
  const Json doc = ParseOk(" \n\t{ \"a\" : [ 1 , 2 ] , \"b\" : { } } \r\n");
  EXPECT_EQ(doc.Find("a")->AsArray().size(), 2u);
  EXPECT_EQ(doc.Find("b")->size(), 0u);
}

}  // namespace
}  // namespace omcast
