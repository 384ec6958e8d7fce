// Tests for the JSON writer behind the results files. The program only
// writes JSON (scripts/ reads it), so these tests pin the bytes Dump()
// writes: literal text for scalars, escapes and structure, exact decimal
// strings for 64-bit integers, and number tokens that std::from_chars --
// the way any reader turns a token into a double -- reads back to the same
// bits.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <system_error>

#include "runner/json.h"

namespace omcast {
namespace {

using runner::Json;

// Reads a dumped number token back as a double; the whole token must be
// consumed.
double ReadBack(const std::string& token) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  EXPECT_EQ(ec, std::errc()) << "token " << token;
  EXPECT_EQ(ptr, token.data() + token.size()) << "token " << token;
  return v;
}

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(std::uint64_t{42}).Dump(), "42");
  EXPECT_EQ(Json(-42).Dump(), "-42");
  EXPECT_EQ(Json(2500.0).Dump(), "2500");
}

TEST(Json, Uint64SeedsSurviveExactly) {
  // Cell seeds routinely exceed int64 range; double would truncate them.
  const std::uint64_t seed = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(Json(seed).Dump(), "18446744073709551615");
  const std::int64_t negative = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Json(negative).Dump(), "-9223372036854775808");
}

TEST(Json, DoublesRoundTripBitExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           6.02e23,
                           5e-324,  // min denormal
                           -1.7976931348623157e308,
                           3.0000000000000004};
  for (const double v : values) {
    const double back = ReadBack(Json(v).Dump());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << "value " << v << " did not round-trip";
  }
}

TEST(Json, NegativeZeroKeepsItsSign) {
  const std::string token = Json(-0.0).Dump();
  EXPECT_EQ(token, "-0");
  EXPECT_TRUE(std::signbit(ReadBack(token)))
      << "-0.0 became +0.0 across a round-trip";
}

TEST(Json, IntegerValuedDoublesReadBackAsNumbers) {
  // to_chars prints 5.0 as "5"; a reader still gets the number 5.0.
  EXPECT_EQ(Json(5.0).Dump(), "5");
  // Non-finite doubles have no JSON number; they dump as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).Dump(), "null");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Json(std::string("a\"b\\c\n\r\t\x01\x1f end")).Dump(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f end\"");
  // Bytes at or above 0x20, UTF-8 included, pass through unescaped.
  EXPECT_EQ(Json("caf\xc3\xa9 /").Dump(), "\"caf\xc3\xa9 /\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndOverwriteInPlace) {
  Json doc = Json::MakeObject();
  doc.Set("zulu", Json(1.0));
  doc.Set("alpha", Json(2.0));
  doc.Set("mike", Json(3.0));
  doc.Set("zulu", Json(9.0));  // overwrite must not move the key
  EXPECT_EQ(doc.Dump(), "{\"zulu\":9,\"alpha\":2,\"mike\":3}");
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
  EXPECT_EQ(doc.Dump(),
            "{\"empty_obj\":{},\"cells\":[{\"label\":\"ROST\",\"values\":[]},"
            "1.5]}");
  // The results files are written with indent 1.
  EXPECT_EQ(doc.Dump(/*indent=*/1),
            "{\n"
            " \"empty_obj\": {},\n"
            " \"cells\": [\n"
            "  {\n"
            "   \"label\": \"ROST\",\n"
            "   \"values\": []\n"
            "  },\n"
            "  1.5\n"
            " ]\n"
            "}");
}

}  // namespace
}  // namespace omcast
