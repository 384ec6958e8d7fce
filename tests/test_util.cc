#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/flags.h"
#include "util/table.h"

namespace omcast::util {
namespace {

TEST(FlagSet, ParsesEqualsAndSpaceForms) {
  FlagSet f;
  f.Define("alpha", "1", "").Define("beta", "x", "");
  const char* argv[] = {"prog", "--alpha=7", "--beta", "hello"};
  ASSERT_TRUE(f.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetInt("alpha"), 7);
  EXPECT_EQ(f.GetString("beta"), "hello");
}

TEST(FlagSet, DefaultsApplyWhenUnset) {
  FlagSet f;
  f.Define("x", "3.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(f.GetDouble("x"), 3.5);
}

TEST(FlagSet, RejectsUnknownFlag) {
  FlagSet f;
  f.Define("x", "1", "");
  const char* argv[] = {"prog", "--nope=2"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, RejectsMissingValue) {
  FlagSet f;
  f.Define("x", "1", "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, HelpReturnsFalse) {
  FlagSet f;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, BoolForms) {
  FlagSet f;
  f.Define("a", "true", "").Define("b", "0", "").Define("c", "yes", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_FALSE(f.GetBool("b"));
  EXPECT_TRUE(f.GetBool("c"));
}

TEST(FlagSet, IntList) {
  FlagSet f;
  f.Define("sizes", "2000,5000,8000", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetIntList("sizes"), (std::vector<int>{2000, 5000, 8000}));
}

TEST(FlagSet, IntListSingleAndEmptyTokens) {
  FlagSet f;
  f.Define("sizes", "42", "");
  const char* argv[] = {"prog", "--sizes=7,,9"};
  ASSERT_TRUE(f.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetIntList("sizes"), (std::vector<int>{7, 9}));
}

// A FlagSet whose one flag, --v, was given `value` on the command line.
FlagSet Given(const std::string& value) {
  FlagSet f;
  f.Define("v", "0", "");
  const std::string arg = "--v=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  EXPECT_TRUE(f.Parse(2, const_cast<char**>(argv)));
  return f;
}

TEST(FlagSet, NumbersUseTheirTypesFullRange) {
  EXPECT_EQ(Given("4294967297").GetU64("v"), 4294967297u);
  EXPECT_EQ(Given("18446744073709551615").GetU64("v"),
            18446744073709551615u);
  EXPECT_EQ(Given("-2147483648").GetInt("v"), -2147483648LL);
  EXPECT_DOUBLE_EQ(Given("-1").GetDouble("v"), -1.0);
  EXPECT_DOUBLE_EQ(Given("2.5e3").GetDouble("v"), 2500.0);
}

TEST(FlagSet, BoolOffForms) {
  for (const char* off : {"0", "false", "no", "off"})
    EXPECT_FALSE(Given(off).GetBool("v")) << off;
  for (const char* on : {"1", "true", "yes", "on"})
    EXPECT_TRUE(Given(on).GetBool("v")) << on;
}

TEST(FlagSetDeathTest, MalformedValuesAbortNamingTheFlag) {
  EXPECT_DEATH(Given("four").GetInt("v"), "flag --v: 'four' is not an int");
  EXPECT_DEATH(Given("").GetInt("v"), "flag --v: '' is not an int");
  EXPECT_DEATH(Given(" 5").GetInt("v"), "flag --v");
  EXPECT_DEATH(Given("2000x").GetIntList("v"), "flag --v: '2000x'");
  EXPECT_DEATH(Given("7,,x9").GetIntList("v"), "flag --v: 'x9'");
  EXPECT_DEATH(Given("1.5s").GetDouble("v"), "flag --v: '1.5s'");
  EXPECT_DEATH(Given("nan").GetDouble("v"), "flag --v: 'nan'");
  EXPECT_DEATH(Given("0x10").GetU64("v"), "flag --v: '0x10'");
  EXPECT_DEATH(Given("ture").GetBool("v"), "flag --v: 'ture' is not a bool");
}

TEST(FlagSetDeathTest, OutOfRangeValuesAbortInsteadOfWrapping) {
  EXPECT_DEATH(Given("4294967297").GetInt("v"), "flag --v: '4294967297'");
  EXPECT_DEATH(Given("18446744073709551616").GetU64("v"),
               "flag --v: '18446744073709551616'");
  EXPECT_DEATH(Given("-1").GetU64("v"), "flag --v: '-1'");
  EXPECT_DEATH(Given("1e999").GetDouble("v"), "flag --v: '1e999'");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "2"});
  std::ostringstream os;
  t.Print(os, "title");
  const std::string out = os.str();
  EXPECT_NE(out.find("title\n"), std::string::npos);
  EXPECT_NE(out.find("longer  2"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FormatsDoubleRows) {
  Table t({"k", "x", "y"});
  t.AddRow("row", {1.23456, 2.0}, 2);
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_NE(os.str().find("2.00"), std::string::npos);
}

TEST(Table, FormatDoubleHelper) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TableDeath, WrongArityAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

}  // namespace
}  // namespace omcast::util
