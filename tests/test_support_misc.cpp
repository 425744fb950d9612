// Tests for error handling, timing and string helpers.
#include <gtest/gtest.h>

#include <cstdlib>

#include "support/error.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

namespace ncg {
namespace {

TEST(Require, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(NCG_REQUIRE(1 + 1 == 2, "math"));
}

TEST(Require, FailureThrowsWithContext) {
  try {
    NCG_REQUIRE(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value was 42"), std::string::npos);
    EXPECT_NE(what.find("test_support_misc"), std::string::npos);
  }
}

TEST(Timer, MeasuresForwardTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), 0.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(2.0, 0), "2");
  EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(StringUtil, FormatWithCi) {
  EXPECT_EQ(formatWithCi(10.654, 0.761, 2), "10.65 ± 0.76");
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
  EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(StringUtil, EnvIntFallbacks) {
  ::unsetenv("NCG_TEST_ENV_INT");
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::setenv("NCG_TEST_ENV_INT", "12", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 12);
  ::setenv("NCG_TEST_ENV_INT", "garbage", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::setenv("NCG_TEST_ENV_INT", "-3", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::unsetenv("NCG_TEST_ENV_INT");
}

TEST(StringUtil, EnvIntRejectsTrailingGarbageAndOverflow) {
  // "8x" parsed to 8 through strtol before; a typo'd NCG_PROCS=8x must
  // fall back, not silently run 8 processes.
  ::setenv("NCG_TEST_ENV_INT", "8x", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::setenv("NCG_TEST_ENV_INT", " 8", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::setenv("NCG_TEST_ENV_INT", "8 ", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  // > INT_MAX used to truncate through the long->int cast.
  ::setenv("NCG_TEST_ENV_INT", "4294967297", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 7);
  ::setenv("NCG_TEST_ENV_INT", "2147483647", 1);
  EXPECT_EQ(envInt("NCG_TEST_ENV_INT", 7), 2147483647);
  ::unsetenv("NCG_TEST_ENV_INT");
}

TEST(StringUtil, ParseIntegerStrictness) {
  EXPECT_EQ(parseInteger("0"), 0);
  EXPECT_EQ(parseInteger("42"), 42);
  EXPECT_EQ(parseInteger("-42"), -42);
  EXPECT_EQ(parseInteger("+42"), 42);
  EXPECT_EQ(parseInteger("2147483647"), 2147483647);
  EXPECT_EQ(parseInteger("-2147483648"), -2147483647 - 1);
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("-").has_value());
  EXPECT_FALSE(parseInteger("+").has_value());
  EXPECT_FALSE(parseInteger("8x").has_value());
  EXPECT_FALSE(parseInteger("x8").has_value());
  EXPECT_FALSE(parseInteger(" 8").has_value());
  EXPECT_FALSE(parseInteger("8 ").has_value());
  EXPECT_FALSE(parseInteger("3.5").has_value());
  EXPECT_FALSE(parseInteger("0x10").has_value());
  EXPECT_FALSE(parseInteger("2147483648").has_value());
  EXPECT_FALSE(parseInteger("-2147483649").has_value());
  EXPECT_FALSE(parseInteger("99999999999999999999").has_value());
}

TEST(StringUtil, ParseInteger64Strictness) {
  EXPECT_EQ(parseInteger64("0"), 0);
  EXPECT_EQ(parseInteger64("-42"), -42);
  EXPECT_EQ(parseInteger64("+42"), 42);
  // Beyond int, within 64 bits — the byte-budget range.
  EXPECT_EQ(parseInteger64("4294967297"), 4294967297LL);
  EXPECT_EQ(parseInteger64("9223372036854775807"), 9223372036854775807LL);
  EXPECT_EQ(parseInteger64("-9223372036854775808"),
            -9223372036854775807LL - 1);
  EXPECT_FALSE(parseInteger64("").has_value());
  EXPECT_FALSE(parseInteger64("-").has_value());
  EXPECT_FALSE(parseInteger64("8x").has_value());
  EXPECT_FALSE(parseInteger64(" 8").has_value());
  EXPECT_FALSE(parseInteger64("0x10").has_value());
  EXPECT_FALSE(parseInteger64("9223372036854775808").has_value());
  EXPECT_FALSE(parseInteger64("-9223372036854775809").has_value());
  EXPECT_FALSE(parseInteger64("99999999999999999999").has_value());
}

TEST(StringUtil, EnvInt64Fallbacks) {
  ::unsetenv("NCG_TEST_ENV_INT64");
  EXPECT_EQ(envInt64("NCG_TEST_ENV_INT64", 7), 7);
  ::setenv("NCG_TEST_ENV_INT64", "8589934592", 1);  // 8 GiB
  EXPECT_EQ(envInt64("NCG_TEST_ENV_INT64", 7), 8589934592LL);
  ::setenv("NCG_TEST_ENV_INT64", "8x", 1);
  EXPECT_EQ(envInt64("NCG_TEST_ENV_INT64", 7), 7);
  ::setenv("NCG_TEST_ENV_INT64", "-3", 1);
  EXPECT_EQ(envInt64("NCG_TEST_ENV_INT64", 7), 7);
  ::setenv("NCG_TEST_ENV_INT64", "0", 1);
  EXPECT_EQ(envInt64("NCG_TEST_ENV_INT64", 7), 7);  // 0 = use fallback
  ::unsetenv("NCG_TEST_ENV_INT64");
}

}  // namespace
}  // namespace ncg
