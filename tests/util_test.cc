#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>

#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/string_util.h"

namespace gent {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kIOError, StatusCode::kTimeout, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Doubled(Result<int> in) {
  GENT_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(17);
  auto sample = rng.SampleIndices(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleIndicesKLargerThanN) {
  Rng rng(17);
  auto sample = rng.SampleIndices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, AlphaNumLengthAndCharset) {
  Rng rng(23);
  std::string s = rng.AlphaNum(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- String utilities -------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrips) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringUtilTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric("42"));
  EXPECT_TRUE(IsNumeric("-3.5"));
  EXPECT_TRUE(IsNumeric("1e3"));
  EXPECT_TRUE(IsNumeric(" 7 "));
  EXPECT_FALSE(IsNumeric("abc"));
  EXPECT_FALSE(IsNumeric("4x"));
  EXPECT_FALSE(IsNumeric(""));
  EXPECT_FALSE(IsNumeric("nan"));  // not finite-decimal
}

TEST(StringUtilTest, NormalizeNumericCollapsesSpellings) {
  EXPECT_EQ(NormalizeNumeric("3.10"), NormalizeNumeric("3.1"));
  EXPECT_EQ(NormalizeNumeric("007"), "7");
  EXPECT_EQ(NormalizeNumeric("+5"), "5");
  EXPECT_EQ(NormalizeNumeric("1e2"), "100");
  EXPECT_EQ(NormalizeNumeric("-0"), "0");
}

TEST(StringUtilTest, NormalizeNumericLeavesTextAlone) {
  EXPECT_EQ(NormalizeNumeric("Smith"), "Smith");
  EXPECT_EQ(NormalizeNumeric("12b"), "12b");
  EXPECT_EQ(NormalizeNumeric(" x "), " x ");
  EXPECT_EQ(NormalizeNumeric("inf"), "inf");
  EXPECT_EQ(NormalizeNumeric("-nan"), "-nan");
  EXPECT_EQ(NormalizeNumeric("1e999"), "1e999");  // not finite
}

// The canonical form as strtod + printf spell it ("%lld" for integral
// values below 1e15, "%.12g" otherwise): the reference CanonicalNumeric
// must reproduce byte for byte, since interned ids depend on it.
std::string PrintfCanonical(std::string_view s) {
  const std::string t(Trim(s));
  if (!IsNumeric(t)) return std::string(s);
  const double v = std::strtod(t.c_str(), nullptr);
  char out[48];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(out, sizeof(out), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(out, sizeof(out), "%.12g", v);
  }
  return out;
}

TEST(StringUtilTest, CanonicalNumericMatchesPrintfSpelling) {
  std::vector<std::string> inputs = {
      "0",      "-0",       "+0.0",     "007",          "3.10",
      "1e2",    " 42 ",     "0x1A",     "-0x1p-3",      ".5",
      "5.",     "1e15",     "-1e15",    "999999999999999",
      "1000000000000000",   "123456789012345678",        "4.9e-324",
      "1.7976931348623157e308",         "2.5e-7",       "-123.456",
      "0.1",    "1e-5",     "123456.7890123456",         "1e21"};
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  const char* formats[] = {"%.2f", "%g", "%.17g", "%e", "%.0f", "%.5f"};
  for (int i = 0; i < 20000; ++i) {
    const double v = mantissa(rng) * std::pow(10.0, exponent(rng));
    char buf[64];
    std::snprintf(buf, sizeof(buf), formats[i % 6], v);
    inputs.push_back(buf);
    inputs.push_back(std::to_string(static_cast<long long>(rng() >> 14)));
  }
  std::string scratch;
  for (const std::string& s : inputs) {
    ASSERT_EQ(std::string(CanonicalNumeric(s, &scratch)), PrintfCanonical(s))
        << s;
    ASSERT_EQ(NormalizeNumeric(s), PrintfCanonical(s)) << s;
  }
}

TEST(StringUtilTest, CanonicalNumericReturnsTextUncopied) {
  std::string scratch;
  const std::string text = "a non-numeric value past the small buffer";
  EXPECT_EQ(CanonicalNumeric(text, &scratch).data(), text.data());
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(CanonicalNumeric("3.10", &scratch), "3.1");
}

}  // namespace
}  // namespace gent
