#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"

namespace sjos {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, GovernanceCodesRoundTrip) {
  Status d = Status::DeadlineExceeded("query ran past 50 ms");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: query ran past 50 ms");

  Status r = Status::ResourceExhausted("live bytes over budget");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.ToString(), "ResourceExhausted: live bytes over budget");

  Status c = Status::Cancelled("caller gave up");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: caller gave up");

  // The transport-loss class the shell re-dials on.
  Status u = Status::Unavailable("connection closed mid-payload");
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.code(), StatusCode::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: connection closed mid-payload");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ZipfZeroThetaIsUniformish) {
  Rng rng(13);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.NextZipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(RngTest, ZipfSkewFavorsLowRanks) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.NextZipf(8, 1.2)];
  EXPECT_GT(counts[0], counts[7] * 3);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(StrUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace sjos
