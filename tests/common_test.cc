// Tests for disttrack/common: Rng, math utilities, running statistics,
// and the sorted-run helpers of small_sort.h.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/math_util.h"
#include "disttrack/common/random.h"
#include "disttrack/common/small_sort.h"
#include "disttrack/common/stats.h"
#include "disttrack/common/status.h"

namespace disttrack {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.UniformU64(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  const int kDraws = 200000;
  int heads = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateEnds) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
}

TEST(RngTest, GeometricLevelDistribution) {
  Rng rng(29);
  const int kDraws = 200000;
  std::vector<int> level_count(20, 0);
  for (int i = 0; i < kDraws; ++i) {
    int level = rng.GeometricLevel();
    if (level < 20) ++level_count[level];
  }
  // P(level == j) = 2^-(j+1).
  EXPECT_NEAR(level_count[0], kDraws / 2.0, kDraws * 0.01);
  EXPECT_NEAR(level_count[1], kDraws / 4.0, kDraws * 0.01);
  EXPECT_NEAR(level_count[2], kDraws / 8.0, kDraws * 0.01);
}

TEST(RngTest, GeometricFailuresMean) {
  Rng rng(31);
  const double p = 0.05;
  const int kDraws = 100000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.GeometricFailures(p));
  }
  // Mean failures = (1-p)/p = 19.
  EXPECT_NEAR(sum / kDraws, (1 - p) / p, 0.5);
}

TEST(RngTest, GeometricFailuresWithPOne) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.GeometricFailures(1.0), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsASubset) {
  Rng rng(41);
  std::vector<uint32_t> out;
  rng.SampleWithoutReplacement(100, 30, &out);
  ASSERT_EQ(out.size(), 30u);
  std::vector<bool> seen(100, false);
  for (uint32_t v : out) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]) << "duplicate " << v;
    seen[v] = true;
  }
}

TEST(RngTest, SampleWithoutReplacementUniformMarginals) {
  Rng rng(43);
  std::vector<int> hits(20, 0);
  const int kDraws = 20000;
  std::vector<uint32_t> out;
  for (int i = 0; i < kDraws; ++i) {
    rng.SampleWithoutReplacement(20, 5, &out);
    for (uint32_t v : out) ++hits[v];
  }
  for (int h : hits) {
    EXPECT_NEAR(h, kDraws * 5 / 20, kDraws * 0.05);
  }
}

TEST(MathUtilTest, FloorPow2) {
  EXPECT_EQ(FloorPow2(1.0), 1u);
  EXPECT_EQ(FloorPow2(1.5), 1u);
  EXPECT_EQ(FloorPow2(2.0), 2u);
  EXPECT_EQ(FloorPow2(3.99), 2u);
  EXPECT_EQ(FloorPow2(4.0), 4u);
  EXPECT_EQ(FloorPow2(1023.0), 512u);
  EXPECT_EQ(FloorPow2(1024.0), 1024u);
}

TEST(MathUtilTest, CeilPow2) {
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(1025), 2048u);
}

TEST(MathUtilTest, IsPow2) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(63));
}

TEST(MathUtilTest, CeilAndFloorLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(8), 3);
  EXPECT_EQ(CeilLog2(9), 4);
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(8), 3);
  EXPECT_EQ(FloorLog2(9), 3);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(MathUtilTest, SafeDiv) {
  EXPECT_DOUBLE_EQ(SafeDiv(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(SafeDiv(10, 0, -1.0), -1.0);
}

// SortRun against std::sort at every network length 0..16 and past the
// std::sort cutover, on distinct and duplicate-heavy keys, sorting inside
// an offset window so neighbouring slots must stay untouched.
TEST(SmallSortTest, SortRunMatchesStdSortAtEveryLength) {
  Rng rng(0x5eed0002);
  for (int trial = 0; trial < 200; ++trial) {
    for (size_t n = 0; n <= 40; ++n) {
      size_t off = rng.UniformU64(4);
      uint64_t lim = trial % 3 == 0 ? 4 : ~0ull;
      std::vector<uint64_t> buf(off + n + 1);
      for (auto& x : buf) x = rng.UniformU64(lim);
      std::vector<uint64_t> want = buf;
      std::sort(want.begin() + static_cast<long>(off),
                want.begin() + static_cast<long>(off + n));
      SortRun(buf.data() + off, n);
      ASSERT_EQ(buf, want) << "n=" << n;
    }
  }
}

// MergeSorted against std::merge with every tail length 0..15 on each
// side plus longer runs, at arbitrary input and output offsets.
TEST(SmallSortTest, MergeSortedMatchesStdMergeAtAllTails) {
  Rng rng(0x5eed0004);
  for (int trial = 0; trial < 300; ++trial) {
    size_t na = trial % 2 == 0 ? rng.UniformU64(16) : 16 + rng.UniformU64(120);
    size_t nb = trial % 3 == 0 ? rng.UniformU64(16) : 16 + rng.UniformU64(120);
    size_t offa = rng.UniformU64(4);
    size_t offb = rng.UniformU64(4);
    uint64_t lim = trial % 4 == 0 ? 8 : ~0ull;  // duplicate-heavy mix
    std::vector<uint64_t> a(offa + na);
    std::vector<uint64_t> b(offb + nb);
    for (size_t i = 0; i < na; ++i) a[offa + i] = rng.UniformU64(lim);
    for (size_t i = 0; i < nb; ++i) b[offb + i] = rng.UniformU64(lim);
    std::sort(a.begin() + static_cast<long>(offa), a.end());
    std::sort(b.begin() + static_cast<long>(offb), b.end());
    std::vector<uint64_t> want(na + nb);
    std::merge(a.begin() + static_cast<long>(offa), a.end(),
               b.begin() + static_cast<long>(offb), b.end(), want.begin());
    std::vector<uint64_t> got(na + nb + 7, 0xDEADull);
    size_t offo = rng.UniformU64(4);
    MergeSorted(a.data() + offa, na, b.data() + offb, nb, got.data() + offo);
    for (size_t i = 0; i < na + nb; ++i) {
      ASSERT_EQ(got[offo + i], want[i]) << "na=" << na << " nb=" << nb;
    }
  }
}

TEST(StatsTest, RunningStatsMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(StatsTest, RunningStatsEmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, SampleQuantile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 1.0), 10.0);
  EXPECT_NEAR(SampleQuantile(v, 0.5), 6.0, 1.0);
}

TEST(StatsTest, CoverageWithin) {
  std::vector<double> errors{-0.5, 0.2, 1.5, -2.0, 0.0};
  EXPECT_DOUBLE_EQ(CoverageWithin(errors, 1.0), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(CoverageWithin(errors, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(CoverageWithin({}, 1.0), 1.0);
}

TEST(StatsTest, LogLogSlopeRecoversExponent) {
  std::vector<double> x{2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * std::pow(v, 1.7));
  EXPECT_NEAR(LogLogSlope(x, y), 1.7, 1e-9);
}

TEST(StatsTest, LogLogSlopeDegenerate) {
  EXPECT_DOUBLE_EQ(LogLogSlope({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(LogLogSlope({1, 2}, {0, 2}), 0.0);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status bad = Status::InvalidArgument("epsilon");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "InvalidArgument: epsilon");
  Status pre = Status::FailedPrecondition("not built");
  EXPECT_EQ(pre.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(pre.ToString().find("not built"), std::string::npos);
}

}  // namespace
}  // namespace disttrack
