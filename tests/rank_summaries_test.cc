// Tests for the rank-summary substrate: GK [12], the compactor ("algorithm
// A" of §4), Bernoulli samples, and the reservoir — in particular the three
// properties §4 needs from A: unbiasedness, variance (εm)², small space.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/common/small_sort.h"
#include "disttrack/summaries/bernoulli_summary.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/gk_summary.h"
#include "disttrack/summaries/reservoir.h"
#include "test_util.h"

namespace disttrack {
namespace summaries {
namespace {

uint64_t ExactRankOf(const std::vector<uint64_t>& data, uint64_t x) {
  uint64_t below = 0;
  for (uint64_t v : data) {
    if (v < x) ++below;
  }
  return below;
}

std::vector<uint64_t> RandomData(size_t n, uint64_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.UniformU64(universe);
  return data;
}

TEST(GKSummaryTest, ExactOnTinyStream) {
  GKSummary gk(0.1);
  for (uint64_t v : {5ull, 1ull, 9ull, 3ull}) gk.Insert(v);
  EXPECT_EQ(gk.n(), 4u);
  EXPECT_LE(gk.EstimateRank(0), 0u);
  EXPECT_EQ(gk.EstimateRank(100), 4u);
}

TEST(GKSummaryTest, RankWithinEpsilonUniform) {
  const double eps = 0.01;
  GKSummary gk(eps);
  auto data = RandomData(50000, 1 << 20, 3);
  for (uint64_t v : data) gk.Insert(v);
  for (uint64_t q = 0; q <= 10; ++q) {
    uint64_t x = q * ((1 << 20) / 10);
    double err = std::fabs(static_cast<double>(gk.EstimateRank(x)) -
                           static_cast<double>(ExactRankOf(data, x)));
    EXPECT_LE(err, eps * static_cast<double>(data.size()) + 1)
        << "query " << x;
  }
}

TEST(GKSummaryTest, RankWithinEpsilonSorted) {
  const double eps = 0.02;
  GKSummary gk(eps);
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 30000; ++i) data.push_back(i);
  for (uint64_t v : data) gk.Insert(v);
  for (uint64_t x : {1000ull, 15000ull, 29999ull}) {
    double err = std::fabs(static_cast<double>(gk.EstimateRank(x)) -
                           static_cast<double>(x));
    EXPECT_LE(err, eps * 30000 + 1);
  }
}

TEST(GKSummaryTest, RankWithinEpsilonReverseSorted) {
  const double eps = 0.02;
  GKSummary gk(eps);
  const uint64_t kN = 30000;
  for (uint64_t i = 0; i < kN; ++i) gk.Insert(kN - 1 - i);
  double err = std::fabs(static_cast<double>(gk.EstimateRank(kN / 2)) -
                         static_cast<double>(kN / 2));
  EXPECT_LE(err, eps * kN + 1);
}

TEST(GKSummaryTest, SpaceIsSublinear) {
  GKSummary gk(0.01);
  auto data = RandomData(100000, 1 << 24, 7);
  for (uint64_t v : data) gk.Insert(v);
  // O(1/eps * log(eps n)) tuples: generous cap at 40/eps.
  EXPECT_LE(gk.NumTuples(), static_cast<size_t>(40.0 / 0.01));
  EXPECT_LT(gk.NumTuples(), data.size() / 10);
}

TEST(GKSummaryTest, QuantileWithinEpsilon) {
  const double eps = 0.02;
  GKSummary gk(eps);
  auto data = RandomData(40000, 1 << 20, 11);
  for (uint64_t v : data) gk.Insert(v);
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    uint64_t answer = gk.Quantile(phi);
    double rank = static_cast<double>(ExactRankOf(data, answer));
    EXPECT_NEAR(rank, phi * 40000, 2 * eps * 40000 + 1) << "phi " << phi;
  }
}

TEST(GKSummaryTest, DuplicateHeavyValue) {
  GKSummary gk(0.05);
  for (int i = 0; i < 10000; ++i) gk.Insert(500);
  for (int i = 0; i < 100; ++i) gk.Insert(1000);
  EXPECT_NEAR(static_cast<double>(gk.EstimateRank(501)), 10000.0, 505.0);
  EXPECT_LE(gk.EstimateRank(500), static_cast<uint64_t>(0.05 * 10100 + 1));
}

TEST(GKSummaryTest, ClearResets) {
  GKSummary gk(0.1);
  gk.Insert(1);
  gk.Clear();
  EXPECT_EQ(gk.n(), 0u);
  EXPECT_EQ(gk.NumTuples(), 0u);
}

// TwoViewSelect, the compactor's read of two merged sorted views by
// position, against indexing into the materialized std::merge — empty
// sides, duplicate-heavy values, every position.
TEST(CompactorTest, TwoViewSelectMatchesMergedIndex) {
  Rng rng(0x5eed0005);
  for (int trial = 0; trial < 300; ++trial) {
    size_t a = rng.UniformU64(40);
    size_t b = trial % 5 == 0 ? 0 : rng.UniformU64(40);
    uint64_t lim = trial % 3 == 0 ? 6 : ~0ull;
    std::vector<uint64_t> A(a);
    std::vector<uint64_t> B(b);
    for (auto& x : A) x = rng.UniformU64(lim);
    for (auto& x : B) x = rng.UniformU64(lim);
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    std::vector<uint64_t> merged(a + b);
    std::merge(A.begin(), A.end(), B.begin(), B.end(), merged.begin());
    for (size_t i = 0; i < a + b; ++i) {
      ASSERT_EQ(TwoViewSelect(A.data(), a, B.data(), b, i), merged[i])
          << "a=" << a << " b=" << b << " i=" << i;
    }
  }
}

TEST(CompactorTest, ExactWhileInBuffer) {
  CompactorSummary c(0.5, 3);
  for (uint64_t v : {4ull, 2ull, 9ull}) c.Insert(v);
  EXPECT_DOUBLE_EQ(c.EstimateRank(5), 2.0);
  EXPECT_DOUBLE_EQ(c.EstimateRank(1), 0.0);
  EXPECT_EQ(c.WeightTotal(), 3u);
}

TEST(CompactorTest, WeightIsConserved) {
  CompactorSummary c(0.05, 5);
  for (uint64_t i = 0; i < 12345; ++i) c.Insert(i * 7919 % 100000);
  EXPECT_EQ(c.WeightTotal(), 12345u);
}

TEST(CompactorTest, RankIsMonotoneInQuery) {
  CompactorSummary c(0.02, 7);
  auto data = RandomData(20000, 1 << 16, 13);
  for (uint64_t v : data) c.Insert(v);
  double prev = -1;
  for (uint64_t x = 0; x <= (1 << 16); x += 1 << 11) {
    double r = c.EstimateRank(x);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(CompactorTest, UnbiasedOverTrials) {
  // Property 1 of algorithm A: E[EstimateRank(x)] = rank(x).
  const size_t kN = 4096;
  auto data = RandomData(kN, 1 << 16, 17);
  uint64_t x = 1 << 15;
  double truth = static_cast<double>(ExactRankOf(data, x));
  const double eps = 0.1;
  auto errors = testing_util::CollectErrors(2000, [&](uint64_t seed) {
    CompactorSummary c(eps, seed);
    for (uint64_t v : data) c.Insert(v);
    return c.EstimateRank(x) - truth;
  });
  // |mean| should be ~ std/sqrt(trials) <= eps*n/sqrt(2000) ~ 9.
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 30.0);
}

TEST(CompactorTest, VarianceWithinEpsSquared) {
  // Property 2 of algorithm A: Var <= (eps * m)².
  const size_t kN = 8192;
  auto data = RandomData(kN, 1 << 16, 19);
  uint64_t x = 1 << 15;
  for (double eps : {0.05, 0.1, 0.2}) {
    auto errors = testing_util::CollectErrors(600, [&](uint64_t seed) {
      CompactorSummary c(eps, seed ^ 0xABCD);
      for (uint64_t v : data) c.Insert(v);
      return c.EstimateRank(x) -
             static_cast<double>(ExactRankOf(data, x));
    });
    double bound = eps * static_cast<double>(kN);
    EXPECT_LE(testing_util::VarianceOf(errors), bound * bound)
        << "eps " << eps;
  }
}

TEST(CompactorTest, SpaceIsLogarithmic) {
  const double eps = 0.01;
  CompactorSummary c(eps, 23);
  for (uint64_t i = 0; i < 200000; ++i) c.Insert(i * 2654435761u % 1000000);
  // s * (#levels): s = 2/eps = 200, levels ~ log2(eps m) = 11.
  EXPECT_LE(c.SpaceWords(), static_cast<uint64_t>(6.0 / eps *
                                                  std::log2(eps * 200000)));
  EXPECT_LT(c.SpaceWords(), 200000u / 10);
}

TEST(CompactorTest, MergePreservesWeightAndAccuracy) {
  const double eps = 0.05;
  auto data1 = RandomData(10000, 1 << 16, 29);
  auto data2 = RandomData(15000, 1 << 16, 31);
  CompactorSummary a(eps, 101), b(eps, 103);
  for (uint64_t v : data1) a.Insert(v);
  for (uint64_t v : data2) b.Insert(v);
  a.MergeFrom(b);
  EXPECT_EQ(a.WeightTotal(), 25000u);
  std::vector<uint64_t> all = data1;
  all.insert(all.end(), data2.begin(), data2.end());
  uint64_t x = 1 << 15;
  double err = std::fabs(a.EstimateRank(x) -
                         static_cast<double>(ExactRankOf(all, x)));
  // Generous: 4 eps m (merge at most doubles the variance budget).
  EXPECT_LE(err, 4 * eps * 25000);
}

TEST(CompactorTest, QuantileRoundTrip) {
  CompactorSummary c(0.02, 37);
  auto data = RandomData(30000, 1 << 20, 41);
  for (uint64_t v : data) c.Insert(v);
  uint64_t med = c.Quantile(0.5);
  double rank = static_cast<double>(ExactRankOf(data, med));
  EXPECT_NEAR(rank, 15000.0, 0.1 * 30000);
}

TEST(CompactorTest, EpsGreaterThanOneIsTiny) {
  CompactorSummary c(1.0, 43);
  for (uint64_t i = 0; i < 1000; ++i) c.Insert(i);
  EXPECT_EQ(c.WeightTotal(), 1000u);
  EXPECT_LE(c.buffer_capacity(), 4u);
  // Even with the coarsest parameter the estimate is within eps*m = m.
  EXPECT_LE(std::fabs(c.EstimateRank(500) - 500.0), 1000.0);
}

TEST(CompactorTest, SerializedWordsCountsItems) {
  CompactorSummary c(0.5, 47);
  for (uint64_t i = 0; i < 100; ++i) c.Insert(i);
  uint64_t items = 0;
  for (const auto& [v, w] : c.Items()) {
    (void)v;
    (void)w;
    ++items;
  }
  EXPECT_EQ(c.SerializedWords(),
            items + static_cast<uint64_t>(c.NumLevels()) + 1);
}

TEST(CompactorTest, ClearResets) {
  CompactorSummary c(0.1, 51);
  c.Insert(5);
  c.Clear();
  EXPECT_EQ(c.m(), 0u);
  EXPECT_EQ(c.WeightTotal(), 0u);
  EXPECT_DOUBLE_EQ(c.EstimateRank(100), 0.0);
}

TEST(CompactorTest, QuantileOnWeightZeroLevelsReturnsZero) {
  // A summary can hold only weight-0 (empty) levels: freshly constructed,
  // Reset() (which retains emptied levels for reuse), or merged from such
  // summaries (MergeFrom resizes the level vector even when every source
  // buffer is empty). Quantile must answer 0 without searching any level.
  CompactorSummary empty(0.1, 61);
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  CompactorSummary c(0.1, 63);
  for (uint64_t i = 0; i < 1000; ++i) c.Insert(i);  // grows several levels
  ASSERT_GT(c.NumLevels(), 1);
  c.Reset(99);
  EXPECT_EQ(c.m(), 0u);
  EXPECT_EQ(c.WeightTotal(), 0u);
  EXPECT_EQ(c.Quantile(0.0), 0u);
  EXPECT_EQ(c.Quantile(0.5), 0u);
  EXPECT_EQ(c.Quantile(1.0), 0u);

  // The post-merge edge: merging the reset (multi-empty-level) summary
  // leaves the destination holding only weight-0 levels too.
  CompactorSummary merged(0.1, 65);
  merged.MergeFrom(c);
  merged.MergeFrom(empty);
  EXPECT_EQ(merged.Quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(merged.EstimateRank(123), 0.0);
  EXPECT_EQ(merged.WeightTotal(), 0u);

  // And the summary recovers once data arrives.
  merged.Insert(42);
  EXPECT_EQ(merged.Quantile(0.5), 42u);
}

TEST(CompactorTest, ResetRetainsGuaranteesOnReuse) {
  // Node pooling reuses summaries via Reset(); a reused summary must give
  // the same unbiased estimates as a fresh one.
  const double eps = 0.05;
  auto data = RandomData(20000, 1 << 16, 67);
  uint64_t x = 1 << 15;
  uint64_t truth = ExactRankOf(data, x);
  CompactorSummary c(eps, 71);
  for (uint64_t v : data) c.Insert(v);  // first life
  c.Reset(73);
  for (uint64_t v : data) c.Insert(v);  // reused life
  EXPECT_EQ(c.m(), 20000u);
  EXPECT_EQ(c.WeightTotal(), 20000u);
  double err = std::fabs(c.EstimateRank(x) - static_cast<double>(truth));
  EXPECT_LE(err, 4 * eps * 20000);
}

TEST(BernoulliSummaryTest, PEqualsOneIsExact) {
  BernoulliSampleSummary s(1.0, 3);
  for (uint64_t v : {1ull, 5ull, 5ull, 9ull}) s.Insert(v);
  EXPECT_DOUBLE_EQ(s.EstimateCount(), 4.0);
  EXPECT_DOUBLE_EQ(s.EstimateRank(6), 3.0);
  EXPECT_DOUBLE_EQ(s.EstimateFrequency(5), 2.0);
}

TEST(BernoulliSummaryTest, UnbiasedCount) {
  const double p = 0.05;
  const uint64_t kN = 2000;
  auto errors = testing_util::CollectErrors(2000, [&](uint64_t seed) {
    BernoulliSampleSummary s(p, seed);
    for (uint64_t i = 0; i < kN; ++i) s.Insert(i);
    return s.EstimateCount() - static_cast<double>(kN);
  });
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 10.0);
  // Var = n (1-p)/p = 38000.
  EXPECT_NEAR(testing_util::VarianceOf(errors), kN * (1 - p) / p, 8000.0);
}

TEST(BernoulliSummaryTest, SampleSizeConcentrates) {
  BernoulliSampleSummary s(0.1, 7);
  for (uint64_t i = 0; i < 50000; ++i) s.Insert(i);
  EXPECT_NEAR(static_cast<double>(s.SampleSize()), 5000.0, 400.0);
}

TEST(ReservoirTest, HoldsEverythingUnderCapacity) {
  ReservoirSample r(100, 5);
  for (uint64_t i = 0; i < 50; ++i) r.Insert(i);
  EXPECT_EQ(r.sample().size(), 50u);
  EXPECT_DOUBLE_EQ(r.EstimateRank(25), 25.0);
}

TEST(ReservoirTest, CapacityIsRespected) {
  ReservoirSample r(64, 7);
  for (uint64_t i = 0; i < 10000; ++i) r.Insert(i);
  EXPECT_EQ(r.sample().size(), 64u);
  EXPECT_EQ(r.n(), 10000u);
}

TEST(ReservoirTest, UniformInclusion) {
  // Every element survives with probability capacity/n.
  const size_t kCap = 50;
  const uint64_t kN = 1000;
  std::vector<int> hits(kN, 0);
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    ReservoirSample r(kCap, seed);
    for (uint64_t i = 0; i < kN; ++i) r.Insert(i);
    for (uint64_t v : r.sample()) ++hits[v];
  }
  double expect = 2000.0 * kCap / static_cast<double>(kN);  // = 100
  int lo = 0, hi = 0;
  for (int h : hits) {
    if (h < expect * 0.5) ++lo;
    if (h > expect * 1.5) ++hi;
  }
  EXPECT_LT(lo + hi, 20);  // at most 2% of elements far from expectation
}

TEST(ReservoirTest, RankEstimateReasonable) {
  ReservoirSample r(2000, 11);
  Rng rng(13);
  const uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) r.Insert(rng.UniformU64(1 << 16));
  // rank of midpoint ~ n/2; sampling std ~ n/(2 sqrt(s)) ~ 1120.
  EXPECT_NEAR(r.EstimateRank(1 << 15), kN / 2.0, 6000.0);
}

TEST(ReservoirTest, QuantileReasonable) {
  ReservoirSample r(4000, 17);
  Rng rng(19);
  for (uint64_t i = 0; i < 200000; ++i) r.Insert(rng.UniformU64(1000000));
  EXPECT_NEAR(static_cast<double>(r.Quantile(0.5)), 500000.0, 50000.0);
}

}  // namespace
}  // namespace summaries
}  // namespace disttrack
