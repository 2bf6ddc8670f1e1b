// Property tests for the batched delivery engines added with the
// frequency/rank hot-path overhaul:
//
//  * count + frequency: the event-countdown engines consume the RNG
//    exactly as per-element Arrive() does, so ArriveBatch (any chunking,
//    straddling round and virtual-site-split boundaries) must be
//    bit-identical to the scalar path — estimates, communication, round
//    counts, and split counts;
//  * rank with use_batch_compaction=false: same bit-identity;
//  * rank with batched compaction (default): fewer, larger compactions
//    are equivalent in distribution, not bit-identical — checked with a
//    two-sample Kolmogorov–Smirnov test of final-error samples against
//    the per-element feed, plus mean/variance sanity;
//  * CompactorSummary::InsertBatch vs per-element Insert: exact weight
//    conservation, and the same unbiasedness + (eps*m)^2 variance bound.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/stream/workload.h"
#include "disttrack/summaries/compactor_summary.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeCountWorkload;
using stream::MakeFrequencyWorkload;
using stream::MakeRankWorkload;
using stream::SiteSchedule;

// Two-sample Kolmogorov–Smirnov statistic sup_x |F_a(x) - F_b(x)|.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    double fa = static_cast<double>(i) / static_cast<double>(a.size());
    double fb = static_cast<double>(j) / static_cast<double>(b.size());
    d = std::max(d, std::fabs(fa - fb));
  }
  return d;
}

// KS acceptance threshold c(alpha) * sqrt((n+m)/(n*m)) at alpha ~ 0.001
// (c = 1.95) — loose enough that a correct implementation fails ~1/1000
// runs, tight enough to catch a variance-breaking "optimization".
double KsThreshold(size_t n, size_t m) {
  return 1.95 * std::sqrt(static_cast<double>(n + m) /
                          static_cast<double>(n * m));
}

// Delivers `w` in ragged chunks whose sizes cycle through a progression,
// so batch boundaries straddle round broadcasts and virtual-site splits
// at arbitrary offsets.
template <typename Tracker>
void DeliverRagged(Tracker* tracker, const sim::Workload& w, size_t seed) {
  size_t i = 0;
  size_t chunk = 1 + seed % 7;
  while (i < w.size()) {
    size_t len = std::min(chunk, w.size() - i);
    tracker->ArriveBatch(w.data() + i, len);
    i += len;
    chunk = chunk * 3 + 1;
    if (chunk > 5000) chunk = 1 + (chunk % 11);
  }
}

// A stream in which one site owns almost every arrival: each of the
// countdown engine's event gaps at that site spans many batches while the
// other sites stay idle.
sim::Workload DominantSiteWorkload(int k, size_t n, uint64_t seed) {
  Rng rng(seed);
  sim::Workload w;
  w.reserve(n);
  const uint64_t others = static_cast<uint64_t>(k - 1);
  for (size_t i = 0; i < n; ++i) {
    int site = rng.UniformU64(1000) == 0
                   ? 1 + static_cast<int>(rng.UniformU64(others))
                   : 0;
    w.push_back(sim::Arrival{site, rng.UniformU64(1 << 16)});
  }
  return w;
}

// The count countdown engine against per-element Arrive(): uniform
// streams across seeds, then the single-site, skewed and bursty schedules
// and a dominant-site stream. Each is delivered in ragged batches, as
// one whole-stream ArriveBatch, and in two large ArriveSites calls over
// the compact site stream.
TEST(BatchEquivalenceTest, CountRaggedBatchesBitIdenticalAcrossSeeds) {
  struct Case {
    int k;
    SiteSchedule sched;  // ignored for the dominant-site case
    bool dominant_site;
    uint64_t seed;
  };
  const Case cases[] = {
      {8, SiteSchedule::kUniformRandom, false, 1},
      {8, SiteSchedule::kUniformRandom, false, 2},
      {8, SiteSchedule::kUniformRandom, false, 3},
      {16, SiteSchedule::kSingleSite, false, 4},
      {16, SiteSchedule::kSkewedGeometric, false, 5},
      {16, SiteSchedule::kBursty, false, 6},
      {4, SiteSchedule::kUniformRandom, true, 7},
  };
  const uint64_t kN = 120000;
  for (const Case& c : cases) {
    auto w = c.dominant_site
                 ? DominantSiteWorkload(c.k, 3 * kN, 100 + c.seed)
                 : MakeCountWorkload(c.k, kN, c.sched, 100 + c.seed);
    sim::SiteStream sites(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      sites[i] = static_cast<uint16_t>(w[i].site);
    }
    count::RandomizedCountOptions o;
    o.num_sites = c.k;
    o.epsilon = 0.01;  // many p-halving broadcasts inside the stream
    o.seed = 500 + c.seed;
    count::RandomizedCountTracker scalar(o), ragged(o), whole(o), by_site(o);
    for (const auto& a : w) scalar.Arrive(a.site);
    DeliverRagged(&ragged, w, c.seed);
    whole.ArriveBatch(w.data(), w.size());
    // Two calls, so a batch end that fails to reconcile shows up in the
    // next batch.
    size_t head = 2 * sites.size() / 3 + 1;
    by_site.ArriveSites(sites.data(), head);
    by_site.ArriveSites(sites.data() + head, sites.size() - head);
    for (const count::RandomizedCountTracker* t :
         {&ragged, &whole, &by_site}) {
      ASSERT_DOUBLE_EQ(t->EstimateCount(), scalar.EstimateCount())
          << "case " << c.seed;
      EXPECT_EQ(t->meter().TotalMessages(), scalar.meter().TotalMessages());
      EXPECT_EQ(t->meter().TotalWords(), scalar.meter().TotalWords());
      EXPECT_EQ(t->rounds(), scalar.rounds());
    }
  }
}

TEST(BatchEquivalenceTest, FrequencyBatchesBitIdenticalAcrossSplits) {
  // Single-site schedule with a small epsilon: every round the one loaded
  // site blows through the n̄/k split threshold repeatedly, so batches
  // straddle both round boundaries and many virtual-site splits.
  const int k = 8;
  const uint64_t kN = 80000;
  for (uint64_t seed : {1ull, 2ull}) {
    auto w = MakeFrequencyWorkload(k, kN, SiteSchedule::kSingleSite, 500, 1.1,
                                   300 + seed);
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = 700 + seed;
    frequency::RandomizedFrequencyTracker scalar(o), batched(o);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    DeliverRagged(&batched, w, seed);
    ASSERT_GT(scalar.splits(), 10u) << "workload must exercise splits";
    ASSERT_GT(scalar.rounds(), 5u) << "workload must cross rounds";
    EXPECT_EQ(batched.splits(), scalar.splits());
    EXPECT_EQ(batched.rounds(), scalar.rounds());
    for (uint64_t item = 0; item < 40; ++item) {
      ASSERT_DOUBLE_EQ(batched.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
    }
    EXPECT_EQ(batched.meter().TotalMessages(), scalar.meter().TotalMessages());
    EXPECT_EQ(batched.meter().TotalWords(), scalar.meter().TotalWords());
  }
}

// Rank's exact feed (use_batch_compaction=false) under batch delivery
// against per-element Arrive(): the uniform, single-site and bursty
// schedules and a dominant-site stream, each in ragged batches and as one
// whole-stream batch, with batches straddling round broadcasts and
// leaf/chunk completions.
TEST(BatchEquivalenceTest, RankExactFeedBatchesBitIdenticalToScalar) {
  struct Case {
    int k;
    SiteSchedule sched;  // ignored for the dominant-site case
    bool dominant_site;
    double epsilon;
  };
  const Case cases[] = {
      {8, SiteSchedule::kUniformRandom, false, 0.02},
      {8, SiteSchedule::kSingleSite, false, 0.02},
      {8, SiteSchedule::kBursty, false, 0.02},
      {4, SiteSchedule::kUniformRandom, true, 0.05},
  };
  const uint64_t kN = 50000;
  for (const Case& c : cases) {
    auto w = c.dominant_site
                 ? DominantSiteWorkload(c.k, 4 * kN, 3)
                 : MakeRankWorkload(c.k, kN, c.sched,
                                    stream::ValueOrder::kUniformRandom, 16,
                                    41);
    rank::RandomizedRankOptions o;
    o.num_sites = c.k;
    o.epsilon = c.epsilon;
    o.seed = 13;
    o.use_batch_compaction = false;  // per-element feed: exact path
    rank::RandomizedRankTracker scalar(o), ragged(o), whole(o);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    DeliverRagged(&ragged, w, 2);
    whole.ArriveBatch(w.data(), w.size());
    for (const rank::RandomizedRankTracker* t : {&ragged, &whole}) {
      for (uint64_t q : {100ull, 20000ull, 45000ull, 65000ull}) {
        ASSERT_DOUBLE_EQ(t->EstimateRank(q), scalar.EstimateRank(q))
            << "q " << q;
      }
      EXPECT_EQ(t->meter().TotalMessages(), scalar.meter().TotalMessages());
      EXPECT_EQ(t->meter().TotalWords(), scalar.meter().TotalWords());
      EXPECT_EQ(t->rounds(), scalar.rounds());
    }
  }
}

TEST(BatchEquivalenceTest, RankBatchedCompactionDistributionMatchesScalar) {
  // Batched compaction reorders and coalesces compactions, so it is not
  // bit-identical; its error distribution at a fixed query must be. Two
  // samples of final errors (independent seeds), KS-tested.
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 43);
  const uint64_t query = 1u << 15;
  uint64_t truth = stream::ExactRank(w, query);
  const int kTrials = 120;
  auto run = [&](bool batch_compaction, uint64_t base_seed) {
    return testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          rank::RandomizedRankOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_batch_compaction = batch_compaction;
          rank::RandomizedRankTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateRank(query) - static_cast<double>(truth);
        },
        base_seed);
  };
  auto scalar_errors = run(false, 9000);
  auto batch_errors = run(true, 9500);
  double d = KsStatistic(scalar_errors, batch_errors);
  EXPECT_LE(d, KsThreshold(scalar_errors.size(), batch_errors.size()))
      << "batched-compaction error distribution drifted from scalar";
  // Means agree within the two-sample CLT band (4 sigma).
  double mean_gap = std::fabs(testing_util::MeanOf(scalar_errors) -
                              testing_util::MeanOf(batch_errors));
  double pooled_sd =
      std::sqrt((testing_util::VarianceOf(scalar_errors) +
                 testing_util::VarianceOf(batch_errors)) /
                kTrials);
  EXPECT_LE(mean_gap, 4.0 * pooled_sd + 1e-9);
}

// ---- shared run-merge ladder (use_shared_ladder) -------------------------

// Under the exact per-element feed (use_batch_compaction=false), routing
// every site's arrivals through the shared RunLadder must be bit-identical
// to the per-level staging path: each level pulls exactly when staging
// would have tripped its compaction threshold, the consolidated buffer
// holds the same multiset, and the coin sequences line up draw for draw.
// The workload crosses many rounds, so p-halving broadcasts land while
// the ladder holds unpulled one-element straggler runs — the reset path.
TEST(BatchEquivalenceTest, RankLadderExactFeedBitIdenticalToStagedLevels) {
  const int k = 8;
  const uint64_t kN = 60000;
  for (uint64_t seed : {1ull, 7ull, 13ull}) {
    auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                              stream::ValueOrder::kUniformRandom, 16,
                              100 + seed);
    rank::RandomizedRankOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = seed;
    o.use_batch_compaction = false;  // exact feed
    o.use_shared_ladder = true;
    rank::RandomizedRankTracker ladder(o);
    o.use_shared_ladder = false;
    rank::RandomizedRankTracker staged(o);
    // Ragged batched delivery for the ladder tracker (falls back to the
    // per-element feed, with run boundaries straddling node windows at
    // arbitrary offsets), plain scalar delivery for the staged one.
    DeliverRagged(&ladder, w, seed);
    for (const auto& a : w) staged.Arrive(a.site, a.key);
    ASSERT_GT(staged.rounds(), 10u) << "broadcasts must land mid-ladder";
    for (uint64_t q : {100ull, 9000ull, 30000ull, 65000ull}) {
      ASSERT_DOUBLE_EQ(ladder.EstimateRank(q), staged.EstimateRank(q))
          << "seed " << seed << " q " << q;
    }
    EXPECT_EQ(ladder.meter().TotalMessages(), staged.meter().TotalMessages());
    EXPECT_EQ(ladder.meter().TotalWords(), staged.meter().TotalWords());
    EXPECT_EQ(ladder.rounds(), staged.rounds());
  }
}

// Straggler-heavy variant: a large confidence factor keeps p high, so the
// tail channel fires every few arrivals and nearly every ladder append is
// the one-element straggler run of an event arrival.
TEST(BatchEquivalenceTest, RankLadderExactFeedStragglerPathBitIdentical) {
  const int k = 4;
  const uint64_t kN = 30000;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 14, 71);
  rank::RandomizedRankOptions o;
  o.num_sites = k;
  o.epsilon = 0.05;
  o.seed = 29;
  o.confidence_factor = 16.0;  // p stays large: dense tail events
  o.use_batch_compaction = false;
  o.use_shared_ladder = true;
  rank::RandomizedRankTracker ladder(o);
  o.use_shared_ladder = false;
  rank::RandomizedRankTracker staged(o);
  for (const auto& a : w) {
    ladder.Arrive(a.site, a.key);
    staged.Arrive(a.site, a.key);
  }
  for (uint64_t q : {64ull, 4096ull, 12000ull, 20000ull}) {
    ASSERT_DOUBLE_EQ(ladder.EstimateRank(q), staged.EstimateRank(q));
  }
  EXPECT_EQ(ladder.meter().TotalWords(), staged.meter().TotalWords());
}

// The batched feed (use_batch_compaction=true) defers ladder pulls to
// dyadic quanta — fewer, larger compactions than the per-level staging
// path, so not bit-identical; the error distribution at a fixed query
// must match (same KS methodology as the batched-vs-scalar test above).
TEST(BatchEquivalenceTest, RankLadderBatchedFeedDistributionMatchesStaged) {
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 47);
  const uint64_t query = 1u << 15;
  uint64_t truth = stream::ExactRank(w, query);
  const int kTrials = 120;
  auto run = [&](bool shared_ladder, uint64_t base_seed) {
    return testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          rank::RandomizedRankOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_shared_ladder = shared_ladder;
          rank::RandomizedRankTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateRank(query) - static_cast<double>(truth);
        },
        base_seed);
  };
  auto ladder_errors = run(true, 11000);
  auto staged_errors = run(false, 11500);
  double d = KsStatistic(ladder_errors, staged_errors);
  EXPECT_LE(d, KsThreshold(ladder_errors.size(), staged_errors.size()))
      << "shared-ladder error distribution drifted from per-level staging";
  double mean_gap = std::fabs(testing_util::MeanOf(ladder_errors) -
                              testing_util::MeanOf(staged_errors));
  double pooled_sd = std::sqrt((testing_util::VarianceOf(ladder_errors) +
                                testing_util::VarianceOf(staged_errors)) /
                               kTrials);
  EXPECT_LE(mean_gap, 4.0 * pooled_sd + 1e-9);
}

// ---- frequency site-grouped delivery (use_site_grouping) -----------------
//
// Inside a chunk CoarseTracker::BatchCannotBroadcast certifies, arrivals
// are permuted into site-contiguous spans; per-site coin streams and
// event positions are site-local, so the grouped engine must be
// bit-identical to the event-countdown engine — estimates to the ulp,
// communication totals, rounds, splits — for every workload shape and
// any batch chunking (including single huge batches that the engine
// chunks internally, straddling p-halving broadcasts and round/split
// boundaries).

TEST(BatchEquivalenceTest, FrequencyGroupedBitIdenticalAcrossWorkloads) {
  const int k = 8;
  const uint64_t kN = 90000;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kBursty}) {
    auto w = MakeFrequencyWorkload(k, kN, sched, 400, 1.1, 311);
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;  // many rounds and (single-site) many splits inside
    o.seed = 17;
    o.use_site_grouping = true;
    frequency::RandomizedFrequencyTracker grouped(o);
    o.use_site_grouping = false;
    frequency::RandomizedFrequencyTracker countdown(o), scalar(o);
    grouped.ArriveBatch(w.data(), w.size());
    DeliverRagged(&countdown, w, 5);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    EXPECT_EQ(grouped.rounds(), scalar.rounds());
    EXPECT_EQ(grouped.splits(), scalar.splits());
    for (uint64_t item = 0; item < 50; ++item) {
      ASSERT_DOUBLE_EQ(grouped.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
      ASSERT_DOUBLE_EQ(countdown.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
    }
    EXPECT_EQ(grouped.meter().TotalMessages(), scalar.meter().TotalMessages());
    EXPECT_EQ(grouped.meter().TotalWords(), scalar.meter().TotalWords());
  }
}

// Borrowed-view ingest vs owned staging at the summary level: one
// over-capacity sorted view into a fresh summary must reproduce
// InsertSortedBatch of the same data bit for bit (the virtual cascade
// draws the same coins and keeps the same elements).
TEST(BatchEquivalenceTest, CompactorSortedViewsMatchSortedBatchExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint64_t> data(20 + rng.UniformU64(800));
    for (auto& v : data) v = rng.UniformU64(1 << 20);
    std::sort(data.begin(), data.end());
    uint64_t seed = 9000 + trial;
    summaries::CompactorSummary by_view(0.1, seed);
    summaries::CompactorSummary by_batch(0.1, seed);
    summaries::RunView view{data.data(), data.size()};
    by_view.InsertSortedViews(&view, 1, data.size());
    by_batch.InsertSortedBatch(data.data(), data.size());
    EXPECT_EQ(by_view.WeightTotal(), by_batch.WeightTotal());
    EXPECT_EQ(by_view.m(), by_batch.m());
    ASSERT_EQ(by_view.Items(), by_batch.Items()) << "trial " << trial;
  }
}

// Multi-view pulls conserve weight exactly and answer queries like the
// equivalent concatenated batch feed (staged under capacity, merged and
// compacted above it).
TEST(BatchEquivalenceTest, CompactorSortedViewsConserveWeight) {
  Rng rng(171);
  summaries::CompactorSummary summary(0.05, 555);
  uint64_t total = 0;
  std::vector<std::vector<uint64_t>> runs;
  std::vector<summaries::RunView> views;
  for (int round = 0; round < 40; ++round) {
    runs.clear();
    views.clear();
    size_t num_views = 1 + rng.UniformU64(6);
    size_t count = 0;
    for (size_t v = 0; v < num_views; ++v) {
      runs.emplace_back();
      size_t len = rng.UniformU64(60);
      for (size_t i = 0; i < len; ++i) {
        runs.back().push_back(rng.UniformU64(1 << 20));
      }
      std::sort(runs.back().begin(), runs.back().end());
      views.push_back(
          summaries::RunView{runs.back().data(), runs.back().size()});
      count += len;
    }
    summary.InsertSortedViews(views.data(), views.size(), count);
    total += count;
    ASSERT_EQ(summary.WeightTotal(), total);
  }
  EXPECT_EQ(summary.m(), total);
}

TEST(BatchEquivalenceTest, CompactorInsertBatchConservesWeightExactly) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    summaries::CompactorSummary batch(0.05, 1000 + trial);
    summaries::CompactorSummary scalar(0.05, 2000 + trial);
    uint64_t total = 0;
    std::vector<uint64_t> run;
    for (int r = 0; r < 50; ++r) {
      run.clear();
      uint64_t len = rng.UniformU64(200);
      for (uint64_t i = 0; i < len; ++i) run.push_back(rng.UniformU64(1u << 20));
      batch.InsertBatch(run.data(), run.size());
      for (uint64_t v : run) scalar.Insert(v);
      total += len;
    }
    EXPECT_EQ(batch.WeightTotal(), total);
    EXPECT_EQ(scalar.WeightTotal(), total);
    EXPECT_EQ(batch.m(), total);
  }
}

TEST(BatchEquivalenceTest, CompactorInsertBatchKeepsVarianceBound) {
  // Unbiasedness and Var <= (eps m)^2 must hold for the batched feed
  // exactly as for per-element Insert (the martingale increments are the
  // same mean-zero +-2^level steps; see compactor_summary.h).
  const double eps = 0.05;
  const uint64_t kM = 30000;
  const uint64_t query = 1u << 19;  // rank ~ m/2 over a 2^20 universe
  Rng data_rng(555);
  std::vector<uint64_t> data(kM);
  for (auto& v : data) v = data_rng.UniformU64(1u << 20);
  uint64_t truth = 0;
  for (uint64_t v : data) {
    if (v < query) ++truth;
  }
  for (bool batched : {false, true}) {
    auto errors = testing_util::CollectErrors(
        150,
        [&](uint64_t seed) {
          summaries::CompactorSummary c(eps, seed);
          if (batched) {
            // Runs of varying length, including ones far past capacity.
            size_t i = 0, chunk = 3;
            while (i < data.size()) {
              size_t len = std::min(chunk, data.size() - i);
              c.InsertBatch(data.data() + i, len);
              i += len;
              chunk = chunk * 2 + 1;
              if (chunk > 3000) chunk = 3;
            }
          } else {
            for (uint64_t v : data) c.Insert(v);
          }
          return c.EstimateRank(query) - static_cast<double>(truth);
        },
        4000 + (batched ? 1000 : 0));
    double bound = eps * static_cast<double>(kM);
    double sd = std::sqrt(testing_util::VarianceOf(errors));
    EXPECT_LE(std::fabs(testing_util::MeanOf(errors)),
              4.0 * sd / std::sqrt(150.0) + 1e-9)
        << "batched=" << batched;
    EXPECT_LE(testing_util::VarianceOf(errors), bound * bound)
        << "batched=" << batched;
  }
}

}  // namespace
}  // namespace disttrack
