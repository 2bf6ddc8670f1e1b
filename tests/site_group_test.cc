// Differential tests for the site-grouped delivery layer
// (common/site_group.h): the permutation must be a stable counting sort
// (per-site stream order preserved), its histogram must match a direct
// tally, pooled scratch must survive reuse across calls of different
// shapes, and the broadcast-safety gate must agree with a replayed
// CoarseTracker on whether a chunk can broadcast.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/replica.h"
#include "disttrack/sim/wire.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeFrequencyWorkload;
using stream::SiteSchedule;

// Reference grouping: per-site vectors in arrival order.
std::vector<std::vector<uint64_t>> ReferenceGroups(const sim::Workload& w,
                                                   size_t begin, size_t end,
                                                   int k) {
  std::vector<std::vector<uint64_t>> out(static_cast<size_t>(k));
  for (size_t i = begin; i < end; ++i) {
    out[static_cast<size_t>(w[i].site)].push_back(w[i].key);
  }
  return out;
}

void ExpectMatchesReference(const SiteGrouper& grouper, const sim::Workload& w,
                            size_t begin, size_t end, int k) {
  auto ref = ReferenceGroups(w, begin, end, k);
  size_t spans_seen = 0;
  int last_site = -1;
  for (const SiteGrouper::Span& span : grouper.spans()) {
    ASSERT_GT(span.site, last_site) << "spans must ascend by site";
    last_site = span.site;
    const auto& expect = ref[static_cast<size_t>(span.site)];
    ASSERT_EQ(span.length, expect.size());
    ASSERT_EQ(grouper.histogram()[span.site], expect.size());
    for (uint32_t j = 0; j < span.length; ++j) {
      ASSERT_EQ(span.data[j], expect[j])
          << "site " << span.site << " position " << j
          << " — stability violated";
    }
    ++spans_seen;
  }
  size_t nonempty = 0;
  for (const auto& g : ref) {
    if (!g.empty()) ++nonempty;
  }
  EXPECT_EQ(spans_seen, nonempty) << "empty sites must produce no span";
}

TEST(SiteGroupTest, ScatterIsAStableCountingSortAcrossSchedules) {
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kSkewedGeometric, SiteSchedule::kBursty}) {
    const int k = 13;
    auto w = MakeFrequencyWorkload(k, 20000, sched, 1000, 1.1, 99);
    SiteGrouper grouper;
    grouper.ScatterBySite(w.data(), w.size(), k);
    ExpectMatchesReference(grouper, w, 0, w.size(), k);
  }
}

TEST(SiteGroupTest, PooledScratchSurvivesReuseAcrossShapes) {
  // One grouper instance over chunks of wildly different sizes and site
  // counts — buffers are pooled, so later results must not be polluted
  // by earlier calls.
  SiteGrouper grouper;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    int k = 1 + static_cast<int>(rng.UniformU64(40));
    size_t n = 1 + static_cast<size_t>(rng.UniformU64(5000));
    auto w = MakeFrequencyWorkload(k, n, SiteSchedule::kUniformRandom, 500,
                                   0.0, 1000 + static_cast<uint64_t>(round));
    size_t begin = static_cast<size_t>(rng.UniformU64(w.size()));
    grouper.ScatterBySite(w.data() + begin, w.size() - begin, k);
    ExpectMatchesReference(grouper, w, begin, w.size(), k);
  }
}

TEST(SiteGroupTest, SingleSiteAndMaxSiteEdges) {
  // k = 1: the whole batch is one span.
  sim::Workload w;
  for (uint64_t i = 0; i < 100; ++i) w.push_back(sim::Arrival{0, i * 3});
  SiteGrouper grouper;
  grouper.ScatterBySite(w.data(), w.size(), 1);
  ASSERT_EQ(grouper.spans().size(), 1u);
  EXPECT_EQ(grouper.spans()[0].site, 0);
  EXPECT_EQ(grouper.spans()[0].length, 100u);
  // Highest valid site id only.
  const int k = 1000;
  sim::Workload top;
  for (uint64_t i = 0; i < 17; ++i) top.push_back(sim::Arrival{k - 1, i});
  grouper.ScatterBySite(top.data(), top.size(), k);
  ASSERT_EQ(grouper.spans().size(), 1u);
  EXPECT_EQ(grouper.spans()[0].site, k - 1);
  EXPECT_EQ(grouper.spans()[0].length, 17u);
  for (uint32_t j = 0; j < 17; ++j) EXPECT_EQ(grouper.spans()[0].data[j], j);
}

TEST(SiteGroupTest, CountPassesMatchScatterHistogram) {
  const int k = 9;
  auto w = MakeFrequencyWorkload(k, 5000, SiteSchedule::kSkewedGeometric, 100,
                                 1.1, 5);
  sim::SiteStream sites(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    sites[i] = static_cast<uint16_t>(w[i].site);
  }
  SiteGrouper a, b;
  a.ScatterBySite(w.data(), w.size(), k);
  b.CountSites(sites.data(), sites.size(), k);
  for (int s = 0; s < k; ++s) {
    EXPECT_EQ(b.histogram()[s], a.histogram()[s]);
  }
  ASSERT_EQ(b.spans().size(), a.spans().size());
  for (size_t i = 0; i < a.spans().size(); ++i) {
    EXPECT_EQ(b.spans()[i].site, a.spans()[i].site);
    EXPECT_EQ(b.spans()[i].length, a.spans()[i].length);
    EXPECT_EQ(b.spans()[i].data, nullptr);
  }
}

TEST(SiteGroupDeathTest, OutOfRangeSiteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Workload w{sim::Arrival{0, 1}, sim::Arrival{3, 2}};
  sim::SiteStream sites{0, 3};
  SiteGrouper grouper;
  EXPECT_DEATH(grouper.ScatterBySite(w.data(), w.size(), 3),
               "out of range");
  EXPECT_DEATH(grouper.CountSites(sites.data(), sites.size(), 3),
               "out of range");
}

// The broadcast-safety gate is exact: for any chunking of a real
// workload, BatchCannotBroadcast must return true exactly when replaying
// the chunk through the CoarseTracker produces no broadcast.
TEST(SiteGroupTest, BatchCannotBroadcastIsExactAgainstReplay) {
  const int k = 11;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kBursty}) {
    auto w = MakeFrequencyWorkload(k, 60000, sched, 100, 0.0, 17);
    sim::CommMeter meter(k);
    count::CoarseTracker coarse(k, &meter);
    SiteGrouper grouper;
    Rng rng(23);
    size_t pos = 0;
    int safe_chunks = 0;
    int unsafe_chunks = 0;
    while (pos < w.size()) {
      size_t len = std::min<size_t>(1 + rng.UniformU64(4096), w.size() - pos);
      grouper.ScatterBySite(w.data() + pos, len, k);
      bool predicted_safe = coarse.BatchCannotBroadcast(grouper.histogram());
      uint64_t round_before = coarse.round();
      for (size_t i = 0; i < len; ++i) coarse.Arrive(w[pos + i].site);
      bool was_safe = coarse.round() == round_before;
      ASSERT_EQ(predicted_safe, was_safe)
          << "chunk at " << pos << " len " << len;
      (predicted_safe ? safe_chunks : unsafe_chunks) += 1;
      pos += len;
    }
    EXPECT_GT(safe_chunks, 0);
    EXPECT_GT(unsafe_chunks, 0) << "workload must exercise both outcomes";
  }
}

// Feeds a CoarseMirror the coarse reports a CoarseTracker emits, as the
// service coordinator's decider is fed.
class MirrorFeed : public sim::wire::WireTap {
 public:
  explicit MirrorFeed(sim::CoarseMirror* mirror) : mirror_(mirror) {}
  void OnMessage(sim::wire::Message&& msg) override {
    if (msg.type == sim::wire::MsgType::kCoarseReport) {
      mirror_->ApplyReport(msg.a);
    }
  }

 private:
  sim::CoarseMirror* mirror_;
};

// The lockstep coordinator's admission certificate (CoarseMirror's
// projection over per-site totals) must give BatchCannotBroadcast's
// answer on every random batch, and both must agree with what delivering
// the batch actually does.
TEST(SiteGroupTest, CoarseMirrorProjectionMatchesBatchCannotBroadcast) {
  const int k = 7;
  sim::CommMeter meter(k);
  count::CoarseTracker coarse(k, &meter);
  sim::CoarseMirror mirror;
  MirrorFeed feed(&mirror);
  coarse.set_wire_tap(&feed);
  Rng rng(41);
  int safe = 0, unsafe = 0;
  for (int batch = 0; batch < 3000; ++batch) {
    std::vector<uint32_t> histogram(k, 0);
    std::vector<uint64_t> totals(k, 0);
    uint64_t spread = 2 + 2 * coarse.n_prime() / k;
    for (int i = 0; i < k; ++i) {
      if (rng.UniformU64(3) != 0) {
        histogram[i] = static_cast<uint32_t>(rng.UniformU64(spread));
      }
      totals[i] = coarse.local_count(i) + histogram[i];
    }
    bool certified = mirror.CannotBroadcast(totals);
    ASSERT_EQ(certified, coarse.BatchCannotBroadcast(histogram.data()))
        << "batch " << batch;
    uint64_t round_before = coarse.round();
    for (int i = 0; i < k; ++i) coarse.ArriveRun(i, histogram[i]);
    ASSERT_EQ(certified, coarse.round() == round_before) << "batch " << batch;
    ASSERT_EQ(mirror.n_bar, coarse.n_bar());
    (certified ? safe : unsafe) += 1;
  }
  EXPECT_GT(safe, 100);
  EXPECT_GT(unsafe, 10);
}

}  // namespace
}  // namespace disttrack
