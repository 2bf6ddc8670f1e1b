// Fault storms on the service's own protocol code: the in-process pump
// (service/fleet_pump.h) drives k SiteCores and one CoordinatorCore — the
// cores under the daemons — through seeded storms of the faults a TCP
// fleet can suffer: streams cut at a byte offset in either direction
// (the site restarts from its last snapshot and rejoins), site crashes at
// given arrival counts (back to back included), random read
// fragmentation, and a seeded order among concurrently granted sites.
//
// Every lockstep storm must end indistinguishable from the fault-free
// run: the journal is the strict rotation, the final answers are
// bit-identical to the fault-free pump and to the serial replay of the
// journal, the §1.1 paper ledger is unchanged, and every site is
// settled. One test ties the fault-free pump to a fork-based socket
// fleet of the real shells.

#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/fleet_pump.h"
#include "tests/service_fleet.h"

namespace disttrack {
namespace service {
namespace {

using sim::wire::Message;
using namespace fleet_test;  // NOLINT(build/namespaces)

constexpr int kSweepSeeds = 50;

/// Rank probes: values spread over the universe.
std::vector<uint64_t> RankProbes(const ServiceOptions& options) {
  std::vector<uint64_t> probes;
  for (uint64_t i = 1; i < 8; ++i) probes.push_back(options.universe / 8 * i);
  return probes;
}

/// The fleet's final answers, as bits: the count estimate; the frequency
/// point estimates of the 16 hot items; the rank estimates at the probes
/// plus the median's value and estimate.
template <typename Coord>
std::vector<uint64_t> Answers(const Coord& coordinator,
                              const ServiceOptions& options) {
  switch (options.tracker) {
    case TrackerKind::kCount:
      return {Ask(coordinator, kQueryCount).values[0]};
    case TrackerKind::kFrequency: {
      std::vector<uint64_t> out;
      for (uint64_t item = 0; item < 16; ++item) {
        out.push_back(Ask(coordinator, kQueryPoint, item).values[0]);
      }
      return out;
    }
    case TrackerKind::kRank: {
      std::vector<uint64_t> out;
      for (uint64_t value : RankProbes(options)) {
        out.push_back(Ask(coordinator, kQueryRank, value).values[0]);
      }
      Message median = Ask(coordinator, kQueryQuantile, Bits(0.5));
      out.push_back(median.values[0]);
      out.push_back(median.values[1]);
      return out;
    }
  }
  return {};
}

/// The same answers from a serial tracker replaying `journal`.
std::vector<uint64_t> SerialAnswers(const ServiceOptions& options,
                                    const std::vector<uint64_t>& journal,
                                    uint64_t n_prime) {
  // Calls arrive(site, shard index) in journal order.
  auto replay = [&](auto arrive) {
    std::vector<uint64_t> position(static_cast<size_t>(options.num_sites),
                                   0);
    for (size_t i = 0; i + 1 < journal.size(); i += 2) {
      int site = static_cast<int>(journal[i]);
      for (uint64_t j = 0; j < journal[i + 1]; ++j) {
        arrive(site, position[static_cast<size_t>(site)]++);
      }
    }
  };
  switch (options.tracker) {
    case TrackerKind::kCount: {
      count::RandomizedCountTracker serial(options.CountOptions());
      replay([&](int site, uint64_t) { serial.Arrive(site); });
      return {Bits(serial.EstimateCount())};
    }
    case TrackerKind::kFrequency: {
      frequency::RandomizedFrequencyTracker serial(
          options.FrequencyOptions());
      replay([&](int site, uint64_t index) {
        serial.Arrive(site, WorkloadKey(options, site, index));
      });
      std::vector<uint64_t> out;
      for (uint64_t item = 0; item < 16; ++item) {
        out.push_back(Bits(serial.EstimateFrequency(item)));
      }
      return out;
    }
    case TrackerKind::kRank: {
      rank::RandomizedRankTracker serial(options.RankOptions());
      replay([&](int site, uint64_t index) {
        serial.Arrive(site, WorkloadKey(options, site, index));
      });
      std::vector<uint64_t> out;
      for (uint64_t value : RankProbes(options)) {
        out.push_back(Bits(serial.EstimateRank(value)));
      }
      double target = 0.5 * static_cast<double>(n_prime);
      uint64_t lo = 0, hi = options.universe;
      while (lo < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (serial.EstimateRank(mid) < target) lo = mid + 1;
        else hi = mid;
      }
      out.push_back(lo);
      out.push_back(Bits(serial.EstimateRank(lo)));
      return out;
    }
  }
  return {};
}

/// What a finished run must reproduce exactly.
struct Outcome {
  std::vector<uint64_t> journal;
  std::vector<uint64_t> answers;
  std::vector<uint64_t> paper;  ///< messages, words, broadcasts
};

Outcome Observe(const CoordinatorCore& coordinator,
                const ServiceOptions& options) {
  Outcome out;
  out.journal = Ask(coordinator, kQueryJournal).values;
  out.answers = Answers(coordinator, options);
  const CoordinatorCore::Stats& stats = coordinator.stats();
  out.paper = {stats.paper_messages, stats.paper_words, stats.broadcasts};
  return out;
}

/// The fault-free pump run, pinned to the rotation and the serial replay.
Outcome Baseline(const ServiceOptions& options) {
  FleetPump pump(options);
  std::string error;
  EXPECT_TRUE(pump.Run(&error)) << error;
  const CoordinatorCore& coordinator = pump.coordinator();
  EXPECT_TRUE(coordinator.AllSitesDone());
  Outcome base = Observe(coordinator, options);
  EXPECT_EQ(base.journal, ExpectedRotation(options));
  EXPECT_EQ(base.answers,
            SerialAnswers(options, base.journal,
                          Ask(coordinator, kQueryCount).values[1]));
  EXPECT_EQ(coordinator.stats().rejoins, 0u);
  EXPECT_EQ(Ask(coordinator, kQueryStats).values[17], 1u)
      << "wire-byte ledger broken in a fault-free run";
  return base;
}

/// Runs `kSweepSeeds` seeded storms against the fault-free baseline.
void RunSweep(const ServiceOptions& options, uint64_t seed_base) {
  const char* tag = TrackerKindName(options.tracker);
  Outcome base = Baseline(options);
  ASSERT_FALSE(::testing::Test::HasFailure()) << tag << " baseline";

  uint64_t dup_frames = 0, cuts = 0, cuts_mid_frame = 0, crashes = 0;
  for (int i = 0; i < kSweepSeeds; ++i) {
    uint64_t seed = seed_base + static_cast<uint64_t>(i);
    FleetPump pump(options, StormPlan::FromSeed(seed, options));
    std::string error;
    ASSERT_TRUE(pump.Run(&error)) << tag << " storm seed " << seed << ": "
                                  << error;
    const CoordinatorCore& coordinator = pump.coordinator();
    ASSERT_TRUE(coordinator.AllSitesDone()) << tag << " seed " << seed;
    Outcome storm = Observe(coordinator, options);
    ASSERT_EQ(storm.journal, base.journal) << tag << " seed " << seed;
    ASSERT_EQ(storm.answers, base.answers) << tag << " seed " << seed;
    ASSERT_EQ(storm.paper, base.paper) << tag << " seed " << seed;
    EXPECT_GE(coordinator.stats().rejoins, 1u) << tag << " seed " << seed;
    dup_frames += Ask(coordinator, kQueryStats).values[11];
    cuts += pump.report().cuts;
    cuts_mid_frame += pump.report().cuts_mid_frame;
    crashes += pump.report().crashes;
  }
  // What the sweep exercised, in aggregate.
  EXPECT_GE(crashes, static_cast<uint64_t>(kSweepSeeds)) << tag;
  EXPECT_GT(cuts, 0u) << tag;
  EXPECT_GT(cuts_mid_frame, 0u) << tag << ": no cut split a frame";
  EXPECT_GT(dup_frames, 0u) << tag << ": no replayed frame was deduplicated";
}

ServiceOptions StormFleet(TrackerKind tracker) {
  ServiceOptions options;
  options.tracker = tracker;
  options.num_sites = 4;
  options.epsilon = tracker == TrackerKind::kCount ? 0.1 : 0.2;
  options.seed = 7;
  options.total_arrivals = 4000;
  options.grant_max = 64;
  options.snapshot_every = 128;
  return options;
}

TEST(FaultToleranceTest, CountStormsMatchTheFaultFreeRun) {
  RunSweep(StormFleet(TrackerKind::kCount), 1000);
}

TEST(FaultToleranceTest, FrequencyStormsMatchTheFaultFreeRun) {
  RunSweep(StormFleet(TrackerKind::kFrequency), 2000);
}

TEST(FaultToleranceTest, RankStormsMatchTheFaultFreeRun) {
  RunSweep(StormFleet(TrackerKind::kRank), 3000);
}

TEST(FaultToleranceTest, StormPlanIsAFunctionOfTheSeed) {
  ServiceOptions options = StormFleet(TrackerKind::kCount);
  auto same = [](const StormPlan& a, const StormPlan& b) {
    if (a.max_restart_delay != b.max_restart_delay) return false;
    if (a.cuts.size() != b.cuts.size()) return false;
    if (a.crashes.size() != b.crashes.size()) return false;
    for (size_t i = 0; i < a.cuts.size(); ++i) {
      if (a.cuts[i].site != b.cuts[i].site ||
          a.cuts[i].downlink != b.cuts[i].downlink ||
          a.cuts[i].offset != b.cuts[i].offset) {
        return false;
      }
    }
    for (size_t i = 0; i < a.crashes.size(); ++i) {
      if (a.crashes[i].site != b.crashes[i].site ||
          a.crashes[i].after != b.crashes[i].after) {
        return false;
      }
    }
    return true;
  };
  StormPlan a = StormPlan::FromSeed(1234, options);
  EXPECT_TRUE(same(a, StormPlan::FromSeed(1234, options)));
  ASSERT_GE(a.crashes.size(), 1u);  // every storm crashes a site
  uint64_t shard = ShardSize(options, a.crashes[0].site);
  EXPECT_LE(a.crashes[0].after, shard / 2);  // early enough to fire
  int differ = 0;
  for (uint64_t seed = 1235; seed < 1245; ++seed) {
    if (!same(a, StormPlan::FromSeed(seed, options))) ++differ;
  }
  EXPECT_GE(differ, 9);
}

// Schedules the storm generator never draws: one site crashing four
// times, back to back; both directions of every other site cut
// repeatedly; and every byte delivered in pieces, in a random site order.
TEST(FaultToleranceTest, ExtremeSchedulesStillConverge) {
  for (TrackerKind tracker : {TrackerKind::kCount, TrackerKind::kRank}) {
    ServiceOptions options = StormFleet(tracker);
    Outcome base = Baseline(options);
    StormPlan plan;
    plan.seed = 99;
    plan.shuffle = true;
    plan.fragment = true;
    plan.max_restart_delay = 2;
    plan.crashes = {{0, 100}, {0, 1}, {0, 1}, {0, 50}};
    for (int site = 1; site < options.num_sites; ++site) {
      for (uint64_t offset : {700u, 3900u, 8100u}) {
        plan.cuts.push_back({site, false, offset + 13u * site});
        plan.cuts.push_back({site, true, offset / 2 + 7u * site});
      }
    }
    FleetPump pump(options, plan);
    std::string error;
    ASSERT_TRUE(pump.Run(&error)) << error;
    EXPECT_EQ(pump.report().crashes, 4u);
    EXPECT_GE(pump.report().cuts, 6u);
    Outcome storm = Observe(pump.coordinator(), options);
    EXPECT_EQ(storm.journal, base.journal);
    EXPECT_EQ(storm.answers, base.answers);
    EXPECT_EQ(storm.paper, base.paper);
  }
}

// A cut after a site wrote frames its next snapshot covers leaves the
// snapshot ahead of the coordinator: the join refuses it
// (kJoinSnapshotAhead), and the site starts over from position 0 on the
// same stream.
TEST(FaultToleranceTest, SnapshotAheadOfTheCoordinatorIsRefused) {
  ServiceOptions options = StormFleet(TrackerKind::kCount);
  options.snapshot_every = 64;  // a snapshot at every boundary
  Outcome base = Baseline(options);
  uint64_t refused = 0;
  for (uint64_t offset = 2000; offset < 12000 && refused == 0;
       offset += 97) {
    StormPlan plan;
    plan.cuts = {{1, false, offset}};
    FleetPump pump(options, plan);
    std::string error;
    ASSERT_TRUE(pump.Run(&error)) << "cut at " << offset << ": " << error;
    Outcome storm = Observe(pump.coordinator(), options);
    ASSERT_EQ(storm.answers, base.answers) << "cut at " << offset;
    ASSERT_EQ(storm.paper, base.paper) << "cut at " << offset;
    refused += pump.coordinator().stats().refused_resumes;
  }
  EXPECT_GT(refused, 0u) << "no cut left a snapshot ahead of the coordinator";
}

/// Runs a fork-based socket fleet of the real shells (the Coordinator's
/// poll loop, one SiteRuntime process per site) to completion.
Outcome RunSocketFleet(const ServiceOptions& options) {
  ForkedFleet fleet(options);
  fleet.StartAll();
  EXPECT_TRUE(fleet.RunToCompletion());
  Outcome out;
  out.journal = Ask(fleet.coordinator(), kQueryJournal).values;
  out.answers = Answers(fleet.coordinator(), options);
  const Coordinator::Stats& stats = fleet.coordinator().stats();
  out.paper = {stats.paper_messages, stats.paper_words, stats.broadcasts};
  return out;
}

TEST(FaultToleranceTest, FaultFreePumpMatchesAForkedSocketFleet) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  for (TrackerKind tracker :
       {TrackerKind::kCount, TrackerKind::kFrequency, TrackerKind::kRank}) {
    ServiceOptions options = StormFleet(tracker);
    options.total_arrivals = 20000;
    options.grant_max = 256;
    Outcome pump = Baseline(options);
    Outcome socket = RunSocketFleet(options);
    EXPECT_EQ(socket.journal, pump.journal) << TrackerKindName(tracker);
    EXPECT_EQ(socket.answers, pump.answers) << TrackerKindName(tracker);
    EXPECT_EQ(socket.paper, pump.paper) << TrackerKindName(tracker);
  }
}

}  // namespace
}  // namespace service
}  // namespace disttrack
