// The service protocol cores under the in-process pump, beyond the fault
// storms of fault_tolerance_test.cc:
//
//   * a seeded structural fuzzer: CRC-valid frames with bad semantics —
//     data before the join, second joins, foreign and out-of-range site
//     ids, types the fleet never sends, sequence gaps, impossible rank
//     leaf ranges and segments, oversized vectors — each must close its
//     connection at once, and the fleet around them must still finish
//     bit-identical to the serial replay of its journal;
//   * freerun count fleets (tier C) end within the paper's ε·n over 20
//     seeded service orders. (Rank and frequency freerun are not pinned:
//     their replicas mis-attribute frames of a closed round; ROADMAP
//     item 1.)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/fleet_pump.h"
#include "disttrack/service/options.h"
#include "disttrack/sim/wire.h"
#include "tests/service_fleet.h"

namespace disttrack {
namespace service {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;
using namespace fleet_test;  // NOLINT(build/namespaces)

/// Feeds `frames` to `conn` and reports whether the coordinator wants the
/// connection closed.
bool ClosesConnection(CoordinatorCore* coordinator, int conn,
                      const std::vector<Message>& frames, uint64_t seq) {
  std::vector<uint8_t> bytes;
  for (const Message& msg : frames) sim::wire::EncodeFrame(msg, seq, &bytes);
  coordinator->Receive(conn, bytes.data(), bytes.size());
  return coordinator->WantsClose(conn);
}

/// The answers a fuzzed fleet must keep: the count estimate, or the rank
/// estimates at seven probes plus the median.
std::vector<uint64_t> Answers(const CoordinatorCore& coordinator,
                              const ServiceOptions& options) {
  if (options.tracker == TrackerKind::kCount) {
    return {Ask(coordinator, kQueryCount).values[0]};
  }
  std::vector<uint64_t> out;
  for (uint64_t i = 1; i < 8; ++i) {
    out.push_back(
        Ask(coordinator, kQueryRank, options.universe / 8 * i).values[0]);
  }
  Message median = Ask(coordinator, kQueryQuantile, Bits(0.5));
  out.insert(out.end(), median.values.begin(), median.values.end());
  return out;
}

/// The same answers from a serial tracker replaying the grant journal.
std::vector<uint64_t> SerialAnswers(const CoordinatorCore& coordinator,
                                    const ServiceOptions& options) {
  std::vector<uint64_t> journal = Ask(coordinator, kQueryJournal).values;
  std::vector<uint64_t> position(static_cast<size_t>(options.num_sites), 0);
  if (options.tracker == TrackerKind::kCount) {
    count::RandomizedCountTracker serial(options.CountOptions());
    for (size_t i = 0; i + 1 < journal.size(); i += 2) {
      for (uint64_t j = 0; j < journal[i + 1]; ++j) {
        serial.Arrive(static_cast<int>(journal[i]));
      }
    }
    return {Bits(serial.EstimateCount())};
  }
  rank::RandomizedRankTracker serial(options.RankOptions());
  for (size_t i = 0; i + 1 < journal.size(); i += 2) {
    int site = static_cast<int>(journal[i]);
    for (uint64_t j = 0; j < journal[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  std::vector<uint64_t> out;
  for (uint64_t i = 1; i < 8; ++i) {
    out.push_back(Bits(serial.EstimateRank(options.universe / 8 * i)));
  }
  double target =
      0.5 * static_cast<double>(Ask(coordinator, kQueryCount).values[1]);
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

// --- The fuzzer -----------------------------------------------------------

enum class Hostility {
  kDataBeforeJoin,
  kSecondJoin,
  kHelloBeforeJoin,
  kForeignSite,
  kSiteOutOfRange,
  kForeignTrackerType,
  kDownlinkType,
  kJoinWhileJoined,
  kSequenceGap,
  kEmptyLeafRange,
  kLeavesPastTheChunk,
  kSegmentsPastValues,
  kSegmentsOutOfOrder,
  kOversizedValues,
  kOversizedSegments,
  kCount,
};

bool NeedsSession(Hostility h) {
  return h != Hostility::kDataBeforeJoin && h != Hostility::kSecondJoin &&
         h != Hostility::kHelloBeforeJoin;
}

bool RankOnly(Hostility h) { return h >= Hostility::kEmptyLeafRange; }

/// A rank summary that is well formed apart from what `h` breaks.
Message RankSummary(int site, Hostility h, Rng* rng) {
  Message msg;
  msg.type = MsgType::kRankSummary;
  msg.site = site;
  msg.a = 0;
  msg.b = 1;
  msg.values = {1, 5, 9};
  msg.segments = {{1, 2}, {2, 3}};
  switch (h) {
    case Hostility::kEmptyLeafRange:
      msg.a = rng->UniformU64(1000);
      msg.b = msg.a - rng->UniformU64(2) * std::min<uint64_t>(msg.a, 1);
      break;
    case Hostility::kLeavesPastTheChunk:
      msg.b = (uint64_t{1} << 31) + rng->UniformU64(1 << 20);
      break;
    case Hostility::kSegmentsPastValues:
      msg.segments.back().second = 4 + static_cast<uint32_t>(
                                           rng->UniformU64(1u << 30));
      break;
    case Hostility::kSegmentsOutOfOrder:
      msg.segments = {{1, 3}, {2, 1}, {4, 3}};
      break;
    case Hostility::kOversizedValues:
      msg.values.assign(20000, 7);  // more than any chunk has arrivals
      msg.segments = {{1, 20000}};
      break;
    case Hostility::kOversizedSegments:
      msg.values.assign(100, 7);
      msg.segments.clear();
      for (uint32_t i = 1; i <= 100; ++i) msg.segments.emplace_back(1, i);
      break;
    default:
      break;
  }
  return msg;
}

/// One hostile connection in the running fleet. Attacks that need a
/// joined session first cut a real site and take its session over, the
/// way an impostor would race a crashed site's comeback; the site
/// resumes from its snapshot afterwards.
void Attack(FleetPump* pump, const ServiceOptions& options, Hostility h,
            Rng* rng) {
  CoordinatorCore* coordinator = &pump->coordinator();
  const int k = options.num_sites;
  int site = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(k)));
  int conn = pump->Connect();
  Message join;
  join.type = MsgType::kJoin;
  join.site = site;
  join.b = options.Hash();
  Message hello;
  hello.type = MsgType::kHello;
  hello.site = site;
  hello.a = 1;
  MsgType data = options.tracker == TrackerKind::kCount
                     ? MsgType::kCoinReport
                     : MsgType::kRankResidual;
  Message bad;
  bad.type = data;
  bad.site = site;
  bad.a = rng->NextU64();
  bad.paper_words = 1;
  uint64_t seq = 1;

  if (NeedsSession(h)) {
    pump->CutSite(site, /*delay=*/2);
    ASSERT_FALSE(ClosesConnection(coordinator, conn, {join, hello}, 0))
        << "the takeover join was refused";
  }
  const char* what = "";
  switch (h) {
    case Hostility::kDataBeforeJoin: {
      what = "data before the join";
      static const MsgType kTypes[] = {
          MsgType::kCoarseReport, MsgType::kCoinReport,
          MsgType::kRankSummary,  MsgType::kGrantRequest,
          MsgType::kGrantDone,    MsgType::kRitualAck,
          MsgType::kGrant,        MsgType::kBroadcast,
          MsgType::kQueryResult,  MsgType::kNoBroadcast};
      bad.type = kTypes[rng->UniformU64(sizeof(kTypes) / sizeof(kTypes[0]))];
      break;
    }
    case Hostility::kSecondJoin:
      what = "a second kJoin before the hello";
      bad = join;
      ASSERT_FALSE(ClosesConnection(coordinator, conn, {join}, 0));
      seq = 0;
      break;
    case Hostility::kHelloBeforeJoin:
      what = "a kHello without a kJoin";
      bad = hello;
      seq = 0;
      break;
    case Hostility::kForeignSite:
      what = "a frame naming another site";
      bad.site = (site + 1 + static_cast<int>(rng->UniformU64(
                                 static_cast<uint64_t>(k - 1)))) % k;
      break;
    case Hostility::kSiteOutOfRange: {
      what = "a frame naming a site out of range";
      const int32_t kSites[] = {-1, k, 1 << 28, INT32_MIN};
      bad.site = kSites[rng->UniformU64(4)];
      break;
    }
    case Hostility::kForeignTrackerType:
      what = "a data type this fleet's tracker never emits";
      bad.type = options.tracker == TrackerKind::kCount
                     ? MsgType::kCounterReport
                     : MsgType::kCoinReport;
      break;
    case Hostility::kDownlinkType: {
      what = "a coordinator-only type from a site";
      const MsgType kTypes[] = {MsgType::kGrant, MsgType::kBroadcast,
                                MsgType::kJoinAck, MsgType::kNoBroadcast,
                                MsgType::kQuery, MsgType::kShutdown};
      bad.type = kTypes[rng->UniformU64(6)];
      break;
    }
    case Hostility::kJoinWhileJoined:
      what = "a kJoin on a joined session";
      bad = join;
      seq = 0;
      break;
    case Hostility::kSequenceGap:
      what = "a sequence gap";
      seq = (uint64_t{1} << 40) + rng->UniformU64(1000);
      break;
    default:
      what = "a malformed rank summary";
      bad = RankSummary(site, h, rng);
      seq = uint64_t{1} << 50;  // judged before the sequence check
      break;
  }
  uint64_t rejected = coordinator->stats().rejected;
  EXPECT_TRUE(ClosesConnection(coordinator, conn, {bad}, seq))
      << what << " (type " << static_cast<int>(bad.type) << ", site "
      << bad.site << ")";
  EXPECT_EQ(coordinator->stats().rejected, rejected + 1) << what;
  // A latched connection reads nothing more.
  Message query;
  query.type = MsgType::kQuery;
  query.a = kQueryCount;
  EXPECT_EQ(coordinator->Receive(conn, nullptr, 0), 0);
  EXPECT_TRUE(ClosesConnection(coordinator, conn, {query}, 0));
  const uint8_t* staged = nullptr;
  EXPECT_EQ(coordinator->Staged(conn, &staged), 0u) << what;
  coordinator->Closed(conn);
}

void FuzzFleet(TrackerKind tracker, uint64_t seed) {
  ServiceOptions options;
  options.tracker = tracker;
  options.num_sites = 4;
  options.epsilon = 0.2;
  options.total_arrivals = 16000;
  options.grant_max = 64;
  options.snapshot_every = 128;

  FleetPump clean(options);
  std::string error;
  ASSERT_TRUE(clean.Run(&error)) << error;
  std::vector<uint64_t> base = Answers(clean.coordinator(), options);
  ASSERT_EQ(base, SerialAnswers(clean.coordinator(), options));

  FleetPump pump(options);
  Rng rng(seed);
  int attacks = 0;
  for (int round = 0; round < 1000000; ++round) {
    if (pump.coordinator().AllSitesDone()) break;
    if (round > 0) {
      auto h = static_cast<Hostility>(
          rng.UniformU64(static_cast<uint64_t>(Hostility::kCount)));
      if (RankOnly(h) && tracker != TrackerKind::kRank) {
        h = Hostility::kForeignSite;
      }
      Attack(&pump, options, h, &rng);
      if (::testing::Test::HasFatalFailure()) return;
      ++attacks;
    }
    ASSERT_TRUE(pump.Step()) << "fleet stalled: " << pump.error();
    ASSERT_TRUE(pump.error().empty()) << pump.error();
  }
  ASSERT_TRUE(pump.coordinator().AllSitesDone());
  EXPECT_GE(attacks, 50);
  EXPECT_EQ(pump.coordinator().stats().rejected,
            static_cast<uint64_t>(attacks));
  EXPECT_EQ(Answers(pump.coordinator(), options), base);
  EXPECT_EQ(Ask(pump.coordinator(), kQueryJournal).values,
            Ask(clean.coordinator(), kQueryJournal).values);
  EXPECT_EQ(pump.coordinator().stats().paper_words,
            clean.coordinator().stats().paper_words);
}

TEST(ServicePump, HostileFramesCloseTheirConnectionCountFleet) {
  FuzzFleet(TrackerKind::kCount, 11);
}

TEST(ServicePump, HostileFramesCloseTheirConnectionRankFleet) {
  FuzzFleet(TrackerKind::kRank, 13);
}

TEST(ServicePump, FrameAnnouncingAHugePayloadClosesAtOnce) {
  // A header announcing a gigabyte must not make the coordinator buffer
  // toward it.
  ServiceOptions options;
  CoordinatorCore coordinator(options);
  coordinator.Open(0);
  Message msg;
  msg.type = MsgType::kRankSummary;
  msg.values.assign(4, 1);
  std::vector<uint8_t> bytes;
  sim::wire::EncodeFrame(msg, 1, &bytes);
  uint32_t huge = 1u << 30;
  memcpy(bytes.data() + sim::wire::kHeaderBytes - 4, &huge, sizeof(huge));
  coordinator.Receive(0, bytes.data(), sim::wire::kHeaderBytes);
  EXPECT_TRUE(coordinator.WantsClose(0));
}

// --- Freerun (tier C) -----------------------------------------------------

TEST(ServicePump, FreerunCountStaysWithinEpsilon) {
  // Each site runs one grant per turn, so broadcasts reach the others
  // while they hold grants of the closed round, as in a concurrent fleet.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ServiceOptions options;
    options.tracker = TrackerKind::kCount;
    options.mode = RunMode::kFreerun;
    options.num_sites = 4;
    options.epsilon = 0.05;
    options.seed = seed;
    options.total_arrivals = 40000;
    options.grant_max = 256;
    StormPlan plan;
    plan.seed = seed;
    plan.shuffle = true;
    plan.fragment = true;
    FleetPump pump(options, plan);
    std::string error;
    ASSERT_TRUE(pump.Run(&error)) << error;
    const double n = static_cast<double>(options.total_arrivals);
    double est = Double(Ask(pump.coordinator(), kQueryCount).values[0]);
    EXPECT_LE(std::fabs(est - n), options.epsilon * n) << "seed " << seed;
  }
}

}  // namespace
}  // namespace service
}  // namespace disttrack
