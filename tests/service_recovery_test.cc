// Site kill + reconnect mid-run, test-pinned: a site hard-crashes
// (_exit(7), no flush, no goodbye) partway through its shard, a
// replacement process resumes — from its snapshot when one exists, from
// position zero otherwise — and the run must end indistinguishable from
// an uninterrupted one: estimates bit-identical to the serial replay of
// the grant journal, and the §1.1 paper ledger equal to the serial
// CommMeter to the message. That equality IS the no-double-counting
// proof: replayed frames re-arrive with their original sequence numbers
// and the coordinator's dedup watermark drops every one (the stats must
// show them as duplicates, not as paper traffic).
//
// Fork-based (service_fleet.h); skipped under TSan.

#include <errno.h>

#include <set>

#include "disttrack/count/randomized_count.h"
#include "disttrack/rank/randomized_rank.h"
#include "tests/service_fleet.h"

namespace disttrack {
namespace service {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;
using namespace fleet_test;  // NOLINT(build/namespaces)

ServiceOptions SmallCountFleet(uint64_t snapshot_every) {
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.snapshot_every = snapshot_every;
  return options;
}

/// Collects the shard indices of `site`'s event arrivals (those that emit
/// a coarse or coin report) in a serial replay; `*position` is the
/// replay's running index into that site's shard.
class EventIndexTap : public sim::wire::WireTap {
 public:
  EventIndexTap(int site, const uint64_t* position)
      : site_(site), position_(position) {}
  void OnMessage(Message&& msg) override {
    if (msg.site == site_ && (msg.type == MsgType::kCoarseReport ||
                              msg.type == MsgType::kCoinReport)) {
      events_.insert(*position_);
    }
  }
  bool IsEvent(uint64_t index) const { return events_.count(index) != 0; }

 private:
  int site_;
  const uint64_t* position_;
  std::set<uint64_t> events_;
};

/// Where the armed site's crash lands, and what RunCountCrash checks
/// about it on top of recovery.
enum class CrashPoint {
  kMidRun,  ///< inside a grant; the replacement regenerates frames
  /// Inside a grant, between two arrivals that report nothing in the
  /// serial replay: the site feed must split a bulk eventless stretch.
  kEventlessSplit,
  /// Inside a certified grant: while the site is down, every other site
  /// is granted past its outstanding run, then the rotation stalls at
  /// the crashed site's turn.
  kBesideCertifiedGrants,
  /// On a grant boundary, right after that boundary's snapshot: the
  /// snapshot covers every frame sent, so nothing is replayed.
  kAfterBoundarySnapshot,
};

/// Runs a 4-site count fleet with site 2 crashing after `crash_after`
/// arrivals, recovers it, and pins bit-identity + paper-ledger equality.
void RunCountCrash(const ServiceOptions& options, uint64_t crash_after,
                   CrashPoint point = CrashPoint::kMidRun) {
  ForkedFleet fleet(options, /*snapshots=*/true);
  for (int site = 0; site < 4; ++site) {
    fleet.StartSite(site, site == 2 ? crash_after : 0);
  }
  fleet.AwaitCrash(2);
  if (point == CrashPoint::kBesideCertifiedGrants) {
    const std::vector<Coordinator::GrantEntry>& grants =
        fleet.coordinator().journal();
    auto granted_past_crash = [&] {
      size_t after = 0;
      for (size_t g = grants.size(); g-- > 0 && grants[g].site != 2;) ++after;
      return after;
    };
    ASSERT_TRUE(fleet.PumpUntil([&] { return granted_past_crash() == 3; }));
    for (size_t g = grants.size() - 4; g < grants.size(); ++g) {
      EXPECT_FALSE(grants[g].exclusive) << "grant " << g;
    }
    for (int i = 0; i < 50; ++i) fleet.coordinator().PollOnce(5);
    EXPECT_EQ(granted_past_crash(), 3u) << "rotation passed the dead site";
  }
  fleet.StartSite(2);  // replacement: resumes from snapshot if present
  ASSERT_TRUE(fleet.RunToCompletion());

  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.rejoins, 1u);
  std::vector<uint64_t> s = Ask(fleet.coordinator(), kQueryStats).values;
  if (point == CrashPoint::kAfterBoundarySnapshot) {
    EXPECT_EQ(crash_after % options.grant_max, 0u);
    EXPECT_EQ(s[11], 0u) << "the snapshot should have covered every frame";
  } else {
    EXPECT_GE(s[11], 1u) << "recovery replay produced no duplicate frames";
  }
  EXPECT_EQ(s[17], 1u) << "wire-byte ledger broken after recovery";

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  count::RandomizedCountTracker serial(options.CountOptions());
  std::vector<uint64_t> position(4, 0);
  EventIndexTap events(2, &position[2]);
  serial.set_wire_tap(&events);
  uint64_t replayed = 0;
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site);
      ++position[static_cast<size_t>(site)];
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, options.total_arrivals)
      << "grant journal lost or double-granted arrivals across the crash";
  if (point == CrashPoint::kEventlessSplit) {
    EXPECT_NE(crash_after % options.grant_max, 0u);
    EXPECT_FALSE(events.IsEvent(crash_after - 1));
    EXPECT_FALSE(events.IsEvent(crash_after));
  }

  // No double counting, to the message and to the word: replayed frames
  // were deduplicated, never re-charged.
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  EXPECT_EQ(stats.broadcasts, serial.meter().broadcast_count());
  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  EXPECT_EQ(estimate.values[0], Bits(serial.EstimateCount()))
      << "estimate diverged from the serial replay after recovery";
  EXPECT_GT(estimate.values[1], 0u);  // n' advanced past the crash
}

TEST(ServiceRecovery, CrashBeforeFirstSnapshotReplaysFromZero) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Crash at 300 arrivals, snapshots every 512 (none taken yet): the
  // replacement replays the whole shard; dedup swallows the prefix.
  RunCountCrash(SmallCountFleet(/*snapshot_every=*/512), /*crash_after=*/300);
}

TEST(ServiceRecovery, CrashAfterSnapshotResumesFromIt) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Crash at 700 arrivals with a snapshot at the 512-boundary: the
  // replacement restores it and replays only the tail.
  RunCountCrash(SmallCountFleet(/*snapshot_every=*/256), /*crash_after=*/700);
}

TEST(ServiceRecovery, CrashInsideAnEventlessStretchSplitsTheRun) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // When site 2 reaches 70K arrivals, n̄ >= 70K and 1/p = ⌊n̄/80⌋₂ is at
  // least 512, so a grant of 2048 is mostly bulk-retired coin failures. The crash index is no multiple of the
  // grant and lands between two eventless arrivals: the site feed must
  // split that bulk stretch exactly, and the replacement resumes from a
  // mid-shard snapshot.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 400000;
  options.grant_max = 2048;
  options.snapshot_every = 16384;
  RunCountCrash(options, /*crash_after=*/70001, CrashPoint::kEventlessSplit);
}

TEST(ServiceRecovery, CrashRightAfterABoundarySnapshotLeavesNoGap) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Site 2 dies at 768 arrivals, a grant boundary, right after the
  // snapshot taken there. The grant's kGrantDone is staged to ride with
  // the next request, so the snapshot must flush it first: a snapshot
  // whose uplink cursor covers an unsent frame would leave a sequence
  // gap the coordinator waits on forever.
  RunCountCrash(SmallCountFleet(/*snapshot_every=*/256), /*crash_after=*/768,
                CrashPoint::kAfterBoundarySnapshot);
}

TEST(ServiceRecovery, CrashWhileOtherSitesHoldCertifiedGrants) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // At site 2's 50001st arrival every site is between 32768 and 65535
  // local arrivals, so no report can move n' and every grant there is
  // certified: sites 3, 0 and 1 are granted past the dead site's run,
  // which the replacement then finishes at its journal position.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 400000;
  options.grant_max = 2048;
  options.snapshot_every = 16384;
  RunCountCrash(options, /*crash_after=*/50001,
                CrashPoint::kBesideCertifiedGrants);
}

TEST(ServiceRecovery, RankSiteRecoversMidRun) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.snapshot_every = 256;
  ForkedFleet fleet(options, /*snapshots=*/true);
  for (int site = 0; site < 4; ++site) {
    fleet.StartSite(site, site == 1 ? 900 : 0);
  }
  fleet.AwaitCrash(1);
  fleet.StartSite(1);
  ASSERT_TRUE(fleet.RunToCompletion());

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  rank::RandomizedRankTracker serial(options.RankOptions());
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  for (int i = 1; i <= 4; ++i) {
    uint64_t value = options.universe / 5 * static_cast<uint64_t>(i);
    Message rank = Ask(fleet.coordinator(), kQueryRank, value);
    EXPECT_EQ(rank.values[0], Bits(serial.EstimateRank(value)))
        << "rank estimate at " << value << " diverged after recovery";
  }
  EXPECT_EQ(fleet.coordinator().stats().paper_messages,
            serial.meter().TotalMessages());
  EXPECT_EQ(fleet.coordinator().stats().paper_words,
            serial.meter().TotalWords());
}

// The coordinator under the default SIGPIPE action, as a daemon runs
// when nothing ignores the signal for it: a joined site stops reading
// while its decisions keep coming, so the coordinator's socket buffer
// fills and output stays pending in the connection; then the site dies.
// The next write must cost that connection, not the process. Exits 0 on
// success, nonzero when the setup could not reach the pending state.
void CoordinatorOutlivesSiteWithPendingOutput() {
  signal(SIGPIPE, SIG_DFL);
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 1;
  Coordinator coordinator(options);
  // Unsent output held in the coordinator's connections (stats slot 8).
  auto pending = [&] { return Ask(coordinator, kQueryStats).values[8]; };
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) _exit(2);
  int small = 4096;  // a small send buffer fills after a few hundred frames
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  coordinator.AdoptConnection(fds[0]);
  SetNonBlocking(fds[1], true);

  std::vector<uint8_t> out;
  Message join;
  join.type = MsgType::kJoin;
  join.site = 0;
  join.b = options.Hash();
  sim::wire::EncodeFrame(join, 0, &out);
  Message hello;
  hello.type = MsgType::kHello;
  hello.site = 0;
  hello.a = 1;
  sim::wire::EncodeFrame(hello, 0, &out);
  // Each coarse report draws a decision frame the site never reads.
  uint64_t seq = 0;
  for (int round = 0; round < 100000; ++round) {
    if (pending() > 0) break;
    for (int i = 0; i < 16; ++i) {
      Message report;
      report.type = MsgType::kCoarseReport;
      report.site = 0;
      report.a = 1;
      report.paper_words = 1;
      sim::wire::EncodeFrame(report, ++seq, &out);
    }
    ssize_t n = write(fds[1], out.data(), out.size());
    if (n > 0) out.erase(out.begin(), out.begin() + n);
    if (coordinator.PollOnce(0) < 0) _exit(3);
  }
  if (pending() == 0) _exit(4);

  close(fds[1]);  // the site dies with the coordinator's output pending
  for (int i = 0; i < 10 && pending() > 0; ++i) {
    if (coordinator.PollOnce(5) < 0) _exit(5);
  }
  // EPIPE / ECONNRESET closed the session and dropped its output.
  _exit(pending() == 0 ? 0 : 6);
}

TEST(ServiceRecovery, SiteDeathWithPendingOutputSparesTheCoordinator) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // A death-test child, so a SIGPIPE fails this test, not the binary.
  EXPECT_EXIT(CoordinatorOutlivesSiteWithPendingOutput(),
              ::testing::ExitedWithCode(0), "");
}

TEST(ServiceRecovery, WriteToADeadPeerFailsWithoutSigpipe) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  EXPECT_EXIT(
      {
        signal(SIGPIPE, SIG_DFL);
        int fds[2];
        if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) _exit(2);
        close(fds[1]);
        uint8_t byte = 0;
        bool ok = WriteAll(fds[0], &byte, 1);
        _exit(!ok && errno == EPIPE ? 0 : 3);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace service
}  // namespace disttrack
