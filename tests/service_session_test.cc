// Coordinator + site processes end to end, in miniature: a steppable
// Coordinator and a real fork()ed SiteRuntime per site (service_fleet.h).
// Pins the service protocol proper: join handshake, grant admission,
// blocking broadcast decisions, queries over the wire, the §1.1 paper
// ledger reconciling with a serial CommMeter to the message, the
// wire-byte ledger (socket bytes == encoded frame bytes), hostile frames
// and SIGTERM.

#include <errno.h>

#include <memory>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "tests/service_fleet.h"

namespace disttrack {
namespace service {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;
using namespace fleet_test;  // NOLINT(build/namespaces)

std::vector<uint64_t> StatsVector(const Coordinator& coordinator) {
  return Ask(coordinator, kQueryStats).values;
}

/// Runs a lockstep count fleet to completion and pins it to the serial
/// replay of the coordinator's grant journal: same arrival order, same
/// per-site streams, so estimates and both ledgers must agree exactly.
/// Also pins the admission scheduler: the journal is the strict rotation,
/// grants did overlap, and the grants run alone (exclusive) are exactly
/// the ones whose serial replay broadcasts.
void ExpectLockstepCountMatchesSerial(const ServiceOptions& options) {
  ForkedFleet fleet(options);
  fleet.StartAll();
  ASSERT_TRUE(fleet.RunToCompletion());

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  EXPECT_EQ(journal.values, ExpectedRotation(options));
  const std::vector<Coordinator::GrantEntry>& grants =
      fleet.coordinator().journal();
  ASSERT_EQ(grants.size() * 2, journal.values.size());
  count::RandomizedCountTracker serial(options.CountOptions());
  uint64_t replayed = 0;
  uint64_t exclusive = 0;
  for (size_t g = 0; g < grants.size(); ++g) {
    uint64_t broadcasts = serial.meter().broadcast_count();
    for (uint64_t j = 0; j < grants[g].length; ++j) {
      serial.Arrive(grants[g].site);
      ++replayed;
    }
    bool broadcast = serial.meter().broadcast_count() != broadcasts;
    EXPECT_EQ(grants[g].exclusive, broadcast) << "grant " << g;
    if (grants[g].exclusive) ++exclusive;
  }
  EXPECT_EQ(replayed, options.total_arrivals);

  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  EXPECT_EQ(estimate.values[0], Bits(serial.EstimateCount()));
  EXPECT_GT(estimate.values[1], 0u);  // n' has advanced

  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  EXPECT_EQ(stats.broadcasts, serial.meter().broadcast_count());
  EXPECT_EQ(stats.exclusive_grants, exclusive);
  EXPECT_GT(stats.peak_grants_in_flight, 1u) << "no grants overlapped";
  EXPECT_LE(stats.peak_grants_in_flight,
            static_cast<uint64_t>(options.num_sites - 1))
      << "all k sites ran at once; the coordinator keeps one slot";

  // Wire-byte ledger: every socket byte is a frame byte, both ways.
  std::vector<uint64_t> s = StatsVector(fleet.coordinator());
  EXPECT_EQ(s[17], 1u) << "bytes_in=" << s[4] << " encoded_in=" << s[6]
                       << " bytes_out=" << s[5] << " encoded_out=" << s[7]
                       << " pending=" << s[8];

  fleet.ShutdownAndReap();
}

TEST(ServiceSession, LockstepCountFleetMatchesSerialBitForBit) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  ExpectLockstepCountMatchesSerial(options);
}

TEST(ServiceSession, BulkLockstepCountFleetMatchesSerialBitForBit) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Large enough for the site feed's bulk path to carry the run: at
  // ε = 0.01, 1/p = ⌊n̄/400⌋₂ climbs past 1000 as n nears 2M, so most of
  // each 2048-arrival grant is bulk-retired eventless stretches.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.epsilon = 0.01;
  options.total_arrivals = 2000000;
  options.grant_max = 2048;
  ExpectLockstepCountMatchesSerial(options);
}

TEST(ServiceSession, LockstepRankFleetMatchesSerialBitForBit) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Rank sites run their certified grants concurrently; the replica's
  // per-site instance lists make the interleaving invisible, so every
  // probe and the quantile search match the journal replay exactly.
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.num_sites = 4;
  options.epsilon = 0.01;
  options.total_arrivals = 400000;
  options.grant_max = 2048;
  ForkedFleet fleet(options);
  fleet.StartAll();
  ASSERT_TRUE(fleet.RunToCompletion());

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  EXPECT_EQ(journal.values, ExpectedRotation(options));
  rank::RandomizedRankTracker serial(options.RankOptions());
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  for (uint64_t i = 1; i < 8; ++i) {
    uint64_t value = options.universe / 8 * i;
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryRank, value).values[0],
              Bits(serial.EstimateRank(value)))
        << "rank probe at " << value;
  }
  uint64_t n_prime = Ask(fleet.coordinator(), kQueryCount).values[1];
  double target = 0.5 * static_cast<double>(n_prime);
  uint64_t lo = 0, hi = options.universe;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (serial.EstimateRank(mid) < target) lo = mid + 1;
    else hi = mid;
  }
  Message median = Ask(fleet.coordinator(), kQueryQuantile, Bits(0.5));
  EXPECT_EQ(median.values[0], lo);
  EXPECT_EQ(median.values[1], Bits(serial.EstimateRank(lo)));

  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  EXPECT_EQ(stats.broadcasts, serial.meter().broadcast_count());
  EXPECT_GT(stats.peak_grants_in_flight, 1u) << "no grants overlapped";
  EXPECT_LE(stats.peak_grants_in_flight, 3u) << "all four sites ran at once";
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, SameOptionsGiveTheSameJournalAndLedger) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Strict rotation makes the journal, and with it the whole paper
  // ledger, a function of the options alone: however the two fleets'
  // sites happen to be scheduled, they agree to the word.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.epsilon = 0.01;
  options.total_arrivals = 300000;
  options.grant_max = 2048;
  std::vector<uint64_t> ledgers[2];
  std::vector<uint64_t> journals[2];
  for (int run = 0; run < 2; ++run) {
    ForkedFleet fleet(options);
    // Join in opposite orders: the rotation must not care.
    for (int i = 0; i < options.num_sites; ++i) {
      fleet.StartSite(run == 0 ? i : options.num_sites - 1 - i);
    }
    ASSERT_TRUE(fleet.RunToCompletion());
    const Coordinator::Stats& stats = fleet.coordinator().stats();
    ledgers[run] = {stats.paper_messages, stats.paper_words,
                    stats.broadcasts, stats.exclusive_grants,
                    Ask(fleet.coordinator(), kQueryCount).values[0]};
    journals[run] = Ask(fleet.coordinator(), kQueryJournal).values;
    fleet.ShutdownAndReap();
  }
  EXPECT_EQ(journals[0], ExpectedRotation(options));
  EXPECT_EQ(journals[0], journals[1]);
  EXPECT_EQ(ledgers[0], ledgers[1]);
}

TEST(ServiceSession, FrequencyQueriesOverTheFleet) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kFrequency;
  options.num_sites = 4;
  options.total_arrivals = 8000;
  options.grant_max = 512;
  ForkedFleet fleet(options);
  fleet.StartAll();
  ASSERT_TRUE(fleet.RunToCompletion());

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  frequency::RandomizedFrequencyTracker serial(options.FrequencyOptions());
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  for (uint64_t item = 0; item < 16; ++item) {
    Message point = Ask(fleet.coordinator(), kQueryPoint, item);
    EXPECT_EQ(point.values[0], Bits(serial.EstimateFrequency(item)))
        << "hot item " << item;
  }
  // The skewed synthetic stream concentrates 3/4 of arrivals on 16 items:
  // all of them must surface as phi = 0.01 heavy hitters.
  Message hh = Ask(fleet.coordinator(), kQueryHeavyHitters, Bits(0.01));
  EXPECT_GE(hh.values.size() / 2, 8u);
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, FreerunFleetCompletesWithinEpsilon) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.mode = RunMode::kFreerun;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  ForkedFleet fleet(options);
  fleet.StartAll();
  ASSERT_TRUE(fleet.RunToCompletion());
  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  double est = 0;
  uint64_t bits = estimate.values[0];
  memcpy(&est, &bits, sizeof(est));
  double n = static_cast<double>(options.total_arrivals);
  EXPECT_NEAR(est, n, 0.10 * n) << "freerun far outside the ε guarantee";
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, MismatchedOptionsHashIsRejected) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.num_sites = 2;
  options.total_arrivals = 100;
  ForkedFleet fleet(options);
  // Site 0 joins with a different epsilon: kJoin carries the fleet hash
  // and the coordinator must turn it away (exit code 2).
  ServiceOptions wrong = options;
  wrong.epsilon = 0.2;
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    SiteRuntime::Config config;
    config.options = wrong;
    config.site = 0;
    config.connected_fd = fds[1];
    SiteRuntime runtime(config);
    _exit(runtime.Run());
  }
  close(fds[1]);
  fleet.coordinator().AdoptConnection(fds[0]);
  int status = 0;
  for (int i = 0; i < 20000; ++i) {
    if (waitpid(pid, &status, WNOHANG) == pid) break;
    fleet.coordinator().PollOnce(5);
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST(ServiceSession, SiteIsDoneOnlyAfterAckingEveryBroadcast) {
  // A site that has ended its stream still owes the corrections of every
  // broadcast it has not acked; the fleet must not read as done before
  // they land, or final answers race them. Driven by hand over raw
  // frames, so the ordering is exact.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 1;
  Coordinator coordinator(options);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  coordinator.AdoptConnection(fds[0]);
  auto send_up = [&](MsgType type, uint64_t seq, uint64_t a) {
    Message msg;
    msg.type = type;
    msg.site = 0;
    msg.a = a;
    if (type == MsgType::kJoin) msg.b = options.Hash();
    if (type == MsgType::kCoarseReport) msg.paper_words = 1;
    std::vector<uint8_t> frame;
    sim::wire::EncodeFrame(msg, seq, &frame);
    ASSERT_TRUE(WriteAll(fds[1], frame.data(), frame.size()));
    for (int i = 0; i < 5; ++i) coordinator.PollOnce(1);
  };
  send_up(MsgType::kJoin, 0, 0);
  send_up(MsgType::kHello, 0, 1);
  // The first coarse report always broadcasts.
  send_up(MsgType::kCoarseReport, 1, 1);
  ASSERT_EQ(coordinator.stats().broadcasts, 1u);
  send_up(MsgType::kGrantRequest, 2, 0);  // end of stream
  EXPECT_FALSE(coordinator.AllSitesDone());
  EXPECT_EQ(StatsVector(coordinator)[0], 0u);  // sites_done
  send_up(MsgType::kRitualAck, 3, 1);
  EXPECT_TRUE(coordinator.AllSitesDone());
  EXPECT_EQ(StatsVector(coordinator)[0], 1u);
  close(fds[1]);
}

TEST(ServiceSession, FrameNamingAnotherSiteClosesTheConnection) {
  // A joined site's CRC-valid report naming another site must not reach
  // the replica (it would overwrite that site's report slot, or index
  // out of range): the coordinator closes the connection instead.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 2;
  Coordinator coordinator(options);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  coordinator.AdoptConnection(fds[0]);
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
  Message report;
  report.type = MsgType::kCoinReport;
  report.site = 1;  // joined as site 0
  report.a = 12345;
  report.paper_words = 1;
  sim::wire::EncodeFrame(report, 1, &out);
  ASSERT_TRUE(WriteAll(fds[1], out.data(), out.size()));
  for (int i = 0; i < 5; ++i) coordinator.PollOnce(1);

  Message estimate = Ask(coordinator, kQueryCount);
  EXPECT_EQ(estimate.values[0], Bits(0.0)) << "the foreign report landed";
  EXPECT_EQ(coordinator.stats().paper_messages, 0u);
  // The coordinator hung up (what it had staged for the connection went
  // with it).
  SetNonBlocking(fds[1], true);
  uint8_t buf[4096];
  long n = 0;
  while ((n = ReadSome(fds[1], buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0) << "connection still open after a foreign-site frame";
  close(fds[1]);
}

/// A coordinator daemon in a child process, listening on `endpoint`;
/// returns RunUntilShutdown's exit code.
int RunCoordinatorDaemon(const ServiceOptions& options,
                         const Endpoint& endpoint) {
  Coordinator coordinator(options);
  std::string error;
  if (!coordinator.AddListener(endpoint, &error)) return 1;
  return coordinator.RunUntilShutdown();
}

TEST(ServiceSession, SigtermDrainsTheFleetAndExitsZero) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // SIGTERM takes the path of a client kShutdown: fan out, drain, exit 0.
  // A site exits 0 only on kShutdown (a dropped connection is exit 3).
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 3;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  char tmpl[] = "/tmp/disttrack_sigterm_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(Endpoint::Parse(std::string("unix:") + tmpl + "/coord.sock",
                              &endpoint, &error))
      << error;

  pid_t coordinator = fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) _exit(RunCoordinatorDaemon(options, endpoint));
  std::vector<pid_t> sites;
  for (int site = 0; site < options.num_sites; ++site) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      SiteRuntime::Config config;
      config.options = options;
      config.site = site;
      config.endpoint = endpoint;
      SiteRuntime runtime(config);
      _exit(runtime.Run());
    }
    sites.push_back(pid);
  }

  // A query client waits for every site to settle.
  int client = Dial(endpoint, 10000, &error);
  ASSERT_GE(client, 0) << error;
  FrameReader reader;
  uint64_t sites_done = 0;
  for (int attempt = 0; attempt < 2000 && sites_done < 3; ++attempt) {
    Message query;
    query.type = MsgType::kQuery;
    query.a = kQueryStats;
    std::vector<uint8_t> frame;
    sim::wire::EncodeFrame(query, 0, &frame);
    ASSERT_TRUE(WriteAll(client, frame.data(), frame.size()));
    Message answer;
    uint64_t seq = 0;
    while (reader.Next(&answer, &seq) != FrameReader::Result::kFrame) {
      uint8_t buf[4096];
      long n = ReadSome(client, buf, sizeof(buf));
      ASSERT_GT(n, 0) << "coordinator hung up on the client";
      reader.Append(buf, static_cast<size_t>(n));
    }
    sites_done = answer.values[0];
    if (sites_done < 3) usleep(5000);
  }
  ASSERT_EQ(sites_done, 3u);

  ASSERT_EQ(kill(coordinator, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(coordinator, &status, 0), coordinator);
  ASSERT_TRUE(WIFEXITED(status)) << "coordinator died by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  for (size_t site = 0; site < sites.size(); ++site) {
    ASSERT_EQ(waitpid(sites[site], &status, 0), sites[site]);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "site " << site
                                      << " did not see kShutdown";
  }
  close(client);
  unlink((std::string(tmpl) + "/coord.sock").c_str());
  rmdir(tmpl);
}

}  // namespace
}  // namespace service
}  // namespace disttrack
