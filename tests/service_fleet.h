// Shared by the service suites: a fleet of fork()ed SiteRuntime
// processes, each on one end of a socketpair, wired to a steppable
// in-process Coordinator (AdoptConnection + PollOnce — no listener, no
// daemon loop), plus query and journal helpers.
//
// Fork-without-exec is deliberate (no binary paths to plumb); the
// fork-based tests skip themselves under TSan, which cannot follow
// multiprocess tests.

#ifndef DISTTRACK_TESTS_SERVICE_FLEET_H_
#define DISTTRACK_TESTS_SERVICE_FLEET_H_

#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/service/coordinator.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_runtime.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/wire.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DISTTRACK_TSAN 1
#endif
#endif

#ifndef DISTTRACK_TSAN
#define DISTTRACK_TSAN 0
#endif

namespace disttrack {
namespace service {
namespace fleet_test {

inline uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double Double(uint64_t bits) {
  double d = 0;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

/// A query to a Coordinator or a CoordinatorCore.
template <typename Coord>
sim::wire::Message Ask(const Coord& coordinator, uint64_t kind,
                       uint64_t b = 0) {
  sim::wire::Message query;
  query.type = sim::wire::MsgType::kQuery;
  query.a = kind;
  query.b = b;
  return coordinator.Query(query);
}

/// The lockstep journal as a pure function of the options: strict site
/// rotation, each grant min(grant_max, what is left of the site's shard),
/// as site/length pairs (the kQueryJournal layout).
inline std::vector<uint64_t> ExpectedRotation(const ServiceOptions& options) {
  std::vector<uint64_t> left;
  for (int site = 0; site < options.num_sites; ++site) {
    left.push_back(ShardSize(options, site));
  }
  std::vector<uint64_t> journal;
  for (bool any = true; any;) {
    any = false;
    for (size_t site = 0; site < left.size(); ++site) {
      if (left[site] == 0) continue;
      uint64_t length = std::min(left[site], options.grant_max);
      journal.push_back(site);
      journal.push_back(length);
      left[site] -= length;
      any = true;
    }
  }
  return journal;
}

class ForkedFleet {
 public:
  /// `snapshots`: the sites snapshot into a fresh temporary directory.
  explicit ForkedFleet(const ServiceOptions& options, bool snapshots = false)
      : options_(options), coordinator_(options) {
    if (snapshots) {
      char tmpl[] = "/tmp/disttrack_fleet_XXXXXX";
      const char* dir = mkdtemp(tmpl);
      EXPECT_NE(dir, nullptr);
      snapshot_dir_ = dir == nullptr ? "." : dir;
    }
  }

  ~ForkedFleet() {
    for (pid_t pid : pids_) {
      if (pid > 0) kill(pid, SIGKILL);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) waitpid(pid, nullptr, 0);
    }
  }

  /// Forks one site; the child never returns. `crash_after` plumbs into
  /// SiteRuntime::Config (exit 7 after that many arrivals).
  void StartSite(int site, uint64_t crash_after = 0) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // The child owns fds[1] only: close the parent end plus every fd
      // inherited from earlier sites, or their EOFs would never fire.
      close(fds[0]);
      for (int fd : parent_fds_) close(fd);
      SiteRuntime::Config config;
      config.options = options_;
      config.site = site;
      config.snapshot_dir = snapshot_dir_;
      config.crash_after = crash_after;
      config.connected_fd = fds[1];
      SiteRuntime runtime(config);
      _exit(runtime.Run());
    }
    close(fds[1]);
    parent_fds_.push_back(fds[0]);
    coordinator_.AdoptConnection(fds[0]);
    if (static_cast<size_t>(site) >= pids_.size()) {
      pids_.resize(static_cast<size_t>(site) + 1, -1);
    }
    pids_[static_cast<size_t>(site)] = pid;
  }

  void StartAll() {
    for (int site = 0; site < options_.num_sites; ++site) StartSite(site);
  }

  /// Pumps the event loop until `done()` or the deadline trips.
  template <typename Predicate>
  bool PumpUntil(Predicate done, int max_rounds = 200000) {
    for (int i = 0; i < max_rounds; ++i) {
      if (done()) return true;
      EXPECT_GE(coordinator_.PollOnce(5), 0);
    }
    return done();
  }

  bool RunToCompletion() {
    return PumpUntil([&] { return coordinator_.AllSitesDone(); });
  }

  /// Waits for `site`'s process to exit; returns its exit code (pumping
  /// the coordinator so the fleet keeps making progress meanwhile), -2
  /// if it never exits.
  int AwaitExit(int site) {
    pid_t pid = pids_[static_cast<size_t>(site)];
    int status = 0;
    for (int i = 0; i < 20000; ++i) {
      if (waitpid(pid, &status, WNOHANG) == pid) {
        pids_[static_cast<size_t>(site)] = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      coordinator_.PollOnce(5);
    }
    return -2;
  }

  /// Waits for the crash-armed site to die with the crash code, then
  /// drains its EOF so the session is down before a replacement joins.
  void AwaitCrash(int site) {
    ASSERT_EQ(AwaitExit(site), 7) << "armed site never crashed";
    for (int i = 0; i < 50; ++i) coordinator_.PollOnce(5);
  }

  void ShutdownAndReap() {
    // A client connection delivers kShutdown, like the real daemon.
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    coordinator_.AdoptConnection(fds[0]);
    parent_fds_.push_back(fds[0]);
    sim::wire::Message bye;
    bye.type = sim::wire::MsgType::kShutdown;
    std::vector<uint8_t> frame;
    sim::wire::EncodeFrame(bye, 0, &frame);
    ASSERT_TRUE(WriteAll(fds[1], frame.data(), frame.size()));
    close(fds[1]);
    ASSERT_TRUE(PumpUntil([&] { return coordinator_.ShutdownComplete(); }));
    for (size_t site = 0; site < pids_.size(); ++site) {
      if (pids_[site] < 0) continue;
      EXPECT_EQ(AwaitExit(static_cast<int>(site)), 0) << "site " << site;
    }
  }

  Coordinator& coordinator() { return coordinator_; }

 private:
  ServiceOptions options_;
  Coordinator coordinator_;
  std::string snapshot_dir_;
  std::vector<int> parent_fds_;
  std::vector<pid_t> pids_;
};

}  // namespace fleet_test
}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_TESTS_SERVICE_FLEET_H_
