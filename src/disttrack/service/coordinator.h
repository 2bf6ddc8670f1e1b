// The coordinator daemon's I/O shell: listeners, accept, non-blocking
// reads and writes, and one poll() event loop around a CoordinatorCore
// (coordinator_core.h), which holds every protocol decision.
//
// Event loop contract: the loop never blocks on any one connection —
// reads are non-blocking and handed to the core as they come, writes
// drain the core's staged bytes on POLLOUT, and a connection whose unsent
// output exceeds the backpressure cap simply stops being read until it
// drains. A site parked on a broadcast decision is unblocked by the
// ordinary write path; the coordinator never needs to wait for it.
//
// Shutdown: a client's kShutdown, or SIGTERM / SIGINT while
// RunUntilShutdown runs (a self-pipe in the poll set), fans kShutdown out
// to every site; the loop then drains and exits once every site
// connection has closed.

#ifndef DISTTRACK_SERVICE_COORDINATOR_H_
#define DISTTRACK_SERVICE_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/service/coordinator_core.h"
#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class Coordinator {
 public:
  using Stats = CoordinatorCore::Stats;
  using GrantEntry = CoordinatorCore::GrantEntry;

  explicit Coordinator(const ServiceOptions& options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  bool AddListener(const Endpoint& endpoint, std::string* error);

  /// Takes ownership of an already-connected socket (tests connect a
  /// socketpair end; the daemon main only uses listeners).
  void AdoptConnection(int fd);

  /// One poll() round: accept, read, frame, handle, write. Returns the
  /// number of frames handled, or -1 on poll failure.
  int PollOnce(int timeout_ms);

  /// Daemon main loop: poll until a client kShutdown or a SIGTERM /
  /// SIGINT has been fanned out and every site connection has drained
  /// and closed.
  int RunUntilShutdown();

  bool ShutdownComplete() const { return core_.ShutdownComplete(); }
  bool AllSitesDone() const { return core_.AllSitesDone(); }
  const Stats& stats() const { return core_.stats(); }
  const std::vector<GrantEntry>& journal() const { return core_.journal(); }

  /// Answers a query in-process (same code path as the wire API).
  sim::wire::Message Query(const sim::wire::Message& query) const {
    return core_.Query(query);
  }

 private:
  struct Conn {
    int fd = -1;
    bool closed = false;
  };

  void TryWrite(Conn* conn);
  void Close(Conn* conn);

  CoordinatorCore core_;
  std::vector<int> listeners_;
  std::vector<Conn> conns_;  ///< the fd is the connection's core id
  int signal_fd_ = -1;       ///< self-pipe read end in RunUntilShutdown
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_COORDINATOR_H_
