// The site process's I/O shell: dials the coordinator, moves bytes
// between the socket and a SiteCore (site_core.h), which holds every
// protocol decision, and keeps the snapshot files.
//
// The socket is blocking: a site has exactly one thing to wait for at a
// time, and the core says what (a grant, a coarse-report decision, or,
// after its stream ends, other sites' rituals until kShutdown). The
// shell reads whenever the core can go no further, and the core's Link
// writes and reads the same socket.
//
// --crash-after hard-crashes the process (_exit(7): no flush, no
// snapshot, no goodbye) once the core halts at that arrival count; the
// recovery tests and the demo use it.

#ifndef DISTTRACK_SERVICE_SITE_RUNTIME_H_
#define DISTTRACK_SERVICE_SITE_RUNTIME_H_

#include <cstdint>
#include <string>

#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"

namespace disttrack {
namespace service {

class SiteRuntime {
 public:
  struct Config {
    ServiceOptions options;
    int site = 0;
    Endpoint endpoint;
    std::string snapshot_dir;  ///< empty = snapshots off
    uint64_t crash_after = 0;  ///< _exit(7) after this many arrivals in
                               ///< this process (0 = never); simulates a
                               ///< hard crash for the recovery tests. On
                               ///< a run boundary it fires after that
                               ///< boundary's snapshot, before the next
                               ///< grant request
    int connected_fd = -1;     ///< already-connected socket to use instead
                               ///< of dialing `endpoint` (fork-based tests)
  };

  explicit SiteRuntime(const Config& config) : config_(config) {}

  /// Runs the site to completion. Exit codes: 0 orderly shutdown,
  /// 2 join rejected by the coordinator, 3 transport failure.
  int Run();

 private:
  Config config_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_RUNTIME_H_
