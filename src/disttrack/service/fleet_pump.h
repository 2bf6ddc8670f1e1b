// A whole fleet in one thread: k SiteCores and one CoordinatorCore — the
// same protocol code the daemons run — wired by in-process byte streams.
//
// The pump services the sites in rounds. Servicing a site hands it the
// bytes the coordinator has staged for it and advances it as far as they
// allow; everything the site writes goes straight into the coordinator.
// A site's coarse report waits on its Link, and the coordinator decides
// on the report alone, so no other site needs to run meanwhile. A turn
// covers only what the coordinator staged for the site before it:
// concurrently granted sites run their grants one after another in the
// round's order, and a freerun site runs one grant per turn, so
// broadcasts reach sites that hold grants of the closed round, as in a
// concurrent fleet.
//
// A StormPlan injects the faults a TCP fleet can actually suffer, all
// drawn from one seed (common/random.h):
//
//   * a stream cut at a byte offset, in either direction: the receiver
//     gets the bytes before the offset, then the connection is dead both
//     ways. The site restarts from its last snapshot and rejoins on a new
//     connection, the daemon's only recovery path;
//   * site crashes at given arrival counts of an incarnation (the
//     daemon's --crash-after), back to back on one site included;
//   * random read fragmentation: each side receives the other's bytes in
//     random pieces;
//   * a random service order every round, so concurrently granted sites
//     run their grants in seeded orders;
//   * a random delay, in rounds, before a dead site comes back.
//
// Snapshots live in memory. Everything is deterministic from (options,
// plan): equal inputs, equal runs.

#ifndef DISTTRACK_SERVICE_FLEET_PUMP_H_
#define DISTTRACK_SERVICE_FLEET_PUMP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/common/random.h"
#include "disttrack/service/coordinator_core.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_core.h"

namespace disttrack {
namespace service {

struct StormPlan {
  uint64_t seed = 0;      ///< seeds every random choice below
  bool shuffle = false;   ///< random site order every round
  bool fragment = false;  ///< deliver bytes in random pieces
  uint64_t max_restart_delay = 0;  ///< rounds a dead site waits, at most

  struct Cut {
    int site = 0;
    bool downlink = false;  ///< coordinator -> site (else site -> coordinator)
    uint64_t offset = 0;    ///< bytes the site's streams carried in that
                            ///< direction so far, over all connections
  };
  std::vector<Cut> cuts;

  /// The n-th crash listed for a site arms the n-th incarnation of that
  /// site to halt after `after` arrivals (SiteCore::Config::halt_after).
  struct Crash {
    int site = 0;
    uint64_t after = 0;
  };
  std::vector<Crash> crashes;

  /// A storm for `options`: shuffled and fragmented, one or two crashes
  /// (the first early enough in its site's shard to always fire, some
  /// back to back), and up to three cuts in either direction.
  static StormPlan FromSeed(uint64_t seed, const ServiceOptions& options);
};

class FleetPump {
 public:
  struct Report {
    uint64_t crashes = 0;         ///< incarnations halted by the plan
    uint64_t cuts = 0;            ///< streams cut
    uint64_t cuts_mid_frame = 0;  ///< cuts that split a frame
  };

  FleetPump(const ServiceOptions& options, const StormPlan& plan);
  explicit FleetPump(const ServiceOptions& options)
      : FleetPump(options, StormPlan()) {}
  ~FleetPump();

  FleetPump(const FleetPump&) = delete;
  FleetPump& operator=(const FleetPump&) = delete;

  /// Services every site once (starting the ones not yet running).
  /// False once nothing can move any more: no byte crossed, no site
  /// advanced and no dead site is waiting to come back.
  bool Step();

  /// Steps until every site is settled, then shuts the fleet down: fans
  /// kShutdown out and steps until every site has seen it. False (with
  /// *error) on a stall or a site failure no fault explains.
  bool Run(std::string* error);

  CoordinatorCore& coordinator() { return coordinator_; }
  const Report& report() const { return report_; }
  /// The first unexplained failure, empty while there is none.
  const std::string& error() const { return error_; }

  /// Opens a coordinator connection that no site owns (query clients,
  /// the fuzzer); write to it with coordinator().Receive.
  int Connect();

  /// Cuts `site`'s live stream now; the site restarts after `delay`
  /// rounds.
  void CutSite(int site, uint64_t delay);

 private:
  struct Slot;
  class PumpLink;
  class MemoryStore;

  void Service(int site);
  void StartIncarnation(int site);
  /// Moves the coordinator's staged bytes for `site` into its in-flight
  /// downlink queue, applying a downlink cut.
  void TakeDown(int site);
  bool SendUp(int site, const std::vector<uint8_t>& bytes);
  bool AwaitDown(int site, FrameReader* reader);
  void Cut(int site, bool mid_frame);
  void Kill(int site);
  size_t FragmentSize(size_t left);
  void Fail(const std::string& what);

  ServiceOptions options_;
  StormPlan plan_;
  Rng rng_;
  CoordinatorCore coordinator_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<int> order_;
  int next_conn_ = 0;
  bool moved_ = false;  ///< this round made progress
  uint64_t rounds_ = 0;
  Report report_;
  std::string error_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_FLEET_PUMP_H_
