// The site half of a tracker, as a kind-erased adapter over the three
// tracker classes' crash-replay seam.
//
// A site process hosts a real tracker but drives exactly one site of it,
// in crash-replay mode permanently: ReplayCrashArrive advances only
// site-local state (counters, RNG/skip streams, coarse thresholds) and
// re-emits every protocol frame through the wire tap, while every
// coordinator-side effect (n', rounds, meter, estimator aggregates) is
// suppressed — those live in the coordinator's replicas (sim/replica.h).
// Arrivals come in granted runs (ArriveRun): count retires the eventless
// stretches between coin successes and coarse reports in bulk, keyed
// trackers run one ReplayCrashArrive per arrival. Round rituals arrive
// from outside as ApplyRitual calls, either mid-arrival (from inside the
// tap, for the site's own triggering report — the trackers emit the
// coarse report *before* consuming any p-dependent randomness, so a
// reentrant ritual lands at the exact program point the serial execution
// performs it) or between runs (another site triggered the round).
//
// Replaying a site is also how a crashed site catches up after restoring
// its snapshot, which is what makes the distributed execution comparable
// to the serial tracker bit for bit, crashes included (the pump storms of
// tests/fault_tolerance_test.cc, the service demo and tests/service_*.cc
// prove it on the service code).

#ifndef DISTTRACK_SERVICE_SITE_HALF_H_
#define DISTTRACK_SERVICE_SITE_HALF_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "disttrack/service/options.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class SiteHalf {
 public:
  /// Builds the tracker for options.tracker and enters permanent replay
  /// mode for `site`.
  static std::unique_ptr<SiteHalf> Create(const ServiceOptions& options,
                                          int site);
  virtual ~SiteHalf() = default;

  /// Installs the frame sink. Every protocol message of this site is
  /// delivered to the tap at its §1.1 send instant, including frames
  /// emitted from inside ApplyRitual (thinning corrections).
  virtual void set_wire_tap(sim::wire::WireTap* tap) = 0;

  /// Absorbs one granted run: arrivals first_index .. first_index +
  /// count - 1 of this site's shard, in order (keyed trackers draw their
  /// items / values from WorkloadKey; count ignores keys). `stop` is
  /// polled at least after every arrival that reached the wire tap, the
  /// only place it can change; the run ends after the first polled
  /// arrival for which it returns true. Returns the arrivals absorbed.
  virtual uint64_t ArriveRun(uint64_t first_index, uint64_t count,
                             const std::function<bool()>& stop) = 0;

  /// Per-site half of the round ritual for a broadcast carrying n̄.
  /// Callable between arrivals or reentrantly from the tap's
  /// kCoarseReport delivery (see header comment).
  virtual void ApplyRitual(uint64_t n_bar) = 0;

  virtual bool SnapshotReady() const = 0;
  virtual void Serialize(std::vector<uint64_t>* out) const = 0;
  virtual void Restore(const std::vector<uint64_t>& blob) = 0;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_HALF_H_
