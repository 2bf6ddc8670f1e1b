// The benchmark's workload catalogue and the per-run configuration.
// perfbench/README.md gives the reason each workload exists.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "disttrack/service/coordinator.h"
#include "disttrack/service/options.h"
#include "harness/bench_util.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool online;  ///< in-process OnlineKeyedSession instead of a fleet
  disttrack::service::TrackerKind tracker;
  disttrack::service::RunMode mode;
  int sites;
  uint64_t rep_arrivals;   ///< arrivals per repetition
  uint64_t tiny_arrivals;  ///< arrivals per repetition under --tiny
  uint64_t query_kind;     ///< service::QueryKind of the read traffic
  double query_phi;        ///< heavy-hitter / quantile parameter
  double query_rate_hz;    ///< open-loop query rate (fleet workloads)
  int threads;             ///< pool workers (online workload)
  uint64_t push_arrivals;  ///< arrivals per Push (online workload)
  int pushes_per_query;    ///< Sync + query cadence (online workload)
};

/// Returns the named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Every workload name, comma separated (usage text).
std::string WorkloadNames();

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  /// Self-test hook: perturbs one audit expectation, so a correct run
  /// must fail its audit.
  bool corrupt = false;
  std::string coordinator_bin;
  std::string site_bin;
  std::string workdir;  ///< sockets and span files (inside the checkout)

  uint64_t arrivals() const {
    return tiny ? spec->tiny_arrivals : spec->rep_arrivals;
  }
  /// Fleet/tracker options of repetition `rep` (its own derived seed).
  disttrack::service::ServiceOptions Options(int rep) const;
};

/// Runs the fleet workload; fills metrics for the requested view.
void RunFleet(const RunConfig& config, Metrics* metrics, Audit* audit);

/// Runs the in-process online workload.
void RunOnline(const RunConfig& config, Metrics* metrics, Audit* audit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
