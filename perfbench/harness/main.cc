// perfbench_harness: runs one named workload once for a given seed,
// audits it, and prints every metric by name with its unit. The last
// line of stdout is the result object; perfbench/run.py builds the
// binaries and forwards its arguments here.
//
//   perfbench_harness --workload=count_lockstep_k4 --seed=1 --seconds=10
//       --trace=0 --coordinator=BIN --site=BIN --workdir=DIR
//       [--tiny] [--corrupt-expectation] [--commit=ID]

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "disttrack/common/simd.h"
#include "harness/bench_util.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

using disttrack::service::RunMode;
using disttrack::service::TrackerKind;
namespace service = disttrack::service;

// rep_arrivals sizes one repetition to a few seconds on a 4-core
// machine; README.md records the measurements behind each choice.
const WorkloadSpec kWorkloads[] = {
    {"count_lockstep_k4", false, TrackerKind::kCount, RunMode::kLockstep, 4,
     80000000, 400000, service::kQueryCount, 0.0, 200, 0, 0, 0},
    {"rank_lockstep_k4", false, TrackerKind::kRank, RunMode::kLockstep, 4,
     6000000, 100000, service::kQueryQuantile, 0.5, 100, 0, 0, 0},
    {"frequency_freerun_k3", false, TrackerKind::kFrequency, RunMode::kFreerun,
     3, 60000000, 400000, service::kQueryHeavyHitters, 0.01, 50, 0, 0, 0},
    {"rank_online_k64_t3", true, TrackerKind::kRank, RunMode::kLockstep, 64,
     10000000, 262144, service::kQueryQuantile, 0.5, 0, 3, 65536, 16},
};

double LoadAverage() {
  FILE* f = fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1;
  double load = -1;
  if (fscanf(f, "%lf", &load) != 1) load = -1;
  fclose(f);
  return load;
}

bool Flag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const std::string& why) {
  fprintf(stderr,
          "perfbench_harness: %s\nusage: perfbench_harness --workload={%s} "
          "--seed=N --seconds=S --trace=0|1 --coordinator=BIN --site=BIN "
          "--workdir=DIR [--tiny] [--corrupt-expectation] [--commit=ID]\n",
          why.c_str(), WorkloadNames().c_str());
  return 2;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ",";
    names += spec.name;
  }
  return names;
}

service::ServiceOptions RunConfig::Options(int rep) const {
  service::ServiceOptions options;
  options.tracker = spec->tracker;
  options.mode = spec->mode;
  options.num_sites = spec->sites;
  options.epsilon = 0.01;
  options.seed = Mix(seed) + static_cast<uint64_t>(rep);
  options.total_arrivals = arrivals();
  return options;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string commit = "unknown";
  std::string value;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (Flag(arg, "workload", &value)) {
      config.spec = FindWorkload(value);
      if (config.spec == nullptr) return Usage("unknown workload " + value);
    } else if (Flag(arg, "seed", &value)) {
      config.seed = strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (Flag(arg, "seconds", &value)) {
      config.seconds = strtod(value.c_str(), nullptr);
      have_seconds = config.seconds > 0;
    } else if (Flag(arg, "trace", &value)) {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (Flag(arg, "coordinator", &value)) {
      config.coordinator_bin = value;
    } else if (Flag(arg, "site", &value)) {
      config.site_bin = value;
    } else if (Flag(arg, "workdir", &value)) {
      config.workdir = value;
    } else if (Flag(arg, "commit", &value)) {
      commit = value;
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-expectation") {
      config.corrupt = true;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (config.spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      config.workdir.empty() ||
      (!config.spec->online &&
       (config.coordinator_bin.empty() || config.site_bin.empty()))) {
    return Usage("missing argument");
  }
  // A dead peer surfaces as a failed write, not a killed process; the
  // daemons inherit this disposition (fleet.cc, Spawn).
  signal(SIGPIPE, SIG_IGN);
  // The open-loop client sleeps until each query is due; the default
  // 50 us timer slack would show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  printf("perfbench env: {\"workload\": \"%s\", \"seed\": %llu, "
         "\"trace\": %d, \"nproc\": %ld, \"simd\": \"%s\", "
         "\"loadavg_1m\": %.2f, \"commit\": \"%s\"}\n",
         config.spec->name, static_cast<unsigned long long>(config.seed),
         config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
         disttrack::simd::Avx2Active() ? "avx2" : "scalar", LoadAverage(),
         commit.c_str());
  fflush(stdout);

  Metrics metrics;
  Audit audit;
  if (config.spec->online) {
    RunOnline(config, &metrics, &audit);
  } else {
    RunFleet(config, &metrics, &audit);
  }
  for (const Metric& m : metrics.all()) {
    audit.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  if (metrics.all().empty()) audit.Check(false, "no metrics were measured");

  bool ok = audit.ok();
  std::string body;
  if (ok) {
    for (const Metric& m : metrics.all()) {
      char buf[256];
      snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               body.empty() ? "" : ", ", m.name.c_str(), m.value,
               m.unit.c_str());
      body += buf;
    }
  }
  // A run that fails its audit reports the failure, not numbers.
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         ok ? "true" : "false",
         static_cast<unsigned long long>(audit.attempted()),
         static_cast<unsigned long long>(audit.failed()), body.c_str());
  return ok ? 0 : 1;
}
