// The in-process online workload: a rank tracker with k simulated sites
// behind sim::OnlineKeyedSession on a ParallelCluster pool. Arrivals are
// generated push by push (outside the timed sections), and every fixed
// number of pushes the driving thread runs Sync() and a quantile query. The
// schedule counts arrivals, not wall time, so the communication of a
// given seed repeats exactly. Ingest is timed over Push and Sync; each
// query is timed from its due instant, the end of the push that
// reached it.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/online.h"
#include "disttrack/sim/parallel_cluster.h"
#include "disttrack/sim/protocol.h"
#include "harness/bench_util.h"
#include "harness/replay.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

namespace sim = disttrack::sim;
using disttrack::rank::RandomizedRankTracker;
using disttrack::service::ServiceOptions;

double ProcessCpuSeconds() {
  rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ResidentMb() {
  FILE* f = fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  int got = fscanf(f, "%llu %llu", &size, &resident);
  fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// The stream: arrival `index` of a repetition, from its seed alone.
sim::Arrival Generate(const ServiceOptions& options, uint64_t index) {
  uint64_t r = Mix(options.seed ^ Mix(index + 1));
  sim::Arrival a;
  a.site = static_cast<int>((r >> 40) % static_cast<uint64_t>(options.num_sites));
  a.key = r % options.universe;
  return a;
}

void Fill(const ServiceOptions& options, uint64_t begin, uint64_t count,
          std::vector<sim::Arrival>* chunk) {
  chunk->resize(count);
  for (uint64_t i = 0; i < count; ++i) (*chunk)[i] = Generate(options, begin + i);
}

/// Median quantile by binary search over the value domain, the same
/// search the coordinator runs against its replica.
uint64_t QuantileSearch(const RandomizedRankTracker& tracker, uint64_t universe,
                        double target) {
  uint64_t lo = 0, hi = universe;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (tracker.EstimateRank(mid) < target) lo = mid + 1;
    else hi = mid;
  }
  return lo;
}

struct QueryRecord {
  uint64_t prefix;  ///< arrivals pushed when the query was due
  uint64_t value;   ///< quantile answer
  double estimate;  ///< EstimateRank(value)
  uint64_t exact;   ///< exact rank of value in the prefix
};

struct Rep {
  double setup_s = 0;
  double busy_s = 0;  ///< push + sync wall time (the ingest path)
  double cpu_s = 0;
  double rss_growth_mb = 0;
  uint64_t arrivals = 0;
  uint64_t paper_words = 0;
  uint64_t paper_messages = 0;
  uint64_t max_space_words = 0;
  uint64_t epoch_splits = 0;
  std::vector<double> push_us, sync_us, latency_us, late_us;
  SpanLog spans;
};

/// One repetition on a fresh pool of `threads` workers.
bool RunRep(const RunConfig& config, const ServiceOptions& options,
            int threads, bool record_spans, Rep* rep, Audit* audit) {
  const WorkloadSpec& spec = *config.spec;
  const uint64_t n = options.total_arrivals;
  std::vector<sim::Arrival> chunk, warm_chunk;
  std::vector<uint32_t> histogram(options.universe, 0);
  std::vector<QueryRecord> queries;
  ServiceOptions warm_options = options;
  warm_options.seed = Mix(options.seed);
  Fill(warm_options, 0, spec.push_arrivals, &warm_chunk);
  chunk.reserve(spec.push_arrivals);

  malloc_trim(0);
  double rss0 = ResidentMb();
  double t0 = Now();
  sim::ParallelCluster cluster(threads);
  {
    // Warm the persistent pool: the first sharded push starts the workers.
    RandomizedRankTracker warm(warm_options.RankOptions());
    sim::OnlineKeyedSession session(&cluster, &warm);
    session.Push(warm_chunk.data(), warm_chunk.size());
    session.Sync();
  }
  RandomizedRankTracker tracker(options.RankOptions());
  sim::OnlineKeyedSession session(&cluster, &tracker);
  rep->setup_s = Now() - t0;
  audit->Check(session.sharded(), "online session fell back to serial");

  double cpu0 = ProcessCpuSeconds();
  double untimed_cpu = 0;
  uint64_t pushed = 0;
  int push_index = 0;
  while (pushed < n) {
    double u0 = ThreadCpuSeconds();
    uint64_t count = std::min<uint64_t>(spec.push_arrivals, n - pushed);
    Fill(options, pushed, count, &chunk);
    untimed_cpu += ThreadCpuSeconds() - u0;

    uint64_t p0 = NowNs();
    session.Push(chunk.data(), chunk.size());
    uint64_t p1 = NowNs();
    rep->push_us.push_back(static_cast<double>(p1 - p0) * 1e-3);
    rep->busy_s += static_cast<double>(p1 - p0) * 1e-9;
    if (record_spans) rep->spans.Add("sim.online.push", Span::kNoParent, p0, p1);
    pushed += count;
    ++push_index;
    bool query_due = push_index % spec.pushes_per_query == 0 || pushed == n;

    // The query is due when the push that reaches its arrival count ends;
    // the exact-count bookkeeping waits until it is answered.
    uint64_t q0 = NowNs(), q1 = q0, q2 = q0;
    uint64_t value = 0;
    double estimate = 0;
    if (query_due) {
      session.Sync();
      q1 = NowNs();
      double target = spec.query_phi * static_cast<double>(pushed);
      value = QuantileSearch(tracker, options.universe, target);
      estimate = tracker.EstimateRank(value);
      q2 = NowNs();
    }
    u0 = ThreadCpuSeconds();
    for (const sim::Arrival& a : chunk) histogram[a.key] += 1;
    untimed_cpu += ThreadCpuSeconds() - u0;
    if (!query_due) continue;

    audit->Attempt(value < options.universe);
    rep->sync_us.push_back(static_cast<double>(q1 - q0) * 1e-3);
    rep->latency_us.push_back(static_cast<double>(q2 - p1) * 1e-3);
    rep->late_us.push_back(static_cast<double>(q0 - p1) * 1e-3);
    rep->busy_s += static_cast<double>(q1 - q0) * 1e-9;
    if (record_spans) {
      uint32_t id = rep->spans.Open("query", Span::kNoParent, q0);
      rep->spans.Close(id, q2);
      rep->spans.Add("sim.online.sync", id, q0, q1);
      rep->spans.Add("engine.query", id, q1, q2);
    }
    u0 = ThreadCpuSeconds();
    uint64_t exact = 0;
    for (uint64_t v = 0; v < value && v < options.universe; ++v) {
      exact += histogram[v];
    }
    queries.push_back(QueryRecord{pushed, value, estimate, exact});
    untimed_cpu += ThreadCpuSeconds() - u0;
  }
  rep->cpu_s = ProcessCpuSeconds() - cpu0 - untimed_cpu;
  rep->rss_growth_mb = ResidentMb() - rss0;
  rep->arrivals = pushed;
  rep->paper_words = tracker.meter().TotalWords();
  rep->paper_messages = tracker.meter().TotalMessages();
  rep->max_space_words = tracker.space().MaxPeak();
  rep->epoch_splits = session.epoch_splits();

  // Audit: every answer within eps * prefix of the exact rank.
  for (const QueryRecord& q : queries) {
    double m = static_cast<double>(q.prefix);
    double bound = options.epsilon * m;
    double exact = static_cast<double>(q.exact) + (config.corrupt ? 2 * bound : 0);
    audit->Check(std::fabs(q.estimate - exact) <= bound,
                 "rank estimate at " + std::to_string(q.value) + " after " +
                     std::to_string(q.prefix) + " arrivals: " +
                     std::to_string(q.estimate) + ", exact " +
                     std::to_string(exact));
    audit->Check(std::fabs(exact - spec.query_phi * m) <= bound + m / 1e4,
                 "quantile answer " + std::to_string(q.value) + " has exact rank " +
                     std::to_string(exact) + ", want " +
                     std::to_string(spec.query_phi * m));
  }
  audit->Check(pushed == n, "online stream ended early");
  return true;
}

/// Serial replay of the same stream through the layer ledger.
void LedgerReplay(const RunConfig& config, const ServiceOptions& options,
                  Replayer* replay) {
  std::vector<sim::Arrival> chunk;
  uint64_t n = options.total_arrivals;
  for (uint64_t pushed = 0; pushed < n;) {
    uint64_t count = std::min<uint64_t>(config.spec->push_arrivals, n - pushed);
    Fill(options, pushed, count, &chunk);
    replay->BeginRun();
    for (const sim::Arrival& a : chunk) replay->Arrive(a.site, a.key);
    replay->EndRun();
    pushed += count;
  }
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return Median(v);
}

}  // namespace

void RunOnline(const RunConfig& config, Metrics* metrics, Audit* audit) {
  const WorkloadSpec& spec = *config.spec;
  std::vector<Rep> reps;
  double t_begin = Now();
  const int kMinReps = 3;
  for (int i = 0;; ++i) {
    double elapsed = Now() - t_begin;
    double per_rep = i == 0 ? 0 : elapsed / i;
    bool last = i + 1 >= kMinReps && elapsed + 2 * per_rep > config.seconds;
    Rep rep;
    bool ran = RunRep(config, config.Options(i), spec.threads,
                      config.trace && last, &rep, audit);
    audit->Attempt(ran);
    if (!ran) return;
    fprintf(stderr,
            "perfbench: rep %d: setup %.6f s, busy %.4f s, cpu %.4f s, "
            "%zu queries, p50 %.1f us\n",
            i, rep.setup_s, rep.busy_s, rep.cpu_s, rep.latency_us.size(),
            Median(rep.latency_us));
    reps.push_back(std::move(rep));
    if (last) break;
  }

  std::vector<double> latency, late, push_us, sync_us;
  for (const Rep& r : reps) {
    latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    push_us.insert(push_us.end(), r.push_us.begin(), r.push_us.end());
    sync_us.insert(sync_us.end(), r.sync_us.begin(), r.sync_us.end());
  }
  auto ingest = [](const Rep& r) {
    return static_cast<double>(r.arrivals) / r.busy_s;
  };

  if (!config.trace) {
    metrics->Set("setup_s", MedianOf(reps, [](const Rep& r) {
                   return r.setup_s;
                 }), "s");
    metrics->Set("ingest_arrivals_per_s", MedianOf(reps, ingest), "1/s");
    metrics->Set("cpu_s_per_marrival", MedianOf(reps, [](const Rep& r) {
                   return r.cpu_s / (static_cast<double>(r.arrivals) / 1e6);
                 }), "s");
    metrics->Set("query_p50_us", Median(latency), "us");
    metrics->Set("paper_words_per_karrival", MedianOf(reps, [](const Rep& r) {
                   return static_cast<double>(r.paper_words) /
                          (static_cast<double>(r.arrivals) / 1e3);
                 }), "words");
    metrics->Set("coordinator_rss_mb", MedianOf(reps, [](const Rep& r) {
                   return r.rss_growth_mb;
                 }), "MB");
    return;
  }

  // Traced run: spans of the last repetition, its single-worker twin, and
  // the serial layer ledger over the same stream.
  const Rep& last = reps.back();
  int last_index = static_cast<int>(reps.size()) - 1;
  ServiceOptions options = config.Options(last_index);
  std::string path = config.workdir + "/spans_" + spec.name + ".jsonl";
  if (!last.spans.WriteJsonLines(path)) {
    fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  Rep twin;
  RunRep(config, options, 1, false, &twin, audit);

  Replayer untimed(options, Replayer::Tap::kUntimed);
  double u0 = Now();
  LedgerReplay(config, options, &untimed);
  double u1 = Now();
  Replayer timed(options, Replayer::Tap::kTimed);
  double t0 = Now();
  LedgerReplay(config, options, &timed);
  double t1 = Now();
  audit->Check(timed.decode_ok() && untimed.decode_ok(),
               "a tapped frame failed to decode");
  audit->Check(timed.meter().TotalWords() == untimed.meter().TotalWords(),
               "timed and untimed ledger replays disagree");

  double arrivals = static_cast<double>(timed.arrivals());
  double frames = static_cast<double>(timed.frames());
  metrics->Set("engine.ns_per_arrival",
               static_cast<double>(timed.run_ns() - timed.frame_ns()) / arrivals,
               "ns");
  metrics->Set("engine.msgs_per_karrival",
               static_cast<double>(last.paper_messages) /
                   (static_cast<double>(last.arrivals) / 1e3),
               "msgs");
  metrics->Set("engine.max_site_space_words",
               static_cast<double>(last.max_space_words), "words");
  metrics->Set("sim.wire.encode_ns_per_frame",
               static_cast<double>(timed.encode_ns()) / frames, "ns");
  metrics->Set("sim.wire.decode_ns_per_frame",
               static_cast<double>(timed.decode_ns()) / frames, "ns");
  metrics->Set("sim.wire.bytes_per_frame",
               static_cast<double>(timed.frame_bytes()) / frames, "B");
  metrics->Set("sim.replica.apply_ns_per_frame",
               static_cast<double>(timed.apply_ns()) / frames, "ns");
  metrics->Set("sim.replica.query_us",
               TimeReplicaQueryUs(timed, disttrack::service::kQueryQuantile,
                                  Bits(spec.query_phi),
                                  config.tiny ? 0.02 : 0.3),
               "us");
  // No coordinator or site process is on the in-process path.
  metrics->Set("service.coordinator.cpu_share", 0, "ratio");
  metrics->Set("service.coordinator.cpu_us_per_frame", 0, "us");
  metrics->Set("service.coordinator.frames_per_paper_msg", 0, "ratio");
  metrics->Set("service.coordinator.paper_words_per_karrival", 0, "words");
  metrics->Set("service.coordinator.wire_bytes_per_arrival", 0, "B");
  metrics->Set("service.site.cpu_s_per_marrival", 0, "s");
  metrics->Set("service.site.engine_share", 0, "ratio");
  metrics->Set("service.site.grants_per_marrival", 0, "grants");
  metrics->Set("service.ipc_residual_share", 0, "ratio");
  metrics->Set("query.p99_us", TailQuantile(latency), "us");
  metrics->Set("query.samples", static_cast<double>(latency.size()), "count");
  metrics->Set("query.generator_late_p99_us", TailQuantile(late), "us");
  metrics->Set("sim.online.push_us_p50", Median(push_us), "us");
  metrics->Set("sim.online.sync_us_p50", Median(sync_us), "us");
  metrics->Set("sim.online.epoch_splits", MedianOf(reps, [](const Rep& r) {
                 return static_cast<double>(r.epoch_splits);
               }), "count");
  metrics->Set("sim.online.t1_arrivals_per_s", ingest(twin), "1/s");
  metrics->Set("sim.online.scaling_vs_t1", ingest(last) / ingest(twin),
               "ratio");
  metrics->Set("trace.overhead_frac", (t1 - t0) / (u1 - u0) - 1.0, "ratio");
}

}  // namespace perfbench
