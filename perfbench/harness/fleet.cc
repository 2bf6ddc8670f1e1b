// Fleet workloads: the real disttrack_coordinator and disttrack_site
// binaries over a unix socket, one open-loop query client, and an audit
// of every repetition against the coordinator's own ledgers and a serial
// replay of its grant journal.

#include <errno.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <string>
#include <vector>

#include "disttrack/service/coordinator.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/wire.h"
#include "harness/bench_util.h"
#include "harness/replay.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

namespace service = disttrack::service;
using disttrack::sim::wire::Message;
using disttrack::sim::wire::MsgType;
using service::FrameReader;
using service::RunMode;
using service::ServiceOptions;
using service::TrackerKind;

// kQueryStats vector layout (service/coordinator.cc).
enum StatsIndex {
  kStatSitesDone = 0,
  kStatFramesIn = 2,
  kStatFramesOut = 3,
  kStatEncodedIn = 6,
  kStatEncodedOut = 7,
  kStatPaperMessages = 12,
  kStatPaperWords = 13,
  kStatBroadcasts = 14,
  kStatLedgerOk = 17,
  kStatCount = 18,
};

constexpr double kPollInterval = 0.002;  // completion polls, seconds
constexpr double kSpinLead = 100e-6;     // spin this long before a query
constexpr double kStreamDeadline = 150;  // seconds per repetition
constexpr double kIoTimeoutS = 30;

std::vector<std::string> FleetArgs(const ServiceOptions& options) {
  char eps[64];
  snprintf(eps, sizeof(eps), "--epsilon=%.17g", options.epsilon);
  return {
      std::string("--tracker=") + TrackerKindName(options.tracker),
      std::string("--mode=") + RunModeName(options.mode),
      "--sites=" + std::to_string(options.num_sites),
      eps,
      "--seed=" + std::to_string(options.seed),
      "--n=" + std::to_string(options.total_arrivals),
      "--universe=" + std::to_string(options.universe),
      "--grant=" + std::to_string(options.grant_max),
  };
}

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args) {
  pid_t pid = fork();
  if (pid != 0) return pid;  // parent, or -1 on failure
  // The daemons' stdout must not interleave with the result line. They
  // inherit the harness's ignored SIGPIPE, as daemons under systemd do
  // by default: with the default action a site that exits on kShutdown
  // can kill the coordinator mid-write (README.md, "Known defects").
  dup2(2, 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  execv(binary.c_str(), argv.data());
  fprintf(stderr, "perfbench: exec %s: %s\n", binary.c_str(), strerror(errno));
  _exit(127);
}

/// Connects to a unix socket, retrying every millisecond while the
/// coordinator starts (the library's Dial retries every 50 ms, which
/// would quantize the set-up time).
int DialUnix(const std::string& path, double timeout_s) {
  sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  memcpy(addr.sun_path, path.c_str(), path.size());
  double deadline = Now() + timeout_s;
  for (;;) {
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    if (Now() > deadline) return -1;
    usleep(1000);
  }
}

/// Blocking query client. Counts the frames and bytes it exchanges, so
/// the coordinator's ledgers can be reduced to site traffic exactly.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Ask(uint64_t kind, uint64_t param, Message* answer) {
    Message query;
    query.type = MsgType::kQuery;
    query.a = kind;
    query.b = param;
    if (!Send(query)) return false;
    for (;;) {
      if (!Read(answer)) return false;
      if (answer->type == MsgType::kQueryResult && answer->a == kind) {
        return true;
      }
    }
  }

  bool Send(const Message& msg) {
    std::vector<uint8_t> frame;
    disttrack::sim::wire::EncodeFrame(msg, 0, &frame);
    frames_sent_ += 1;
    bytes_sent_ += frame.size();
    return service::WriteAll(fd_, frame.data(), frame.size());
  }

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  /// Spins on a non-blocking receive instead of sleeping in poll(): a
  /// blocked client would add its own wake-up latency to every query.
  bool Read(Message* msg) {
    uint8_t buf[65536];
    double deadline = Now() + kIoTimeoutS;
    for (;;) {
      uint64_t seq = 0;
      size_t before = reader_.buffered();
      switch (reader_.Next(msg, &seq)) {
        case FrameReader::Result::kFrame:
          frames_received_ += 1;
          bytes_received_ += before - reader_.buffered();
          return true;
        case FrameReader::Result::kError:
          return false;
        case FrameReader::Result::kNeed:
          break;
      }
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        reader_.Append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return false;
      }
      if (Now() > deadline) return false;
    }
  }

  int fd_;
  FrameReader reader_;
  uint64_t frames_sent_ = 0, frames_received_ = 0;
  uint64_t bytes_sent_ = 0, bytes_received_ = 0;
};

struct Process {
  pid_t pid = -1;
  int status = 0;
  rusage usage{};
  bool reaped = false;
};

double CpuSeconds(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Reaps every process, killing stragglers after `timeout_s`.
void Reap(std::vector<Process>* procs, double timeout_s) {
  double deadline = Now() + timeout_s;
  bool killed = false;
  for (;;) {
    bool all = true;
    for (Process& p : *procs) {
      if (p.reaped || p.pid <= 0) continue;
      pid_t r = wait4(p.pid, &p.status, WNOHANG, &p.usage);
      if (r == p.pid) {
        p.reaped = true;
      } else {
        all = false;
      }
    }
    if (all) return;
    if (!killed && Now() > deadline) {
      for (Process& p : *procs) {
        if (!p.reaped && p.pid > 0) kill(p.pid, SIGKILL);
      }
      killed = true;
    }
    usleep(500);
  }
}

/// One repetition's raw observations.
struct Rep {
  double setup_s = 0;
  double stream_s = 0;
  double coord_cpu_s = 0;
  double site_cpu_s = 0;
  double coord_rss_mb = 0;
  uint64_t site_frames = 0;  ///< coordinator frames in + out, client excluded
  uint64_t site_bytes = 0;   ///< encoded bytes in + out, client excluded
  uint64_t paper_messages = 0;
  uint64_t paper_words = 0;
  uint64_t grants = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  // Tracing (last repetition of a traced run).
  double untimed_replay_s = 0;
  double timed_replay_s = 0;
  uint64_t arrivals = 0;
  uint64_t frames = 0, frame_bytes = 0;
  uint64_t engine_self_ns = 0, encode_ns = 0, decode_ns = 0, apply_ns = 0;
  uint64_t run_ns = 0;
  uint64_t meter_messages = 0;
  uint64_t max_space_words = 0;
  double replica_query_us = 0;
};

bool ValidAnswer(const Message& answer, uint64_t kind) {
  switch (kind) {
    case service::kQueryCount:
      return answer.values.size() == 3;
    case service::kQueryQuantile:
      return answer.values.size() == 2;
    case service::kQueryHeavyHitters:
      return answer.values.size() % 2 == 0;
    default:
      return !answer.values.empty();
  }
}

/// Final answers the audit compares against the reference.
struct FinalAnswers {
  Message count;      // kQueryCount: est, n', round
  Message quantile;   // rank: kQueryQuantile at the workload phi
  std::vector<Message> ranks;   // rank: kQueryRank at fixed values
  std::vector<Message> points;  // frequency: kQueryPoint of the hot set
  Message heavy;      // frequency: kQueryHeavyHitters
};

std::vector<uint64_t> RankProbeValues(const ServiceOptions& options) {
  std::vector<uint64_t> values;
  for (uint64_t i = 1; i <= 8; ++i) values.push_back(options.universe / 9 * i);
  return values;
}

bool AskFinal(Client* client, const WorkloadSpec& spec,
              const ServiceOptions& options, FinalAnswers* out) {
  if (!client->Ask(service::kQueryCount, 0, &out->count)) return false;
  if (out->count.values.size() != 3) return false;
  if (spec.tracker == TrackerKind::kRank) {
    if (!client->Ask(service::kQueryQuantile, Bits(spec.query_phi),
                     &out->quantile) ||
        out->quantile.values.size() != 2) {
      return false;
    }
    for (uint64_t v : RankProbeValues(options)) {
      Message m;
      if (!client->Ask(service::kQueryRank, v, &m) || m.values.size() != 1) {
        return false;
      }
      out->ranks.push_back(m);
    }
  }
  if (spec.tracker == TrackerKind::kFrequency) {
    for (uint64_t item = 0; item < 16; ++item) {
      Message m;
      if (!client->Ask(service::kQueryPoint, item, &m) ||
          m.values.size() != 1) {
        return false;
      }
      out->points.push_back(m);
    }
    if (!client->Ask(service::kQueryHeavyHitters, Bits(spec.query_phi),
                     &out->heavy) ||
        out->heavy.values.size() % 2 != 0) {
      return false;
    }
  }
  return true;
}

/// Lockstep: the grant journal is the effective arrival order, so the
/// serial replay must reproduce the coordinator's answers bit for bit
/// and its §1.1 ledger to the message and word.
void AuditLockstep(const RunConfig& config, const ServiceOptions& options,
                   const std::vector<uint64_t>& stats,
                   const FinalAnswers& final, const Replayer& replay,
                   Audit* audit) {
  const disttrack::sim::CommMeter& meter = replay.meter();
  uint64_t expect_words = meter.TotalWords() + (config.corrupt ? 1 : 0);
  audit->Check(stats[kStatPaperMessages] == meter.TotalMessages(),
               "paper messages: coordinator " +
                   std::to_string(stats[kStatPaperMessages]) + ", serial " +
                   std::to_string(meter.TotalMessages()));
  audit->Check(stats[kStatPaperWords] == expect_words,
               "paper words: coordinator " +
                   std::to_string(stats[kStatPaperWords]) + ", serial " +
                   std::to_string(expect_words));
  audit->Check(stats[kStatBroadcasts] == meter.broadcast_count(),
               "broadcasts: coordinator " +
                   std::to_string(stats[kStatBroadcasts]) + ", serial " +
                   std::to_string(meter.broadcast_count()));
  if (options.tracker == TrackerKind::kCount) {
    audit->Check(final.count.values[0] == Bits(replay.EstimateCount()),
                 "count estimate is not bit-identical to the journal replay");
  }
  if (options.tracker == TrackerKind::kRank) {
    std::vector<uint64_t> probes = RankProbeValues(options);
    for (size_t i = 0; i < probes.size(); ++i) {
      audit->Check(final.ranks[i].values[0] ==
                       Bits(replay.EstimateRank(probes[i])),
                   "rank estimate at " + std::to_string(probes[i]) +
                       " is not bit-identical to the journal replay");
    }
    // The quantile answer is the coordinator's binary search over the
    // replica; the serial tracker must agree at and below the answer.
    uint64_t v = final.quantile.values[0];
    double target = config.spec->query_phi *
                    static_cast<double>(final.count.values[1]);
    audit->Check(final.quantile.values[1] == Bits(replay.EstimateRank(v)),
                 "quantile estimate is not bit-identical to the replay");
    audit->Check(replay.EstimateRank(v) >= target &&
                     (v == 0 || replay.EstimateRank(v - 1) < target),
                 "quantile answer is not the replay's binary-search answer");
  }
}

/// Freerun: the interleaving is scheduling-dependent (determinism tier
/// C), so the estimates are checked against exact counts instead.
void AuditFreerun(const RunConfig& config, const ServiceOptions& options,
                  const FinalAnswers& final, Audit* audit) {
  if (options.tracker != TrackerKind::kFrequency) return;
  std::vector<uint32_t> exact(options.universe, 0);
  for (int site = 0; site < options.num_sites; ++site) {
    uint64_t shard = service::ShardSize(options, site);
    for (uint64_t i = 0; i < shard; ++i) {
      exact[service::WorkloadKey(options, site, i)] += 1;
    }
  }
  double n = static_cast<double>(options.total_arrivals);
  double bound = options.epsilon * n;
  double shift = config.corrupt ? 2 * bound : 0;
  for (uint64_t item = 0; item < 16; ++item) {
    double est = FromBits(final.points[item].values[0]);
    double truth = static_cast<double>(exact[item]) + shift;
    audit->Check(std::fabs(est - truth) <= bound,
                 "frequency of item " + std::to_string(item) + ": estimate " +
                     std::to_string(est) + ", exact " +
                     std::to_string(truth) + ", bound " +
                     std::to_string(bound));
  }
  // Heavy hitters: every reported item is within the bound; every item
  // with f >= (phi + eps) n is reported.
  double phi = config.spec->query_phi;
  std::vector<bool> reported(options.universe, false);
  for (size_t i = 0; i + 1 < final.heavy.values.size(); i += 2) {
    uint64_t item = final.heavy.values[i];
    if (item >= options.universe) {
      audit->Check(false, "heavy hitter outside the universe");
      continue;
    }
    reported[item] = true;
    double est = FromBits(final.heavy.values[i + 1]);
    audit->Check(std::fabs(est - static_cast<double>(exact[item])) <= bound,
                 "heavy hitter " + std::to_string(item) +
                     " estimate outside the bound");
  }
  for (uint64_t item = 0; item < options.universe; ++item) {
    if (static_cast<double>(exact[item]) >= (phi + options.epsilon) * n) {
      audit->Check(reported[item], "heavy hitter " + std::to_string(item) +
                                       " missing from the answer");
    }
  }
}

/// Runs one repetition end to end. Returns false if the fleet could not
/// be driven at all (the audit records why).
bool RunRep(const RunConfig& config, int rep_index, bool traced_rep, Rep* rep,
            Audit* audit) {
  const WorkloadSpec& spec = *config.spec;
  ServiceOptions options = config.Options(rep_index);
  std::string sock = config.workdir + "/pb" + std::to_string(getpid()) + "_" +
                     std::to_string(rep_index) + ".sock";
  std::string endpoint = "unix:" + sock;
  std::vector<std::string> fleet = FleetArgs(options);

  std::vector<Process> procs;
  double t_launch = Now();
  std::vector<std::string> coord_args = fleet;
  coord_args.push_back("--listen=" + endpoint);
  procs.push_back(Process{Spawn(config.coordinator_bin, coord_args)});

  auto fail = [&](const std::string& what) {
    audit->Check(false, what);
    for (Process& p : procs) {
      if (p.pid > 0) kill(p.pid, SIGKILL);
    }
    Reap(&procs, 5);
    unlink(sock.c_str());
    return false;
  };
  if (procs[0].pid <= 0) return fail("fork failed");

  int fd = DialUnix(sock, 15);
  if (fd < 0) return fail("coordinator never accepted on " + sock);
  Client client(fd);
  Message stats;
  if (!client.Ask(service::kQueryStats, 0, &stats) ||
      stats.values.size() != kStatCount) {
    return fail("coordinator did not answer the first stats query");
  }
  double t_ready = Now();
  rep->setup_s = t_ready - t_launch;

  for (int site = 0; site < options.num_sites; ++site) {
    std::vector<std::string> args = fleet;
    args.push_back("--connect=" + endpoint);
    args.push_back("--site=" + std::to_string(site));
    procs.push_back(Process{Spawn(config.site_bin, args)});
    if (procs.back().pid <= 0) return fail("fork failed");
  }

  // Stream phase: open-loop queries at the workload rate, completion
  // polls in between. Each query is timed from its due instant.
  double t_start = Now();
  double period = 1.0 / spec.query_rate_hz;
  double next_query = t_start + period;
  double next_poll = t_start + kPollInterval;
  double t_done = 0;
  for (;;) {
    double now = Now();
    if (now - t_start > kStreamDeadline) {
      return fail("fleet did not finish within the deadline");
    }
    if (next_query <= next_poll) {
      // Wake early and spin to the due instant, so the generator's own
      // wake-up latency does not count as lateness.
      SleepUntil(next_query - kSpinLead);
      while (Now() < next_query) {
      }
      double due = next_query;
      next_query += period;
      double sent = Now();
      Message answer;
      bool ok = client.Ask(spec.query_kind, Bits(spec.query_phi), &answer);
      double answered = Now();
      audit->Attempt(ok && ValidAnswer(answer, spec.query_kind));
      if (!ok) return fail("query connection failed mid-stream");
      rep->latency_us.push_back((answered - due) * 1e6);
      rep->late_us.push_back((sent - due) * 1e6);
    } else {
      SleepUntil(next_poll);
      next_poll += kPollInterval;
      if (!client.Ask(service::kQueryStats, 0, &stats) ||
          stats.values.size() != kStatCount) {
        return fail("stats poll failed mid-stream");
      }
      if (stats.values[kStatSitesDone] ==
          static_cast<uint64_t>(options.num_sites)) {
        t_done = Now();
        break;
      }
    }
  }
  rep->stream_s = t_done - t_start;

  // Audit phase: final ledgers and answers, then an orderly shutdown.
  Message journal;
  FinalAnswers final;
  if (!client.Ask(service::kQueryStats, 0, &stats) ||
      stats.values.size() != kStatCount) {
    return fail("final stats query failed");
  }
  // The answer to this query is not in its own counters; everything the
  // client sent (this query included) and received before it is.
  uint64_t client_frames = client.frames_sent() + client.frames_received() - 1;
  uint64_t client_bytes = client.bytes_sent() + client.bytes_received() -
                          disttrack::sim::wire::EncodedSize(stats);
  if (!client.Ask(service::kQueryJournal, 0, &journal)) {
    return fail("journal query failed");
  }
  if (!AskFinal(&client, spec, options, &final)) {
    return fail("final estimate queries failed");
  }
  Message bye;
  bye.type = MsgType::kShutdown;
  client.Send(bye);
  Reap(&procs, 20);
  unlink(sock.c_str());

  const std::vector<uint64_t>& sv = stats.values;
  audit->Check(sv[kStatLedgerOk] == 1,
               "socket byte ledger does not reconcile with frame sizes");
  for (size_t i = 0; i < procs.size(); ++i) {
    const Process& p = procs[i];
    bool clean = p.reaped && WIFEXITED(p.status) && WEXITSTATUS(p.status) == 0;
    std::string how = !p.reaped ? "was never reaped"
                      : WIFSIGNALED(p.status)
                          ? "died of signal " + std::to_string(WTERMSIG(p.status))
                          : "exited with code " +
                                std::to_string(WEXITSTATUS(p.status));
    audit->Check(clean, (i == 0 ? std::string("coordinator")
                                : "site " + std::to_string(i - 1)) +
                            " " + how);
  }
  rep->coord_cpu_s = CpuSeconds(procs[0].usage);
  rep->coord_rss_mb = static_cast<double>(procs[0].usage.ru_maxrss) / 1024.0;
  for (size_t i = 1; i < procs.size(); ++i) {
    rep->site_cpu_s += CpuSeconds(procs[i].usage);
  }
  rep->site_frames = sv[kStatFramesIn] + sv[kStatFramesOut] - client_frames;
  rep->site_bytes = sv[kStatEncodedIn] + sv[kStatEncodedOut] - client_bytes;
  rep->paper_messages = sv[kStatPaperMessages];
  rep->paper_words = sv[kStatPaperWords];
  rep->grants = journal.values.size() / 2;

  // Serial replay of the journal: the audit reference, and in a traced
  // run the layer ledger.
  Replayer::Tap tap = config.trace ? Replayer::Tap::kUntimed
                                   : Replayer::Tap::kNone;
  Replayer replay(options, tap);
  double r0 = Now();
  uint64_t replayed = replay.ReplayJournal(journal.values);
  double r1 = Now();
  audit->Check(replayed == options.total_arrivals,
               "grant journal covers " + std::to_string(replayed) +
                   " arrivals, want " +
                   std::to_string(options.total_arrivals));
  if (replayed != options.total_arrivals) return false;
  if (options.mode == RunMode::kLockstep) {
    AuditLockstep(config, options, sv, final, replay, audit);
  } else {
    AuditFreerun(config, options, final, audit);
  }
  if (tap != Replayer::Tap::kNone) {
    audit->Check(replay.decode_ok(), "a tapped frame failed to decode");
    if (options.mode == RunMode::kLockstep) {
      const Message& fleet_answer =
          options.tracker == TrackerKind::kRank ? final.quantile : final.count;
      audit->Check(replay.ReplicaQuery(spec.query_kind, Bits(spec.query_phi)) ==
                       fleet_answer.values,
                   "replica rebuilt from the replay's frames disagrees with "
                   "the coordinator");
    }
  }
  if (!traced_rep) return true;

  // Layer ledger: the same replay again, now with every span timed.
  Replayer timed(options, Replayer::Tap::kTimed);
  double t0 = Now();
  timed.ReplayJournal(journal.values);
  double t1 = Now();
  rep->untimed_replay_s = r1 - r0;
  rep->timed_replay_s = t1 - t0;
  rep->arrivals = timed.arrivals();
  rep->frames = timed.frames();
  rep->frame_bytes = timed.frame_bytes();
  rep->run_ns = timed.run_ns();
  rep->engine_self_ns = timed.run_ns() - timed.frame_ns();
  rep->encode_ns = timed.encode_ns();
  rep->decode_ns = timed.decode_ns();
  rep->apply_ns = timed.apply_ns();
  rep->meter_messages = timed.meter().TotalMessages();
  rep->max_space_words = timed.MaxSiteSpaceWords();
  rep->replica_query_us = TimeReplicaQueryUs(
      timed, spec.query_kind, Bits(spec.query_phi), config.tiny ? 0.02 : 0.3);
  std::string path = config.workdir + "/spans_" + spec.name + ".jsonl";
  if (!timed.spans().WriteJsonLines(path)) {
    fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return true;
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return Median(v);
}

}  // namespace

void RunFleet(const RunConfig& config, Metrics* metrics, Audit* audit) {
  std::vector<Rep> reps;
  double t_begin = Now();
  const int kMinReps = 3;
  // Repeat the fleet until the run's time is spent (at least kMinReps);
  // the traced run records spans on its last repetition only.
  for (int i = 0;; ++i) {
    double elapsed = Now() - t_begin;
    double per_rep = i == 0 ? 0 : elapsed / i;
    bool last = i + 1 >= kMinReps && elapsed + 2 * per_rep > config.seconds;
    Rep rep;
    bool ran = RunRep(config, i, config.trace && last, &rep, audit);
    audit->Attempt(ran);
    if (!ran) return;
    fprintf(stderr,
            "perfbench: rep %d: setup %.6f s, stream %.4f s, cpu %.4f s "
            "(coordinator %.4f), %zu queries, p50 %.1f us\n",
            i, rep.setup_s, rep.stream_s, rep.coord_cpu_s + rep.site_cpu_s,
            rep.coord_cpu_s, rep.latency_us.size(), Median(rep.latency_us));
    reps.push_back(std::move(rep));
    if (last) break;
  }

  double n = static_cast<double>(config.arrivals());
  std::vector<double> latency, late;
  for (const Rep& r : reps) {
    latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
  }

  if (!config.trace) {
    metrics->Set("setup_s", MedianOf(reps, [](const Rep& r) {
                   return r.setup_s;
                 }), "s");
    metrics->Set("ingest_arrivals_per_s", MedianOf(reps, [&](const Rep& r) {
                   return n / r.stream_s;
                 }), "1/s");
    metrics->Set("cpu_s_per_marrival", MedianOf(reps, [&](const Rep& r) {
                   return (r.coord_cpu_s + r.site_cpu_s) / (n / 1e6);
                 }), "s");
    metrics->Set("query_p50_us", Median(latency), "us");
    metrics->Set("paper_words_per_karrival", MedianOf(reps, [&](const Rep& r) {
                   return static_cast<double>(r.paper_words) / (n / 1e3);
                 }), "words");
    metrics->Set("coordinator_rss_mb", MedianOf(reps, [](const Rep& r) {
                   return r.coord_rss_mb;
                 }), "MB");
    return;
  }

  const Rep& t = reps.back();
  double frames = static_cast<double>(t.frames);
  double arrivals = static_cast<double>(t.arrivals);
  metrics->Set("engine.ns_per_arrival",
               static_cast<double>(t.engine_self_ns) / arrivals, "ns");
  metrics->Set("engine.msgs_per_karrival",
               static_cast<double>(t.meter_messages) / (arrivals / 1e3),
               "msgs");
  metrics->Set("engine.max_site_space_words",
               static_cast<double>(t.max_space_words), "words");
  metrics->Set("sim.wire.encode_ns_per_frame",
               static_cast<double>(t.encode_ns) / frames, "ns");
  metrics->Set("sim.wire.decode_ns_per_frame",
               static_cast<double>(t.decode_ns) / frames, "ns");
  metrics->Set("sim.wire.bytes_per_frame",
               static_cast<double>(t.frame_bytes) / frames, "B");
  metrics->Set("sim.replica.apply_ns_per_frame",
               static_cast<double>(t.apply_ns) / frames, "ns");
  metrics->Set("sim.replica.query_us", t.replica_query_us, "us");
  metrics->Set("service.coordinator.cpu_share",
               MedianOf(reps, [](const Rep& r) {
                 return r.coord_cpu_s / (r.coord_cpu_s + r.site_cpu_s);
               }), "ratio");
  metrics->Set("service.coordinator.cpu_us_per_frame",
               MedianOf(reps, [](const Rep& r) {
                 return r.coord_cpu_s * 1e6 /
                        static_cast<double>(r.site_frames);
               }), "us");
  metrics->Set("service.coordinator.frames_per_paper_msg",
               MedianOf(reps, [](const Rep& r) {
                 return static_cast<double>(r.site_frames) /
                        static_cast<double>(r.paper_messages);
               }), "ratio");
  metrics->Set("service.coordinator.paper_words_per_karrival",
               MedianOf(reps, [&](const Rep& r) {
                 return static_cast<double>(r.paper_words) / (n / 1e3);
               }), "words");
  metrics->Set("service.coordinator.wire_bytes_per_arrival",
               MedianOf(reps, [&](const Rep& r) {
                 return static_cast<double>(r.site_bytes) / n;
               }), "B");
  metrics->Set("service.site.cpu_s_per_marrival",
               MedianOf(reps, [&](const Rep& r) {
                 return r.site_cpu_s / (n / 1e6);
               }), "s");
  metrics->Set("service.site.engine_share",
               static_cast<double>(t.engine_self_ns) * 1e-9 / t.site_cpu_s,
               "ratio");
  metrics->Set("service.site.grants_per_marrival",
               MedianOf(reps, [&](const Rep& r) {
                 return static_cast<double>(r.grants) / (n / 1e6);
               }), "grants");
  metrics->Set("service.ipc_residual_share",
               1.0 - static_cast<double>(t.run_ns) * 1e-9 / t.stream_s,
               "ratio");
  metrics->Set("query.p99_us", TailQuantile(latency), "us");
  metrics->Set("query.samples", static_cast<double>(latency.size()), "count");
  metrics->Set("query.generator_late_p99_us", TailQuantile(late), "us");
  // The online engine is not on a fleet workload's path.
  metrics->Set("sim.online.push_us_p50", 0, "us");
  metrics->Set("sim.online.sync_us_p50", 0, "us");
  metrics->Set("sim.online.epoch_splits", 0, "count");
  metrics->Set("sim.online.t1_arrivals_per_s", 0, "1/s");
  metrics->Set("sim.online.scaling_vs_t1", 0, "ratio");
  metrics->Set("trace.overhead_frac",
               t.timed_replay_s / t.untimed_replay_s - 1.0, "ratio");
}

}  // namespace perfbench
