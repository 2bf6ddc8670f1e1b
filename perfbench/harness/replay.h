// The layer ledger: a serial replay of a recorded arrival order through
// the tracker's public Arrive, with a WireTap that carries every emitted
// frame through the same layers the service uses:
//
//   engine           tracker Arrive (count/, frequency/, rank/, ...)
//   sim.wire         sim::wire::EncodeFrame
//   framing          service::FrameReader (stream reassembly + decode)
//   sim.replica      sim::*Replica::Apply, then the workload's query
//
// With timing on, each run of arrivals is a span, each frame a child
// span, and encode / decode / apply are children of the frame; engine
// self time is the run spans minus their frame children. With timing off
// the same work runs without a clock read, which is how the harness
// measures the tracing overhead.

#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/replica.h"
#include "disttrack/sim/wire.h"
#include "harness/bench_util.h"

namespace perfbench {

class Replayer : public disttrack::sim::wire::WireTap {
 public:
  enum class Tap { kNone, kUntimed, kTimed };

  Replayer(const disttrack::service::ServiceOptions& options, Tap tap);

  /// A run of arrivals (one lockstep grant, or one push of the online
  /// stream) is one span when timing is on.
  void BeginRun();
  void Arrive(int site, uint64_t key);
  void EndRun();

  /// Replays a grant journal (site/length pairs) with the service's
  /// WorkloadKey stream; returns arrivals replayed.
  uint64_t ReplayJournal(const std::vector<uint64_t>& journal_pairs);

  void OnMessage(disttrack::sim::wire::Message&& msg) override;

  // --- Serial tracker answers (the audit's reference) ----------------------
  double EstimateCount() const;
  double EstimateRank(uint64_t value) const;
  const disttrack::sim::CommMeter& meter() const;
  uint64_t MaxSiteSpaceWords() const;

  // --- Replica answers (tap runs only) --------------------------------------
  /// The coordinator's answer to `query` computed from this replay's
  /// replica, with the coordinator's algorithm (service/coordinator.cc).
  std::vector<uint64_t> ReplicaQuery(uint64_t kind, uint64_t param) const;

  // --- Ledger -----------------------------------------------------------------
  uint64_t arrivals() const { return arrivals_; }
  uint64_t frames() const { return frames_; }
  uint64_t frame_bytes() const { return frame_bytes_; }
  uint64_t encode_ns() const { return encode_ns_; }
  uint64_t decode_ns() const { return decode_ns_; }
  uint64_t apply_ns() const { return apply_ns_; }
  uint64_t frame_ns() const { return frame_ns_; }
  uint64_t run_ns() const { return run_ns_; }
  bool decode_ok() const { return decode_ok_; }
  const SpanLog& spans() const { return spans_; }

 private:
  disttrack::service::ServiceOptions options_;
  Tap tap_;
  std::unique_ptr<disttrack::count::RandomizedCountTracker> count_;
  std::unique_ptr<disttrack::frequency::RandomizedFrequencyTracker> frequency_;
  std::unique_ptr<disttrack::rank::RandomizedRankTracker> rank_;
  std::unique_ptr<disttrack::sim::CountReplica> count_replica_;
  std::unique_ptr<disttrack::sim::FrequencyReplica> frequency_replica_;
  std::unique_ptr<disttrack::sim::RankReplica> rank_replica_;
  disttrack::service::FrameReader reader_;
  std::vector<uint8_t> frame_;
  uint64_t seq_ = 0;

  SpanLog spans_;
  uint32_t run_span_ = Span::kNoParent;
  uint64_t run_start_ns_ = 0;
  uint64_t arrivals_ = 0, frames_ = 0, frame_bytes_ = 0;
  uint64_t encode_ns_ = 0, decode_ns_ = 0, apply_ns_ = 0;
  uint64_t frame_ns_ = 0, run_ns_ = 0;
  bool decode_ok_ = true;
};

/// Median microseconds of the workload query against a replica replay.
double TimeReplicaQueryUs(const Replayer& replay, uint64_t kind,
                          uint64_t param, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
