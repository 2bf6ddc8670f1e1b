#include "harness/replay.h"

#include "disttrack/service/coordinator.h"

namespace perfbench {

using disttrack::service::FrameReader;
using disttrack::service::ServiceOptions;
using disttrack::service::TrackerKind;
using disttrack::sim::wire::Message;
namespace service = disttrack::service;
namespace sim = disttrack::sim;

Replayer::Replayer(const ServiceOptions& options, Tap tap)
    : options_(options), tap_(tap) {
  bool replica = tap != Tap::kNone;
  switch (options.tracker) {
    case TrackerKind::kCount:
      count_ = std::make_unique<disttrack::count::RandomizedCountTracker>(
          options.CountOptions());
      if (replica) {
        count_replica_ =
            std::make_unique<sim::CountReplica>(options.CountOptions());
        count_->set_wire_tap(this);
      }
      break;
    case TrackerKind::kFrequency:
      frequency_ =
          std::make_unique<disttrack::frequency::RandomizedFrequencyTracker>(
              options.FrequencyOptions());
      if (replica) {
        frequency_replica_ =
            std::make_unique<sim::FrequencyReplica>(options.FrequencyOptions());
        frequency_->set_wire_tap(this);
      }
      break;
    case TrackerKind::kRank:
      rank_ = std::make_unique<disttrack::rank::RandomizedRankTracker>(
          options.RankOptions());
      if (replica) {
        rank_replica_ =
            std::make_unique<sim::RankReplica>(options.RankOptions());
        rank_->set_wire_tap(this);
      }
      break;
  }
}

void Replayer::BeginRun() {
  if (tap_ != Tap::kTimed) return;
  run_start_ns_ = NowNs();
  run_span_ = spans_.Open("engine.run", Span::kNoParent, run_start_ns_);
}

void Replayer::EndRun() {
  if (tap_ != Tap::kTimed) return;
  uint64_t end = NowNs();
  spans_.Close(run_span_, end);
  run_ns_ += end - run_start_ns_;
  run_span_ = Span::kNoParent;
}

void Replayer::Arrive(int site, uint64_t key) {
  arrivals_ += 1;
  if (count_) count_->Arrive(site);
  if (frequency_) frequency_->Arrive(site, key);
  if (rank_) rank_->Arrive(site, key);
}

uint64_t Replayer::ReplayJournal(const std::vector<uint64_t>& journal_pairs) {
  std::vector<uint64_t> position(static_cast<size_t>(options_.num_sites), 0);
  uint64_t replayed = 0;
  for (size_t i = 0; i + 1 < journal_pairs.size(); i += 2) {
    uint64_t site_id = journal_pairs[i];
    if (site_id >= position.size()) return replayed;  // caller audits total
    int site = static_cast<int>(site_id);
    uint64_t length = journal_pairs[i + 1];
    uint64_t& pos = position[site_id];
    BeginRun();
    if (count_) {
      for (uint64_t j = 0; j < length; ++j) count_->Arrive(site);
      arrivals_ += length;
    } else {
      for (uint64_t j = 0; j < length; ++j) {
        Arrive(site, service::WorkloadKey(options_, site, pos + j));
      }
    }
    pos += length;
    replayed += length;
    EndRun();
  }
  return replayed;
}

void Replayer::OnMessage(Message&& msg) {
  bool timed = tap_ == Tap::kTimed;
  uint64_t t0 = timed ? NowNs() : 0;
  frame_.clear();
  disttrack::sim::wire::EncodeFrame(msg, ++seq_, &frame_);
  uint64_t t1 = timed ? NowNs() : 0;
  reader_.Append(frame_.data(), frame_.size());
  Message decoded;
  uint64_t seq = 0;
  bool ok = reader_.Next(&decoded, &seq) == FrameReader::Result::kFrame &&
            seq == seq_;
  uint64_t t2 = timed ? NowNs() : 0;
  if (ok) {
    if (count_replica_) count_replica_->Apply(decoded);
    if (frequency_replica_) frequency_replica_->Apply(decoded);
    if (rank_replica_) rank_replica_->Apply(decoded);
  } else {
    decode_ok_ = false;
  }
  frames_ += 1;
  frame_bytes_ += frame_.size();
  if (!timed) return;
  uint64_t t3 = NowNs();
  encode_ns_ += t1 - t0;
  decode_ns_ += t2 - t1;
  apply_ns_ += t3 - t2;
  frame_ns_ += t3 - t0;
  uint32_t frame_span = spans_.Open("frame", run_span_, t0);
  spans_.Close(frame_span, t3);
  spans_.Add("sim.wire.encode", frame_span, t0, t1);
  spans_.Add("service.framing.decode", frame_span, t1, t2);
  spans_.Add("sim.replica.apply", frame_span, t2, t3);
}

double Replayer::EstimateCount() const {
  return count_ ? count_->EstimateCount() : 0;
}

double Replayer::EstimateRank(uint64_t value) const {
  return rank_ ? rank_->EstimateRank(value) : 0;
}

const sim::CommMeter& Replayer::meter() const {
  if (count_) return count_->meter();
  if (frequency_) return frequency_->meter();
  return rank_->meter();
}

uint64_t Replayer::MaxSiteSpaceWords() const {
  if (count_) return count_->space().MaxPeak();
  if (frequency_) return frequency_->space().MaxPeak();
  return rank_->space().MaxPeak();
}

std::vector<uint64_t> Replayer::ReplicaQuery(uint64_t kind,
                                             uint64_t param) const {
  std::vector<uint64_t> values;
  switch (kind) {
    case service::kQueryCount:
      if (count_replica_) {
        values = {Bits(count_replica_->Estimate(0)),
                  count_replica_->n_prime(), count_replica_->round()};
      }
      break;
    case service::kQueryHeavyHitters:
      if (frequency_replica_) {
        double threshold =
            FromBits(param) * static_cast<double>(frequency_replica_->n_prime());
        for (const auto& [item, est] : frequency_replica_->ItemEstimates()) {
          if (est >= threshold) {
            values.push_back(item);
            values.push_back(Bits(est));
          }
        }
      }
      break;
    case service::kQueryQuantile:
      if (rank_replica_) {
        double target =
            FromBits(param) * static_cast<double>(rank_replica_->n_prime());
        uint64_t lo = 0, hi = options_.universe;
        while (lo < hi) {
          uint64_t mid = lo + (hi - lo) / 2;
          if (rank_replica_->Estimate(mid) < target) lo = mid + 1;
          else hi = mid;
        }
        values = {lo, Bits(rank_replica_->Estimate(lo))};
      }
      break;
    default:
      break;
  }
  return values;
}

double TimeReplicaQueryUs(const Replayer& replay, uint64_t kind,
                          uint64_t param, double budget_s) {
  std::vector<double> us;
  double end = Now() + budget_s;
  while (us.size() < 5 || (Now() < end && us.size() < 2000)) {
    double t0 = Now();
    std::vector<uint64_t> answer = replay.ReplicaQuery(kind, param);
    us.push_back((Now() - t0) * 1e6);
    if (answer.empty()) break;
  }
  return Median(us);
}

}  // namespace perfbench
