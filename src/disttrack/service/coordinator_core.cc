#include "disttrack/service/coordinator_core.h"

#include <string.h>

#include <algorithm>

namespace disttrack {
namespace service {

namespace {

using sim::wire::Message;
using sim::wire::MsgType;

uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The tracker data frames each tracker kind emits through its tap.
bool EmittedBy(TrackerKind tracker, MsgType type) {
  switch (type) {
    case MsgType::kCoarseReport:
      return true;
    case MsgType::kCoinReport:
    case MsgType::kCorrection:
      return tracker == TrackerKind::kCount;
    case MsgType::kCounterReport:
    case MsgType::kSampleForward:
    case MsgType::kSplitNotice:
      return tracker == TrackerKind::kFrequency;
    case MsgType::kRankSummary:
    case MsgType::kRankResidual:
      return tracker == TrackerKind::kRank;
    default:
      return false;
  }
}

}  // namespace

CoordinatorCore::CoordinatorCore(const ServiceOptions& options)
    : options_(options),
      options_hash_(options.Hash()),
      sessions_(static_cast<size_t>(options.num_sites)),
      granted_(static_cast<size_t>(options.num_sites), 0) {
  switch (options_.tracker) {
    case TrackerKind::kCount:
      count_replica_ =
          std::make_unique<sim::CountReplica>(options_.CountOptions());
      break;
    case TrackerKind::kFrequency:
      frequency_replica_ = std::make_unique<sim::FrequencyReplica>(
          options_.FrequencyOptions());
      break;
    case TrackerKind::kRank:
      rank_replica_ =
          std::make_unique<sim::RankReplica>(options_.RankOptions());
      break;
  }
}

CoordinatorCore::~CoordinatorCore() = default;

bool CoordinatorCore::AllSitesDone() const {
  for (const Session& s : sessions_) {
    if (!Settled(s)) return false;
  }
  return true;
}

bool CoordinatorCore::ShutdownComplete() const {
  if (!shutting_down_) return false;
  for (const Session& s : sessions_) {
    if (s.conn != nullptr) return false;
  }
  return true;
}

uint64_t CoordinatorCore::PendingOutBytes() const {
  uint64_t total = 0;
  for (const auto& entry : conns_) total += entry.second->pending();
  return total;
}

// --- Connection events ----------------------------------------------------

CoordinatorCore::Conn* CoordinatorCore::Find(int conn) const {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : it->second.get();
}

void CoordinatorCore::Open(int conn) {
  conns_[conn] = std::make_unique<Conn>();
}

int CoordinatorCore::Receive(int conn, const uint8_t* data, size_t size) {
  Conn* c = Find(conn);
  if (c == nullptr || c->latched) return 0;
  stats_.bytes_in += size;
  c->reader.Append(data, size);
  int handled = 0;
  while (!c->latched) {
    Message msg;
    uint64_t seq = 0;
    FrameReader::Result r = c->reader.Next(&msg, &seq);
    if (r == FrameReader::Result::kNeed) break;
    if (r == FrameReader::Result::kError) {
      Latch(c);
      break;
    }
    ++handled;
    HandleFrame(c, std::move(msg), seq);
  }
  return handled;
}

size_t CoordinatorCore::Staged(int conn, const uint8_t** data) {
  Conn* c = Find(conn);
  if (c == nullptr || c->pending() == 0) return 0;
  if (c->site >= 0) {
    const Session& s = sessions_[static_cast<size_t>(c->site)];
    if (s.conn == c && s.up.watermark() != c->acked) {
      Message ack;
      ack.type = MsgType::kAck;
      ack.site = c->site;
      ack.a = s.up.watermark();
      AppendFrame(c, ack, 0);
      c->acked = ack.a;
    }
  }
  *data = c->out.data() + c->out_off;
  return c->pending();
}

void CoordinatorCore::Sent(int conn, size_t size) {
  Conn* c = Find(conn);
  if (c == nullptr) return;
  stats_.bytes_out += size;
  c->out_off += size;
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
}

size_t CoordinatorCore::pending(int conn) const {
  Conn* c = Find(conn);
  return c == nullptr ? 0 : c->pending();
}

bool CoordinatorCore::WantsClose(int conn) const {
  Conn* c = Find(conn);
  return c != nullptr &&
         (c->latched || (c->close_after_drain && c->pending() == 0));
}

void CoordinatorCore::Closed(int conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  Detach(it->second.get());
  conns_.erase(it);
}

void CoordinatorCore::Detach(Conn* conn) {
  if (conn->site < 0) return;
  Session& s = sessions_[static_cast<size_t>(conn->site)];
  if (s.conn == conn) s.conn = nullptr;
}

void CoordinatorCore::Latch(Conn* conn) {
  if (conn->latched) return;
  conn->latched = true;
  stats_.rejected += 1;
  conn->out.clear();
  conn->out_off = 0;
  Detach(conn);
}

// --- Output path ----------------------------------------------------------

void CoordinatorCore::AppendFrame(Conn* conn, const Message& msg,
                                  uint64_t seq) {
  size_t before = conn->out.size();
  sim::wire::EncodeFrame(msg, seq, &conn->out);
  stats_.frames_out += 1;
  stats_.encoded_out += conn->out.size() - before;
}

void CoordinatorCore::StageDown(int site, Message msg) {
  Session& s = sessions_[static_cast<size_t>(site)];
  uint64_t seq = s.down_journal.size() + 1;
  if (s.conn != nullptr) AppendFrame(s.conn, msg, seq);
  // Disconnected: the journal keeps the frame; FinishJoin re-stages the
  // suffix past the site's watermark when it comes back.
  s.down_journal.push_back(std::move(msg));
}

// --- Session establishment ------------------------------------------------

void CoordinatorCore::FinishJoin(Conn* conn, const Message& join,
                                 const Message& hello) {
  uint64_t status = kJoinOk;
  int site = join.site;
  Session* s = nullptr;
  if (site < 0 || site >= options_.num_sites) {
    status = kJoinSiteOutOfRange;
  } else {
    s = &sessions_[static_cast<size_t>(site)];
    if (join.b != options_hash_) {
      status = kJoinOptionsMismatch;
    } else if (s->conn != nullptr) {
      status = kJoinDuplicate;
    } else if (hello.b > s->down_journal.size()) {
      status = kJoinCorruptResume;
    } else if (hello.a > s->up.watermark() + 1) {
      status = kJoinSnapshotAhead;
    }
    // A fresh join for a site already counted is fine: its replay from
    // position 0 regenerates the same frames at the same sequence numbers,
    // and dedup swallows them (docs/OPERATIONS.md, recovery matrix).
  }

  uint64_t resend_count =
      status == kJoinOk ? s->down_journal.size() - hello.b : 0;
  Message ack;
  ack.type = MsgType::kJoinAck;
  ack.site = site;
  ack.a = status;
  ack.b = (s != nullptr) ? s->up.watermark() : 0;
  ack.c = resend_count;
  AppendFrame(conn, ack, 0);
  if (status == kJoinSnapshotAhead) {
    stats_.refused_resumes += 1;
    conn->has_join = false;  // the site joins again, from position 0
    return;
  }
  if (status != kJoinOk) {
    conn->close_after_drain = true;
    return;
  }

  conn->site = site;
  conn->acked = ack.b;
  s->conn = conn;
  if (s->ever_joined) stats_.rejoins += 1;
  s->ever_joined = true;

  // Catch-up re-blast: every journaled downlink frame the site has not
  // applied, re-staged in order at its original sequence number. This
  // necessarily includes every grant and broadcast decision the resumed
  // replay will block on — decisions are emitted after the reports that
  // trigger them, so their seqs all exceed the snapshot's watermark.
  for (size_t j = hello.b; j < s->down_journal.size(); ++j) {
    size_t before = conn->out.size();
    AppendFrame(conn, s->down_journal[j], j + 1);
    stats_.resend_frames += 1;
    stats_.resend_bytes += conn->out.size() - before;
  }
}

// --- Scheduler ------------------------------------------------------------

void CoordinatorCore::Grant(int site, uint64_t want, bool exclusive) {
  order_journal_.push_back(GrantEntry{site, want, exclusive});
  Message grant;
  grant.type = MsgType::kGrant;
  grant.site = site;
  grant.a = want;
  grant.b = ++grant_ordinal_;
  StageDown(site, grant);
}

void CoordinatorCore::TrySchedule() {
  // Lockstep only; freerun grants each request as it arrives. Strict
  // rotation keeps the journal a pure function of the options. At most
  // k - 1 grants overlap so that, with k sites on a k-core host, the
  // coordinator on every handoff keeps a core (perfbench
  // rank_lockstep_k4 ingest: run-to-run spread about 15% -> 6%, for about
  // a quarter of the throughput).
  if (options_.mode == RunMode::kFreerun) return;
  const int k = options_.num_sites;
  const int max_in_flight = std::max(1, k - 1);
  while (!exclusive_) {
    int skipped = 0;
    while (skipped < k && sessions_[static_cast<size_t>(turn_)].done) {
      turn_ = (turn_ + 1) % k;
      ++skipped;
    }
    if (skipped == k) return;
    Session& s = sessions_[static_cast<size_t>(turn_)];
    if (s.want == 0) return;  // the turn holder has not asked yet
    if (in_flight_ >= max_in_flight) return;  // the next kGrantDone frees one
    uint64_t& granted = granted_[static_cast<size_t>(turn_)];
    granted += s.want;
    if (!decider_.CannotBroadcast(granted_)) {
      if (in_flight_ > 0) {
        granted -= s.want;
        return;
      }
      exclusive_ = true;
      stats_.exclusive_grants += 1;
    }
    Grant(turn_, s.want, exclusive_);
    s.want = 0;
    s.in_flight = true;
    ++in_flight_;
    stats_.peak_grants_in_flight = std::max(
        stats_.peak_grants_in_flight, static_cast<uint64_t>(in_flight_));
    turn_ = (turn_ + 1) % k;
  }
}

// --- Delivered uplink frames ----------------------------------------------

void CoordinatorCore::DecideCoarse(int site, const Message& report,
                                   uint64_t up_seq) {
  stats_.decisions += 1;
  if (decider_.ApplyReport(report.a)) {
    Message broadcast;
    broadcast.type = MsgType::kBroadcast;
    broadcast.site = -1;
    broadcast.epoch = decider_.round;
    broadcast.a = decider_.round;
    broadcast.b = decider_.n_bar;
    broadcast.paper_words = 1;
    stats_.broadcasts += 1;
    stats_.paper_messages += static_cast<uint64_t>(options_.num_sites);
    stats_.paper_words +=
        sim::wire::PaperWordCharge(broadcast, options_.num_sites);
    for (int target = 0; target < options_.num_sites; ++target) {
      Message copy = broadcast;
      copy.c = (target == site) ? up_seq : 0;
      StageDown(target, copy);
    }
  } else {
    Message quiet;
    quiet.type = MsgType::kNoBroadcast;
    quiet.site = site;
    quiet.a = up_seq;
    StageDown(site, quiet);
  }
}

void CoordinatorCore::ApplyDelivered(int site, Message msg, uint64_t up_seq) {
  uint64_t charge = sim::wire::PaperWordCharge(msg, options_.num_sites);
  if (charge > 0) {
    // A delivered data-plane frame is exactly one §1.1 upload; replays
    // of journaled frames never reach here (sequence dedup).
    stats_.paper_messages += 1;
    stats_.paper_words += charge;
  }
  if (count_replica_) count_replica_->Apply(msg);
  if (frequency_replica_) frequency_replica_->Apply(msg);
  if (rank_replica_) rank_replica_->Apply(msg);

  Session& s = sessions_[static_cast<size_t>(site)];
  switch (msg.type) {
    case MsgType::kCoarseReport:
      DecideCoarse(site, msg, up_seq);
      break;
    case MsgType::kGrantRequest:
      if (msg.a == 0) {
        s.done = true;
        TrySchedule();  // the rotation may be waiting at this site's turn
      } else if (options_.mode == RunMode::kFreerun) {
        Grant(site, msg.a, /*exclusive=*/false);
      } else {
        s.want = msg.a;
        TrySchedule();
      }
      break;
    case MsgType::kGrantDone:
      if (s.in_flight) {
        s.in_flight = false;
        if (--in_flight_ == 0) exclusive_ = false;
        TrySchedule();
      }
      break;
    case MsgType::kRitualAck:
      stats_.rituals_acked += 1;
      s.rituals_acked += 1;
      break;
    default:
      break;  // estimator frames: replica apply above was the whole job
  }
}

bool CoordinatorCore::Admissible(const Conn& conn,
                                 const Message& msg) const {
  if (msg.site != conn.site) return false;
  switch (msg.type) {
    case MsgType::kAck:
    case MsgType::kGrantRequest:
    case MsgType::kGrantDone:
    case MsgType::kRitualAck:
      return true;
    default:
      if (!EmittedBy(options_.tracker, msg.type)) return false;
      return !rank_replica_ || rank_replica_->Admits(msg);
  }
}

void CoordinatorCore::HandleSiteFrame(Conn* conn, Message msg, uint64_t seq) {
  if (!Admissible(*conn, msg)) {
    Latch(conn);
    return;
  }
  // The site's cumulative kAck needs no action: the downlink journal is
  // kept whole for catch-up re-blasts.
  if (msg.type == MsgType::kAck) return;
  Session& s = sessions_[static_cast<size_t>(conn->site)];
  switch (s.up.Accept(seq)) {
    case sim::ReliableReceiver::Verdict::kDeliver:
      ApplyDelivered(conn->site, std::move(msg), seq);
      break;
    case sim::ReliableReceiver::Verdict::kDuplicate:
      break;  // a resumed site's replay: applied before the crash
    case sim::ReliableReceiver::Verdict::kGap:
      Latch(conn);
      break;
  }
}

// --- Queries --------------------------------------------------------------

Message CoordinatorCore::Query(const Message& query) const {
  Message result;
  result.type = MsgType::kQueryResult;
  result.site = -1;
  result.a = query.a;
  result.b = query.b;
  uint64_t n_prime = decider_.n_prime;
  switch (query.a) {
    case kQueryCount: {
      double est = 0;
      if (count_replica_) est = count_replica_->Estimate(0);
      result.values = {Bits(est), n_prime, decider_.round};
      break;
    }
    case kQueryPoint:
      if (frequency_replica_) {
        result.values = {Bits(frequency_replica_->Estimate(query.b))};
      }
      break;
    case kQueryHeavyHitters:
      if (frequency_replica_) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        double threshold = phi * static_cast<double>(n_prime);
        for (const auto& [item, est] : frequency_replica_->ItemEstimates()) {
          if (est >= threshold) {
            result.values.push_back(item);
            result.values.push_back(Bits(est));
          }
        }
      }
      break;
    case kQueryRank:
      if (rank_replica_) {
        result.values = {Bits(rank_replica_->Estimate(query.b))};
      }
      break;
    case kQueryQuantile:
      if (rank_replica_) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        auto [value, est] = rank_replica_->Quantile(
            phi * static_cast<double>(n_prime), options_.universe);
        result.values = {value, Bits(est)};
      }
      break;
    case kQueryStats: {
      uint64_t sites_done = 0, dup_frames = 0;
      for (const Session& s : sessions_) {
        if (Settled(s)) ++sites_done;
        dup_frames += s.up.duplicates();
      }
      uint64_t pending_out = PendingOutBytes();
      uint64_t ledger_ok =
          (stats_.bytes_in == stats_.encoded_in &&
           stats_.bytes_out + pending_out == stats_.encoded_out)
              ? 1
              : 0;
      result.values = {sites_done,
                       static_cast<uint64_t>(options_.num_sites),
                       stats_.frames_in,
                       stats_.frames_out,
                       stats_.bytes_in,
                       stats_.bytes_out,
                       stats_.encoded_in,
                       stats_.encoded_out,
                       pending_out,
                       stats_.resend_frames,
                       stats_.resend_bytes,
                       dup_frames,
                       stats_.paper_messages,
                       stats_.paper_words,
                       stats_.broadcasts,
                       stats_.rejoins,
                       stats_.decisions,
                       ledger_ok};
      break;
    }
    case kQueryJournal:
      for (const GrantEntry& entry : order_journal_) {
        result.values.push_back(static_cast<uint64_t>(entry.site));
        result.values.push_back(entry.length);
      }
      break;
    default:
      break;  // unknown kind: empty result, c = 0
  }
  result.c = result.values.size();
  return result;
}

void CoordinatorCore::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  for (int site = 0; site < options_.num_sites; ++site) {
    Message bye;
    bye.type = MsgType::kShutdown;
    bye.site = site;
    bye.a = 0;
    StageDown(site, bye);
  }
}

// --- Frame dispatch -------------------------------------------------------

void CoordinatorCore::HandleFrame(Conn* conn, Message msg, uint64_t seq) {
  stats_.frames_in += 1;
  stats_.encoded_in += sim::wire::EncodedSize(msg);

  if (conn->site >= 0) {
    HandleSiteFrame(conn, std::move(msg), seq);
    return;
  }
  // Unidentified connection: the first frame decides what it is.
  switch (msg.type) {
    case MsgType::kJoin:
      if (conn->has_join) {
        Latch(conn);  // a second join before the hello
        break;
      }
      conn->join = std::move(msg);
      conn->has_join = true;
      break;
    case MsgType::kHello:
      if (!conn->has_join) {
        Latch(conn);
        break;
      }
      FinishJoin(conn, conn->join, msg);
      break;
    case MsgType::kQuery:
      AppendFrame(conn, Query(msg), 0);
      break;
    case MsgType::kShutdown:
      BeginShutdown();
      break;
    case MsgType::kAck:
      break;
    default:
      Latch(conn);  // data before the join
      break;
  }
}

}  // namespace service
}  // namespace disttrack
