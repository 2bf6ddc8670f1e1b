#include "disttrack/service/site_core.h"

#include <algorithm>

#include "disttrack/service/coordinator_core.h"

namespace disttrack {
namespace service {

namespace {
using sim::wire::Message;
using sim::wire::MsgType;
}  // namespace

SiteCore::SiteCore(const Config& config, Link* link, SnapshotStore* store)
    : config_(config),
      options_hash_(config.options.Hash()),
      link_(link),
      store_(store) {
  Reset();
}

void SiteCore::Reset() {
  half_ = SiteHalf::Create(config_.options, config_.site);
  half_->set_wire_tap(this);
  up_next_seq_ = 1;
  down_recv_.Reset(0);
  last_acked_ = 0;
  position_ = 0;
  last_snapshot_pos_ = 0;
  round_ = 0;
  pending_grants_.clear();
  resumed_ = false;
}

void SiteCore::Fail(const std::string& what) {
  if (!failed_) {
    failed_ = true;
    fail_reason_ = what;
  }
}

uint64_t SiteCore::StageUp(const Message& msg) {
  sim::wire::EncodeFrame(msg, up_next_seq_, &outbuf_);
  return up_next_seq_++;
}

void SiteCore::SendUnseq(const Message& msg) {
  sim::wire::EncodeFrame(msg, 0, &outbuf_);
}

bool SiteCore::Flush() {
  if (failed_) return false;
  if (down_recv_.watermark() != last_acked_) {
    Message ack;
    ack.type = MsgType::kAck;
    ack.site = config_.site;
    ack.a = down_recv_.watermark();
    SendUnseq(ack);
    last_acked_ = down_recv_.watermark();
  }
  if (outbuf_.empty()) return true;
  if (!link_->Send(outbuf_)) {
    Fail("coordinator closed the connection");
    return false;
  }
  outbuf_.clear();
  return true;
}

bool SiteCore::NextFrame(Message* msg, uint64_t* seq) {
  switch (reader_.Next(msg, seq)) {
    case FrameReader::Result::kFrame:
      return true;
    case FrameReader::Result::kError:
      Fail("downlink " + reader_.error());
      return false;
    case FrameReader::Result::kNeed:
      break;
  }
  return false;
}

// --- Session --------------------------------------------------------------

void SiteCore::Start() {
  SiteSnapshot snap;
  if (store_ != nullptr && store_->Load(&snap)) {
    half_->Restore(snap.blob);
    up_next_seq_ = snap.up_next_seq;
    down_recv_.Reset(snap.down_watermark);
    last_acked_ = snap.down_watermark;
    position_ = snap.site_arrivals;
    last_snapshot_pos_ = position_;
    resumed_ = true;
  }
  SendJoin();
}

void SiteCore::SendJoin() {
  Message join;
  join.type = MsgType::kJoin;
  join.site = config_.site;
  join.a = resumed_ ? 1 : 0;
  join.b = options_hash_;
  join.c = position_;
  SendUnseq(join);

  Message hello;
  hello.type = MsgType::kHello;
  hello.site = config_.site;
  hello.a = up_next_seq_;
  hello.b = down_recv_.watermark();
  SendUnseq(hello);
  state_ = State::kJoining;
  Flush();
}

void SiteCore::HandleJoinReply(const Message& msg) {
  if (msg.type == MsgType::kAck) return;
  if (msg.type != MsgType::kJoinAck) {
    rejected_ = true;
    Fail("expected kJoinAck, got frame type " +
         std::to_string(static_cast<int>(msg.type)));
    return;
  }
  if (msg.a == kJoinSnapshotAhead && resumed_) {
    // The coordinator never received frames the snapshot covers: start
    // over from position 0 on the same stream.
    store_->Discard();
    Reset();
    SendJoin();
    return;
  }
  if (msg.a != kJoinOk) {
    rejected_ = true;
    Fail("coordinator rejected join, status " + std::to_string(msg.a));
    return;
  }
  state_ = State::kBoundary;
}

// --- Driving --------------------------------------------------------------

void SiteCore::Advance() {
  while (!finished()) {
    Message msg;
    uint64_t seq = 0;
    switch (state_) {
      case State::kJoining:
        if (!NextFrame(&msg, &seq)) return;
        HandleJoinReply(msg);
        break;
      case State::kBoundary:
        Boundary();
        break;
      case State::kAwaitGrant:
        if (!pending_grants_.empty()) {
          RunGrant();
          break;
        }
        [[fallthrough]];
      case State::kResident:
        if (!NextFrame(&msg, &seq)) return;
        if (HandleDown(std::move(msg), seq, 0, nullptr)) {
          Flush();  // ritual acks / corrections staged by the frame
        }
        break;
    }
  }
  if (shutdown_) Flush();
}

void SiteCore::Boundary() {
  MaybeSnapshot();
  if (failed_) return;
  const uint64_t shard = ShardSize(config_.options, config_.site);
  if (position_ < shard) {
    // A halt on a run boundary fires here, right after the boundary's
    // snapshot and before the next request goes out.
    if (config_.halt_after != 0 &&
        arrivals_in_process_ == config_.halt_after) {
      halted_ = true;
      return;
    }
    Message request;
    request.type = MsgType::kGrantRequest;
    request.site = config_.site;
    request.a = std::min(shard - position_, config_.options.grant_max);
    StageUp(request);
    Flush();
    state_ = State::kAwaitGrant;
    return;
  }
  // End of stream: tell the coordinator, then stay resident — rituals
  // triggered by other sites still need this site's thinning draws.
  Message eof;
  eof.type = MsgType::kGrantRequest;
  eof.site = config_.site;
  eof.a = 0;
  StageUp(eof);
  Flush();
  state_ = State::kResident;
}

void SiteCore::RunGrant() {
  uint64_t granted = pending_grants_.front();
  pending_grants_.pop_front();
  // The whole grant goes to the half in one call. An armed halt splits
  // the run at the halt index: the arrivals before it are absorbed, then
  // the site stops before the next one.
  uint64_t run = granted;
  bool halt = false;
  if (config_.halt_after != 0 &&
      config_.halt_after - arrivals_in_process_ < granted) {
    run = config_.halt_after - arrivals_in_process_;
    halt = true;
  }
  uint64_t absorbed = half_->ArriveRun(
      position_, run, [this] { return shutdown_ || failed_; });
  position_ += absorbed;
  arrivals_in_process_ += absorbed;
  if (shutdown_ || failed_) return;
  if (halt) {
    halted_ = true;  // no flush, no snapshot, no goodbye
    return;
  }
  // Staged only: the next request (or the end-of-stream frame) goes out
  // in the same write, one uplink send per grant boundary.
  Message done;
  done.type = MsgType::kGrantDone;
  done.site = config_.site;
  done.a = position_;
  StageUp(done);
  state_ = State::kBoundary;
}

bool SiteCore::HandleDown(Message msg, uint64_t seq, uint64_t waiting_seq,
                          bool* resolved) {
  if (msg.type == MsgType::kAck) return true;      // nothing to trim
  if (msg.type == MsgType::kJoinAck) return true;  // late duplicate
  switch (down_recv_.Accept(seq)) {
    case sim::ReliableReceiver::Verdict::kDeliver:
      break;
    case sim::ReliableReceiver::Verdict::kDuplicate:
      return true;
    case sim::ReliableReceiver::Verdict::kGap:
      Fail("downlink sequence gap at " + std::to_string(seq));
      return false;
  }
  switch (msg.type) {
    case MsgType::kGrant:
      pending_grants_.push_back(msg.a);
      break;
    case MsgType::kBroadcast: {
      round_ = msg.a;
      half_->ApplyRitual(msg.b);
      Message ritual_ack;
      ritual_ack.type = MsgType::kRitualAck;
      ritual_ack.site = config_.site;
      ritual_ack.epoch = round_;
      ritual_ack.a = seq;
      ritual_ack.b = position_;
      StageUp(ritual_ack);
      if (waiting_seq != 0 && msg.c == waiting_seq) *resolved = true;
      break;
    }
    case MsgType::kNoBroadcast:
      if (waiting_seq != 0 && msg.a == waiting_seq) {
        *resolved = true;
      } else {
        Fail("unexpected kNoBroadcast for uplink seq " +
             std::to_string(msg.a));
        return false;
      }
      break;
    case MsgType::kShutdown:
      shutdown_ = true;
      break;
    default:
      Fail("unexpected downlink frame type " +
           std::to_string(static_cast<int>(msg.type)));
      return false;
  }
  return true;
}

void SiteCore::AwaitDecision(uint64_t report_seq) {
  bool resolved = false;
  while (!resolved && !shutdown_ && !failed_) {
    Message msg;
    uint64_t seq = 0;
    if (NextFrame(&msg, &seq)) {
      HandleDown(std::move(msg), seq, report_seq, &resolved);
    } else if (!failed_ && !link_->Await(&reader_)) {
      Fail("coordinator closed the connection");
    }
  }
}

void SiteCore::OnMessage(Message&& msg) {
  if (failed_ || shutdown_) return;
  msg.epoch = round_;
  bool is_report = msg.type == MsgType::kCoarseReport;
  uint64_t seq = StageUp(msg);
  if (is_report) {
    // The tracker is parked at its §1.1 send point: flush the report and
    // wait for the coordinator's decision. A positive decision applies
    // the ritual reentrantly from HandleDown before this returns.
    if (!Flush()) return;
    AwaitDecision(seq);
  }
}

void SiteCore::MaybeSnapshot() {
  if (store_ == nullptr || config_.options.snapshot_every == 0) return;
  if (position_ - last_snapshot_pos_ < config_.options.snapshot_every) return;
  if (!half_->SnapshotReady()) return;  // retry at the next run boundary
  // The snapshot's up_next_seq must not cover a staged, unsent frame: a
  // crash right after the save would leave a sequence gap that the
  // coordinator waits on forever.
  if (!Flush()) return;
  SiteSnapshot snap;
  snap.options_hash = options_hash_;
  snap.site = config_.site;
  snap.site_arrivals = position_;
  snap.up_next_seq = up_next_seq_;
  snap.down_watermark = down_recv_.watermark();
  half_->Serialize(&snap.blob);
  // A failed save is not fatal: recovery replays from the previous one.
  if (store_->Save(snap)) last_snapshot_pos_ = position_;
}

}  // namespace service
}  // namespace disttrack
