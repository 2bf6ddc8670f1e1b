#include "disttrack/service/site_runtime.h"

#include <errno.h>
#include <unistd.h>

#include <cstdio>

namespace disttrack {
namespace service {

namespace {
using sim::wire::Message;
using sim::wire::MsgType;
}  // namespace

SiteRuntime::SiteRuntime(const Config& config)
    : config_(config), options_hash_(config.options.Hash()) {
  half_ = SiteHalf::Create(config_.options, config_.site);
  half_->set_wire_tap(this);
}

void SiteRuntime::Fail(const std::string& what) {
  if (!failed_) {
    failed_ = true;
    fail_reason_ = what;
  }
}

void SiteRuntime::StageUp(const Message& msg, uint64_t* seq_out) {
  std::vector<uint8_t> frame;
  uint64_t seq = up_send_.Stage(msg, 0, &frame);
  outbuf_.insert(outbuf_.end(), frame.begin(), frame.end());
  if (seq_out != nullptr) *seq_out = seq;
}

void SiteRuntime::SendUnseq(const Message& msg) {
  sim::wire::EncodeFrame(msg, 0, &outbuf_);
}

bool SiteRuntime::Flush() {
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
  if (!WriteAll(fd_, outbuf_.data(), outbuf_.size())) {
    Fail(errno == EPIPE || errno == ECONNRESET
             ? "coordinator closed the connection"
             : "write to coordinator failed");
    return false;
  }
  outbuf_.clear();
  return true;
}

bool SiteRuntime::ReadFrame(Message* msg, uint64_t* seq) {
  uint8_t buf[65536];
  for (;;) {
    switch (reader_.Next(msg, seq)) {
      case FrameReader::Result::kFrame:
        return true;
      case FrameReader::Result::kError:
        Fail("downlink " + reader_.error());
        return false;
      case FrameReader::Result::kNeed:
        break;
    }
    long n = ReadSome(fd_, buf, sizeof(buf));
    if (n == 0) {
      Fail("coordinator closed the connection");
      return false;
    }
    if (n < 0) {
      Fail("read from coordinator failed");
      return false;
    }
    reader_.Append(buf, static_cast<size_t>(n));
  }
}

bool SiteRuntime::HandleDown(Message msg, uint64_t seq, uint64_t waiting_seq,
                             bool* resolved) {
  if (msg.type == MsgType::kAck) {
    up_send_.Ack(msg.a);
    return true;
  }
  if (msg.type == MsgType::kJoinAck) return true;  // late duplicate
  // Every other downlink frame is sequenced. Delivered messages come out
  // of the receiver in contiguous sequence order, so the i-th delivery of
  // this batch has sequence watermark_before + 1 + i (needed for
  // kRitualAck, which names the broadcast's downlink seq).
  uint64_t before = down_recv_.watermark();
  std::vector<Message> delivered;
  down_recv_.Accept(seq, std::move(msg), &delivered);
  for (size_t i = 0; i < delivered.size(); ++i) {
    Message& d = delivered[i];
    uint64_t dseq = before + 1 + i;
    switch (d.type) {
      case MsgType::kGrant:
        pending_grants_.push_back(d.a);
        break;
      case MsgType::kBroadcast: {
        round_ = d.a;
        half_->ApplyRitual(d.b);
        Message ritual_ack;
        ritual_ack.type = MsgType::kRitualAck;
        ritual_ack.site = config_.site;
        ritual_ack.epoch = round_;
        ritual_ack.a = dseq;
        ritual_ack.b = position_;
        StageUp(ritual_ack, nullptr);
        if (waiting_seq != 0 && d.c == waiting_seq && resolved != nullptr) {
          *resolved = true;
        }
        break;
      }
      case MsgType::kNoBroadcast:
        if (waiting_seq != 0 && d.a == waiting_seq && resolved != nullptr) {
          *resolved = true;
        } else {
          Fail("unexpected kNoBroadcast for uplink seq " +
               std::to_string(d.a));
          return false;
        }
        break;
      case MsgType::kShutdown:
        shutdown_ = true;
        break;
      default:
        Fail("unexpected downlink frame type " +
             std::to_string(static_cast<int>(d.type)));
        return false;
    }
  }
  return true;
}

bool SiteRuntime::AwaitDecision(uint64_t report_seq) {
  bool resolved = false;
  while (!resolved && !shutdown_ && !failed_) {
    Message msg;
    uint64_t seq = 0;
    if (!ReadFrame(&msg, &seq)) return false;
    if (!HandleDown(std::move(msg), seq, report_seq, &resolved)) return false;
  }
  return !failed_;
}

void SiteRuntime::OnMessage(Message&& msg) {
  if (failed_ || shutdown_) return;
  msg.epoch = round_;
  bool is_report = msg.type == MsgType::kCoarseReport;
  uint64_t seq = 0;
  StageUp(msg, &seq);
  if (is_report) {
    // The tracker is parked at its §1.1 send point: flush the report and
    // block until the coordinator's decision. A positive decision applies
    // the ritual reentrantly from HandleDown before this returns.
    if (!Flush()) return;
    AwaitDecision(seq);
  }
}

void SiteRuntime::MaybeSnapshot() {
  if (config_.snapshot_dir.empty() || config_.options.snapshot_every == 0) {
    return;
  }
  if (position_ - last_snapshot_pos_ < config_.options.snapshot_every) return;
  if (!half_->SnapshotReady()) return;  // retry at the next run boundary
  // The snapshot's up_next_seq must not cover a staged, unsent frame: a
  // crash right after the write would leave a sequence gap that the
  // coordinator waits on forever.
  if (!Flush()) return;
  SiteSnapshot snap;
  snap.options_hash = options_hash_;
  snap.site = config_.site;
  snap.site_arrivals = position_;
  snap.up_next_seq = up_send_.next_seq();
  snap.down_watermark = down_recv_.watermark();
  half_->Serialize(&snap.blob);
  std::string error;
  if (!WriteSnapshotFile(SnapshotPath(config_.snapshot_dir, config_.site),
                         snap, &error)) {
    fprintf(stderr, "site %d: snapshot failed: %s\n", config_.site,
            error.c_str());
    return;  // non-fatal: recovery just replays from the previous one
  }
  last_snapshot_pos_ = position_;
}

bool SiteRuntime::Join(std::string* error) {
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
  hello.a = up_send_.next_seq();
  hello.b = down_recv_.watermark();
  SendUnseq(hello);
  if (!Flush()) {
    *error = fail_reason_;
    return false;
  }

  for (;;) {
    Message msg;
    uint64_t seq = 0;
    if (!ReadFrame(&msg, &seq)) {
      *error = fail_reason_;
      return false;
    }
    if (msg.type == MsgType::kAck) {
      up_send_.Ack(msg.a);
      continue;
    }
    if (msg.type != MsgType::kJoinAck) {
      *error = "expected kJoinAck, got frame type " +
               std::to_string(static_cast<int>(msg.type));
      return false;
    }
    if (msg.a != 0) {
      *error = "coordinator rejected join, status " + std::to_string(msg.a);
      return false;
    }
    return true;
  }
}

int SiteRuntime::Run() {
  // Resume from the latest snapshot, if one matches this fleet's options.
  if (!config_.snapshot_dir.empty()) {
    SiteSnapshot snap;
    if (ReadSnapshotFile(SnapshotPath(config_.snapshot_dir, config_.site),
                         options_hash_, &snap) &&
        snap.site == config_.site) {
      half_->Restore(snap.blob);
      up_send_.Reset(snap.up_next_seq);
      down_recv_.Reset(snap.down_watermark);
      last_acked_ = snap.down_watermark;
      position_ = snap.site_arrivals;
      last_snapshot_pos_ = position_;
      resumed_ = true;
    }
  }

  std::string error;
  fd_ = config_.connected_fd >= 0 ? config_.connected_fd
                                  : Dial(config_.endpoint, 10000, &error);
  if (fd_ < 0) {
    fprintf(stderr, "site %d: %s\n", config_.site, error.c_str());
    return 3;
  }
  if (!Join(&error)) {
    fprintf(stderr, "site %d: %s\n", config_.site, error.c_str());
    close(fd_);
    return 2;
  }

  const uint64_t shard = ShardSize(config_.options, config_.site);
  while (position_ < shard && !shutdown_ && !failed_) {
    MaybeSnapshot();
    // An armed crash on a run boundary fires here, right after the
    // boundary's snapshot and before the next request goes out.
    if (config_.crash_after != 0 &&
        arrivals_in_process_ == config_.crash_after) {
      _exit(7);
    }
    uint64_t want = shard - position_;
    if (want > config_.options.grant_max) want = config_.options.grant_max;
    Message request;
    request.type = MsgType::kGrantRequest;
    request.site = config_.site;
    request.a = want;
    StageUp(request, nullptr);
    if (!Flush()) break;

    while (pending_grants_.empty() && !shutdown_ && !failed_) {
      Message msg;
      uint64_t seq = 0;
      if (!ReadFrame(&msg, &seq)) break;
      if (!HandleDown(std::move(msg), seq, 0, nullptr)) break;
      if (!Flush()) break;  // ritual acks / corrections staged mid-wait
    }
    if (shutdown_ || failed_) break;
    uint64_t granted = pending_grants_.front();
    pending_grants_.pop_front();

    // The whole grant goes to the half in one call. An armed crash splits
    // the run at the crash index: the arrivals before it are absorbed,
    // then the process dies before the next one.
    uint64_t run = granted;
    bool crash = false;
    if (config_.crash_after != 0 &&
        config_.crash_after - arrivals_in_process_ < granted) {
      run = config_.crash_after - arrivals_in_process_;
      crash = true;
    }
    uint64_t absorbed = half_->ArriveRun(
        position_, run, [this] { return shutdown_ || failed_; });
    position_ += absorbed;
    arrivals_in_process_ += absorbed;
    if (shutdown_ || failed_) break;
    if (crash) _exit(7);  // hard crash: no flush, no snapshot, no goodbye
    // Staged only: the next request (or the end-of-stream frame) goes
    // out in the same write, one uplink send per grant boundary.
    Message done;
    done.type = MsgType::kGrantDone;
    done.site = config_.site;
    done.a = position_;
    StageUp(done, nullptr);
  }

  if (!shutdown_ && !failed_) {
    MaybeSnapshot();
    // End of stream: tell the coordinator, then stay resident — rituals
    // triggered by other sites still need this site's thinning draws.
    Message eof;
    eof.type = MsgType::kGrantRequest;
    eof.site = config_.site;
    eof.a = 0;
    StageUp(eof, nullptr);
    Flush();
    while (!shutdown_ && !failed_) {
      Message msg;
      uint64_t seq = 0;
      if (!ReadFrame(&msg, &seq)) break;
      if (!HandleDown(std::move(msg), seq, 0, nullptr)) break;
      if (!Flush()) break;
    }
  }

  if (failed_) {
    fprintf(stderr, "site %d: %s\n", config_.site, fail_reason_.c_str());
    close(fd_);
    return 3;
  }
  Flush();
  close(fd_);
  return 0;
}

}  // namespace service
}  // namespace disttrack
