// One site's protocol, with no I/O of its own: a SiteHalf (one tracker
// site) plus the session around it — uplink sequencing, the downlink
// watermark, pending grants, the round, ritual acks, position and the
// snapshot cursors.
//
// Downlink frames are consumed lazily, in stream order, only as far as
// the site's progress needs them: up to the kJoinAck while joining, up
// to the next kGrant before a run, up to the decision for a coarse
// report the tracker is parked on (a broadcast applies the ritual
// reentrantly, at the serial tracker's program point; see site_half.h),
// and everything once the stream has ended. That is what makes resuming
// exact: a resumed site gets the coordinator's re-blast in one burst and
// applies each frame where its replay reaches the original position.
//
// I/O goes through two seams. A Link carries bytes: Send for every
// write, Await for the one blocking wait left, the coarse-report
// decision inside the wire tap. The daemon's Link is the socket; the
// pump's hands the bytes to a CoordinatorCore, which decides on the
// report alone. Otherwise the driver appends downlink bytes to reader()
// and calls Advance. A SnapshotStore keeps the resume state: files in
// the daemon (site_runtime.h), memory in the pump.
//
// Crash recovery: snapshots are taken at run boundaries. A restored site
// rejoins and replays forward; its regenerated uplink frames carry their
// original sequence numbers, which the coordinator drops as duplicates
// (no double counting). A snapshot ahead of the coordinator (the stream
// was cut after the site wrote frames it covers) is refused at the join
// (kJoinSnapshotAhead); the site discards it and joins from position 0.

#ifndef DISTTRACK_SERVICE_SITE_CORE_H_
#define DISTTRACK_SERVICE_SITE_CORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_half.h"
#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class SiteCore : public sim::wire::WireTap {
 public:
  /// The site's byte stream to the coordinator.
  class Link {
   public:
    virtual ~Link() = default;
    /// Delivers all of `bytes`, in order. False once the stream is gone.
    virtual bool Send(const std::vector<uint8_t>& bytes) = 0;
    /// Waits for downlink bytes and appends them to `reader`. False once
    /// the stream is gone.
    virtual bool Await(FrameReader* reader) = 0;
  };

  /// Durable resume state between crashes.
  class SnapshotStore {
   public:
    virtual ~SnapshotStore() = default;
    /// The newest snapshot of this site and fleet, if any.
    virtual bool Load(SiteSnapshot* out) = 0;
    virtual bool Save(const SiteSnapshot& snapshot) = 0;
    virtual void Discard() = 0;
  };

  struct Config {
    ServiceOptions options;
    int site = 0;
    /// Stop after this many arrivals in this incarnation (0 = never):
    /// the daemon's --crash-after and the pump's crash plan. On a run
    /// boundary the halt comes after that boundary's snapshot, before
    /// the next grant request; inside a run it splits the run.
    uint64_t halt_after = 0;
  };

  /// `store` may be null (snapshots off). Both must outlive the core.
  SiteCore(const Config& config, Link* link, SnapshotStore* store);

  /// Restores the newest snapshot, if any, and sends kJoin + kHello.
  void Start();

  /// Takes every step the bytes in reader() allow: join, grant runs,
  /// boundary snapshots and requests, rituals.
  void Advance();

  /// Where the driver appends downlink bytes between Advance calls.
  FrameReader* reader() { return &reader_; }

  /// Advance has nothing more to do, ever.
  bool finished() const { return shutdown_ || failed_ || halted_; }
  bool shutdown() const { return shutdown_; }  ///< kShutdown seen
  bool halted() const { return halted_; }      ///< halt_after reached
  bool failed() const { return failed_; }
  bool rejected() const { return rejected_; }  ///< the join was refused
  const std::string& fail_reason() const { return fail_reason_; }

  uint64_t position() const { return position_; }

  /// WireTap: receives every frame the tracker emits. Coarse reports
  /// wait here, on the Link, until the coordinator's decision arrives.
  void OnMessage(sim::wire::Message&& msg) override;

 private:
  enum class State { kJoining, kBoundary, kAwaitGrant, kResident };

  void Reset();
  void SendJoin();
  void HandleJoinReply(const sim::wire::Message& msg);
  void Boundary();
  void RunGrant();
  uint64_t StageUp(const sim::wire::Message& msg);
  void SendUnseq(const sim::wire::Message& msg);
  bool Flush();
  bool NextFrame(sim::wire::Message* msg, uint64_t* seq);
  /// Routes one raw downlink frame; `waiting_seq` != 0 while parked on a
  /// coarse-report decision (matching kBroadcast.c / kNoBroadcast.a
  /// sets *resolved).
  bool HandleDown(sim::wire::Message msg, uint64_t seq, uint64_t waiting_seq,
                  bool* resolved);
  void AwaitDecision(uint64_t report_seq);
  void MaybeSnapshot();
  void Fail(const std::string& what);

  Config config_;
  uint64_t options_hash_ = 0;
  Link* link_;
  SnapshotStore* store_;
  std::unique_ptr<SiteHalf> half_;

  State state_ = State::kJoining;
  FrameReader reader_;
  std::vector<uint8_t> outbuf_;
  uint64_t up_next_seq_ = 1;  ///< uplink sequence counter
  sim::ReliableReceiver down_recv_;
  uint64_t last_acked_ = 0;  ///< downlink watermark last advertised

  uint64_t position_ = 0;             ///< arrivals absorbed (ever)
  uint64_t arrivals_in_process_ = 0;  ///< arrivals in this incarnation
  uint64_t last_snapshot_pos_ = 0;
  uint64_t round_ = 0;  ///< latest broadcast round seen (epoch stamp)
  std::deque<uint64_t> pending_grants_;
  bool resumed_ = false;
  bool shutdown_ = false;
  bool halted_ = false;
  bool failed_ = false;
  bool rejected_ = false;
  std::string fail_reason_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_CORE_H_
