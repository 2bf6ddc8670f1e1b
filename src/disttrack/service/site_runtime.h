// The site process: one tracker site behind a socket (tentpole of the
// service PR).
//
// A SiteRuntime connects to the coordinator daemon, joins (or resumes)
// its session, and then drives its shard of the synthetic workload
// through a SiteHalf, one ArriveRun call per granted run. Every frame
// the tracker emits goes through a ReliableSender (uplink sequence
// numbers + dedup on reconnect); every downlink frame goes through a
// ReliableReceiver. The socket is blocking — a site has exactly one thing to wait for at a time:
//
//   * a kGrant before it may run (lockstep admission),
//   * the kBroadcast / kNoBroadcast decision for a coarse report it just
//     sent (the tracker is parked inside the wire tap at the exact
//     program point the serial tracker runs the ritual, so a broadcast
//     decision applies the ritual reentrantly — see site_half.h),
//   * after its stream ends, rituals triggered by other sites, until
//     kShutdown.
//
// Crash recovery: at run boundaries the site writes an atomic snapshot
// (tracker blob + channel cursors). On restart it restores the snapshot,
// rejoins with the resume flag, and replays forward: regenerated uplink
// frames carry their original sequence numbers (the coordinator drops
// them as duplicates — this is the no-double-counting mechanism), and the
// coordinator re-blasts every downlink frame past the snapshot's
// watermark, which re-delivers every grant and decision the replay will
// block on, in the original order. docs/OPERATIONS.md walks through the
// recovery matrix.

#ifndef DISTTRACK_SERVICE_SITE_RUNTIME_H_
#define DISTTRACK_SERVICE_SITE_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_half.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class SiteRuntime : public sim::wire::WireTap {
 public:
  struct Config {
    ServiceOptions options;
    int site = 0;
    Endpoint endpoint;
    std::string snapshot_dir;  ///< empty = snapshots off
    uint64_t crash_after = 0;  ///< _exit(7) after this many arrivals in
                               ///< this process (0 = never); simulates a
                               ///< hard crash for the recovery tests. On
                               ///< a run boundary it fires after that
                               ///< boundary's snapshot, before the next
                               ///< grant request
    int connected_fd = -1;     ///< already-connected socket to use instead
                               ///< of dialing `endpoint` (fork-based tests)
  };

  explicit SiteRuntime(const Config& config);

  /// Runs the site to completion. Exit codes: 0 orderly shutdown,
  /// 2 join rejected by the coordinator, 3 transport failure.
  int Run();

  /// WireTap: receives every frame the tracker emits. Coarse reports
  /// block here until the coordinator's decision arrives.
  void OnMessage(sim::wire::Message&& msg) override;

  uint64_t position() const { return position_; }

 private:
  bool Join(std::string* error);
  void StageUp(const sim::wire::Message& msg, uint64_t* seq_out);
  void SendUnseq(const sim::wire::Message& msg);
  bool Flush();
  bool ReadFrame(sim::wire::Message* msg, uint64_t* seq);
  /// Routes one raw downlink frame; `waiting_seq` != 0 while parked on a
  /// coarse-report decision (matching kBroadcast.c / kNoBroadcast.a
  /// resolves the wait).
  bool HandleDown(sim::wire::Message msg, uint64_t seq, uint64_t waiting_seq,
                  bool* resolved);
  bool AwaitDecision(uint64_t report_seq);
  void MaybeSnapshot();
  void Fail(const std::string& what);

  Config config_;
  uint64_t options_hash_ = 0;
  std::unique_ptr<SiteHalf> half_;

  int fd_ = -1;
  FrameReader reader_;
  std::vector<uint8_t> outbuf_;
  sim::ReliableSender up_send_;
  sim::ReliableReceiver down_recv_;
  uint64_t last_acked_ = 0;  ///< downlink watermark last advertised

  uint64_t position_ = 0;           ///< arrivals absorbed (ever)
  uint64_t arrivals_in_process_ = 0;  ///< arrivals since this exec
  uint64_t last_snapshot_pos_ = 0;
  uint64_t round_ = 0;  ///< latest broadcast round seen (epoch stamp)
  std::deque<uint64_t> pending_grants_;
  bool resumed_ = false;
  bool shutdown_ = false;
  bool failed_ = false;
  std::string fail_reason_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_RUNTIME_H_
