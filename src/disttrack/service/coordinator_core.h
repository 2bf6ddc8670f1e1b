// The coordinator's protocol, with no I/O: a pure state machine over
// connection events.
//
// CoordinatorCore owns the state the sites must agree on: the coarse
// threshold (one CoarseMirror decides every broadcast), the estimator
// replicas (sim/replica.h, bit-identical to the serial tracker's
// coordinator half), the lockstep scheduler with its grant journal, and
// per-site sessions with downlink journals for reconnect catch-up.
// Queries are answered from the replicas at any time.
//
// Inputs are connection events (Open, Receive, Sent, Closed); outputs
// are staged bytes per connection (Staged) and close requests
// (WantsClose). No fd, poll or clock: the daemon's poll loop
// (coordinator.h) and the in-process pump (fleet_pump.h) drive the same
// code.
//
// Lockstep admission is certified and concurrent: grants go out in
// strict site rotation, at most k - 1 in flight, and overlap only when
// CoarseMirror::CannotBroadcast certifies that no interleaving of the
// granted runs can broadcast; any other grant runs alone on a drained
// fleet. Broadcasts are staged on every site's FIFO downlink before any
// later grant, so the fleet stays bit-identical to the serial replay of
// the journal (docs/ARCHITECTURE.md, determinism tiers). A site that
// dies mid-grant stalls the rotation at its turn until it resumes
// (docs/OPERATIONS.md).
//
// Hostile input: a frame no honest site sends closes its connection
// before any replica sees it (docs/WIRE_PROTOCOL.md, "Frames the
// coordinator refuses"); the session stays free for the site to resume.

#ifndef DISTTRACK_SERVICE_COORDINATOR_CORE_H_
#define DISTTRACK_SERVICE_COORDINATOR_CORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/sim/replica.h"
#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

/// kQuery.a values (parameters in kQuery.b; doubles bit-cast to u64).
enum QueryKind : uint64_t {
  kQueryCount = 0,         ///< -> [est bits, n', round]
  kQueryPoint = 1,         ///< b = item -> [est bits]       (frequency)
  kQueryHeavyHitters = 2,  ///< b = phi bits -> item/est-bit pairs with
                           ///< est >= phi * n'               (frequency)
  kQueryRank = 3,          ///< b = value -> [est bits]       (rank)
  kQueryQuantile = 4,      ///< b = phi bits -> [value, est bits]  (rank)
  kQueryStats = 5,         ///< -> fixed stats vector (see Query)
  kQueryJournal = 6,       ///< -> grant order journal as site/len pairs
};

/// kJoinAck.a values.
enum JoinStatus : uint64_t {
  kJoinOk = 0,
  kJoinOptionsMismatch = 1,
  kJoinSiteOutOfRange = 2,
  kJoinDuplicate = 3,     ///< the site's session has a live connection
  kJoinCorruptResume = 4,  ///< kHello.b beyond the downlink journal
  /// kHello.a beyond the coordinator's uplink watermark + 1: the site's
  /// snapshot covers frames the coordinator never received (a stream cut
  /// after the site wrote them). The connection stays open and unjoined;
  /// the site discards the snapshot and joins again from position 0.
  kJoinSnapshotAhead = 5,
};

class CoordinatorCore {
 public:
  /// Wire/paper ledgers. The paper channel mirrors CommMeter §1.1
  /// semantics exactly: one message + max(1, words) words per delivered
  /// uplink data frame, k messages + k words per derived broadcast;
  /// duplicates (crash replays) and service-plane frames charge nothing.
  struct Stats {
    uint64_t frames_in = 0, frames_out = 0;
    uint64_t bytes_in = 0, bytes_out = 0;      ///< Receive / Sent bytes
    uint64_t encoded_in = 0, encoded_out = 0;  ///< Σ wire::EncodedSize
    uint64_t resend_frames = 0, resend_bytes = 0;  ///< rejoin re-blasts
    uint64_t paper_messages = 0, paper_words = 0;
    uint64_t broadcasts = 0, decisions = 0;
    uint64_t rejoins = 0, rituals_acked = 0;
    uint64_t rejected = 0;  ///< connections closed for a hostile frame
    uint64_t refused_resumes = 0;  ///< kJoinSnapshotAhead answers
    // Lockstep admission (in-process only; not in the kQueryStats vector).
    uint64_t peak_grants_in_flight = 0;
    uint64_t exclusive_grants = 0;  ///< uncertified grants, run alone
  };

  /// One journaled grant. `exclusive` marks a grant that was not
  /// certified broadcast-free and therefore ran with the fleet drained.
  struct GrantEntry {
    int site = 0;
    uint64_t length = 0;
    bool exclusive = false;
  };

  explicit CoordinatorCore(const ServiceOptions& options);
  ~CoordinatorCore();

  CoordinatorCore(const CoordinatorCore&) = delete;
  CoordinatorCore& operator=(const CoordinatorCore&) = delete;

  // --- Connection events ---------------------------------------------------
  // A connection is any id the driver does not have open. Its first
  // frame decides what it is: kJoin + kHello make it a site session, a
  // kQuery or kShutdown a client.

  void Open(int conn);

  /// Bytes read from `conn`: frames them and handles every complete
  /// frame. Returns the number of frames handled.
  int Receive(int conn, const uint8_t* data, size_t size);

  /// The bytes staged for `conn` and not yet sent; 0 if none. Attaches
  /// the cumulative uplink ack first: acks ride on the next write to a
  /// site rather than costing a write (and a wake-up of a site parked on
  /// its grant) of their own.
  size_t Staged(int conn, const uint8_t** data);

  /// `size` of the staged bytes went out.
  void Sent(int conn, size_t size);

  /// Unsent bytes of `conn` (no ack attached): backpressure and POLLOUT.
  size_t pending(int conn) const;

  /// True once `conn` should be closed: it sent a hostile frame or a
  /// corrupt stream (its output is dropped), or it was rejected and its
  /// last frame has gone out.
  bool WantsClose(int conn) const;

  /// `conn` is gone (peer closed, write failed, or the driver closed it
  /// on WantsClose). Its session, if any, waits for the site to resume.
  void Closed(int conn);

  // --- Fleet state ---------------------------------------------------------

  /// Fans kShutdown out to every site (a client's kShutdown, or the
  /// daemon's SIGTERM/SIGINT).
  void BeginShutdown();
  /// Shutdown has been fanned out and every site connection has closed.
  bool ShutdownComplete() const;
  /// True once every site is settled (see Settled): the stream is over
  /// and no frame any site still owes can change an answer.
  bool AllSitesDone() const;
  const Stats& stats() const { return stats_; }
  /// The grant order journal (kQueryJournal serves site/length pairs).
  const std::vector<GrantEntry>& journal() const { return order_journal_; }

  /// Answers a query (the same code path as a kQuery frame).
  sim::wire::Message Query(const sim::wire::Message& query) const;

 private:
  struct Conn {
    FrameReader reader;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    int site = -1;  ///< joined site id, -1 until kJoin completes
    bool has_join = false;
    sim::wire::Message join;
    bool close_after_drain = false;
    bool latched = false;  ///< hostile or corrupt: close, read no more
    uint64_t acked = 0;    ///< uplink watermark last acked to the site
    size_t pending() const { return out.size() - out_off; }
  };

  struct Session {
    Conn* conn = nullptr;
    sim::ReliableReceiver up;
    /// Every sequenced downlink frame; the frame at index i has seq i+1.
    std::vector<sim::wire::Message> down_journal;
    bool ever_joined = false;
    bool done = false;            ///< end-of-stream kGrantRequest delivered
    uint64_t rituals_acked = 0;   ///< kRitualAck frames delivered
    uint64_t want = 0;            ///< pending lockstep request (0 = none)
    bool in_flight = false;       ///< granted, kGrantDone not yet delivered
  };

  Conn* Find(int conn) const;
  void HandleFrame(Conn* conn, sim::wire::Message msg, uint64_t seq);
  void HandleSiteFrame(Conn* conn, sim::wire::Message msg, uint64_t seq);
  /// True if an honest site of this fleet could have sent `msg`.
  bool Admissible(const Conn& conn, const sim::wire::Message& msg) const;
  void ApplyDelivered(int site, sim::wire::Message msg, uint64_t up_seq);
  void DecideCoarse(int site, const sim::wire::Message& report,
                    uint64_t up_seq);
  void FinishJoin(Conn* conn, const sim::wire::Message& join,
                  const sim::wire::Message& hello);
  void TrySchedule();
  void Grant(int site, uint64_t want, bool exclusive);

  /// Journals + stages one sequenced downlink frame for `site`.
  void StageDown(int site, sim::wire::Message msg);
  void AppendFrame(Conn* conn, const sim::wire::Message& msg, uint64_t seq);
  /// Closes `conn` for a frame no honest peer sends.
  void Latch(Conn* conn);
  void Detach(Conn* conn);
  /// A site has ended its stream and acked every broadcast. Each
  /// broadcast goes to every site, and a site stages the correction
  /// frames of its ritual before the kRitualAck, so a settled site has
  /// delivered all it will ever send. Stream end alone is not enough: a
  /// site that finished early still answers later broadcasts.
  bool Settled(const Session& s) const {
    return s.done && s.rituals_acked == stats_.broadcasts;
  }
  uint64_t PendingOutBytes() const;

  ServiceOptions options_;
  uint64_t options_hash_ = 0;

  std::map<int, std::unique_ptr<Conn>> conns_;
  std::vector<Session> sessions_;

  // Broadcast decisions: one mirror, fed every delivered coarse report in
  // coordinator arrival order (the replicas keep their own copies).
  sim::CoarseMirror decider_;
  std::unique_ptr<sim::CountReplica> count_replica_;
  std::unique_ptr<sim::FrequencyReplica> frequency_replica_;
  std::unique_ptr<sim::RankReplica> rank_replica_;

  // Lockstep admission (TrySchedule): the rotation cursor, the arrivals
  // granted to each site so far, and the grants not yet done. While
  // exclusive_ is set, the one grant in flight is uncertified.
  int turn_ = 0;
  std::vector<uint64_t> granted_;
  int in_flight_ = 0;
  bool exclusive_ = false;
  uint64_t grant_ordinal_ = 0;
  std::vector<GrantEntry> order_journal_;

  bool shutting_down_ = false;
  Stats stats_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_COORDINATOR_CORE_H_
