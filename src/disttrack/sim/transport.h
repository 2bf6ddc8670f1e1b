// The receiving end of a sequenced protocol channel.
//
// The service runs every site session over a FIFO byte stream (a TCP or
// Unix-domain socket, or the in-process pump of service/fleet_pump.h).
// The stream delivers in order and without loss while it lives; what it
// cannot do is survive a crash or a reconnect. Sequence numbers bridge
// that gap: each end numbers its sequenced frames 1, 2, …, and a site
// restored from a snapshot rewinds its uplink counter to the snapshot's
// cursor, so its replay regenerates frames at their original numbers.
// The receiver's delivery watermark then sorts every frame: at or below
// it, a duplicate of one already applied (dropped, counted); the next
// number, delivered; anything further ahead, a gap no FIFO stream can
// produce.
//
// There are no retransmission timers: a stream that dies is replaced,
// and the replacement resumes from the watermarks the two ends exchange
// when the session resumes (service/coordinator_core.h, kJoin/kHello).

#ifndef DISTTRACK_SIM_TRANSPORT_H_
#define DISTTRACK_SIM_TRANSPORT_H_

#include <cstdint>

namespace disttrack {
namespace sim {

/// Receiver half: in-order delivery with dedup.
class ReliableReceiver {
 public:
  enum class Verdict {
    kDeliver,    ///< the next frame: apply it
    kDuplicate,  ///< at or below the watermark: already applied
    kGap,        ///< ahead of the next number: the stream is corrupt
  };

  Verdict Accept(uint64_t seq) {
    if (seq <= watermark_) {
      ++duplicates_;
      return Verdict::kDuplicate;
    }
    if (seq != watermark_ + 1) return Verdict::kGap;
    watermark_ = seq;
    return Verdict::kDeliver;
  }

  /// Highest sequence number delivered (the cumulative ack).
  uint64_t watermark() const { return watermark_; }
  uint64_t duplicates() const { return duplicates_; }

  /// Crash recovery: expect `watermark + 1` next.
  void Reset(uint64_t watermark) { watermark_ = watermark; }

 private:
  uint64_t watermark_ = 0;
  uint64_t duplicates_ = 0;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_TRANSPORT_H_
