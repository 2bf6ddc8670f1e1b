// Stream reassembly for wire frames read off a socket (tentpole of the
// service PR).
//
// TCP hands the receiver arbitrary byte runs: a frame may arrive split at
// any byte boundary, or coalesced with its neighbors. FrameReader buffers
// the stream and cuts it back into frames using the frozen header prefix
// (wire::kHeaderBytes bytes are always enough to learn a frame's full
// length — see wire::PeekFrameSize), then validates each candidate with
// wire::DecodeFrame (payload shape + CRC). Decoding is byte-identical to
// the in-memory path: the same DecodeFrame sees the same bytes
// (tests/service_framing_test.cc sweeps every split point).
//
// A stream that desyncs (bad magic / unknown version / CRC mismatch) is
// unrecoverable by design — frames carry no resync marker — so the reader
// latches a permanent error and the connection must be dropped; the
// session layer above recovers by reconnecting and resuming from the
// sequence watermarks (service/site_core.h).

#ifndef DISTTRACK_SERVICE_FRAMING_H_
#define DISTTRACK_SERVICE_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class FrameReader {
 public:
  /// A header announcing a longer frame desyncs the stream: no honest
  /// peer sends one, and buffering toward it would let a peer claim
  /// gigabytes with one header.
  static constexpr size_t kMaxFrameBytes = size_t{64} << 20;

  /// Feeds `size` raw stream bytes into the reassembly buffer.
  void Append(const uint8_t* data, size_t size);

  /// Result of one extraction attempt.
  enum class Result {
    kFrame,  ///< *msg / *seq filled with the next complete frame
    kNeed,   ///< no complete frame buffered yet
    kError,  ///< stream desynced (permanent; see error())
  };

  /// Extracts the next complete frame, if any.
  Result Next(sim::wire::Message* msg, uint64_t* seq);

  /// Bytes buffered but not yet consumed as frames.
  size_t buffered() const { return buf_.size() - off_; }

  /// Nonempty after Result::kError.
  const std::string& error() const { return error_; }

 private:
  std::vector<uint8_t> buf_;
  size_t off_ = 0;  // consumed prefix of buf_
  std::string error_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_FRAMING_H_
