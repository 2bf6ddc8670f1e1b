#include "disttrack/service/framing.h"

namespace disttrack {
namespace service {

void FrameReader::Append(const uint8_t* data, size_t size) {
  // Compact lazily: only when the consumed prefix dominates the buffer,
  // so steady-state appends are O(bytes) amortized.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

FrameReader::Result FrameReader::Next(sim::wire::Message* msg, uint64_t* seq) {
  if (!error_.empty()) return Result::kError;
  size_t avail = buf_.size() - off_;
  if (avail < sim::wire::kHeaderBytes) return Result::kNeed;
  const uint8_t* head = buf_.data() + off_;
  size_t frame_size = sim::wire::PeekFrameSize(head, avail);
  if (frame_size == 0) {
    error_ = "stream desync: bytes do not open a known frame";
    return Result::kError;
  }
  if (frame_size > kMaxFrameBytes) {
    error_ = "stream desync: frame announces " + std::to_string(frame_size) +
             " bytes";
    return Result::kError;
  }
  if (avail < frame_size) return Result::kNeed;
  if (!sim::wire::DecodeFrame(head, frame_size, msg, seq)) {
    error_ = "stream desync: frame failed payload/CRC validation";
    return Result::kError;
  }
  off_ += frame_size;
  return Result::kFrame;
}

}  // namespace service
}  // namespace disttrack
