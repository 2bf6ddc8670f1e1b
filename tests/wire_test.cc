// Tests for the wire framing and the sequence layer: frame round-trips
// for every message type, exact EncodedSize, decoder rejection of
// corrupt / foreign / truncated frames, and the sequenced channel's
// properties (dedup, gaps, crash resets).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {
namespace {

wire::Message SampleMessage(wire::MsgType type) {
  wire::Message msg;
  msg.type = type;
  msg.site = type == wire::MsgType::kBroadcast ? -1 : 3;
  msg.epoch = 7;
  msg.a = 0xDEADBEEFCAFEull;
  msg.b = 42;
  msg.c = 1ull << 60;
  msg.paper_words = 2;
  if (type == wire::MsgType::kRankSummary) {
    msg.values = {5, 9, 9, 1ull << 40};
    msg.segments = {{1, 2}, {4, 4}};
    msg.paper_words = 7;
  }
  return msg;
}

std::vector<wire::MsgType> AllTypes() {
  return {wire::MsgType::kCoarseReport, wire::MsgType::kCoinReport,
          wire::MsgType::kCorrection,   wire::MsgType::kBroadcast,
          wire::MsgType::kSplitNotice,  wire::MsgType::kCounterReport,
          wire::MsgType::kSampleForward, wire::MsgType::kRankSummary,
          wire::MsgType::kRankResidual, wire::MsgType::kAck,
          wire::MsgType::kHello};
}

TEST(WireFrameTest, RoundTripsEveryMessageType) {
  for (wire::MsgType type : AllTypes()) {
    wire::Message msg = SampleMessage(type);
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 99, &frame);
    EXPECT_EQ(frame.size(), wire::EncodedSize(msg));

    wire::Message decoded;
    uint64_t seq = 0;
    ASSERT_TRUE(wire::DecodeFrame(frame.data(), frame.size(), &decoded, &seq))
        << "type " << static_cast<int>(type);
    EXPECT_EQ(seq, 99u);
    EXPECT_EQ(decoded.type, msg.type);
    EXPECT_EQ(decoded.site, msg.site);
    EXPECT_EQ(decoded.epoch, msg.epoch);
    EXPECT_EQ(decoded.a, msg.a);
    EXPECT_EQ(decoded.b, msg.b);
    EXPECT_EQ(decoded.c, msg.c);
    EXPECT_EQ(decoded.paper_words, msg.paper_words);
    EXPECT_EQ(decoded.values, msg.values);
    EXPECT_EQ(decoded.segments, msg.segments);
  }
}

TEST(WireFrameTest, EncodeAppendsWithoutClearing) {
  wire::Message a = SampleMessage(wire::MsgType::kCoinReport);
  wire::Message b = SampleMessage(wire::MsgType::kRankSummary);
  std::vector<uint8_t> buffer;
  wire::EncodeFrame(a, 1, &buffer);
  size_t first = buffer.size();
  wire::EncodeFrame(b, 2, &buffer);
  EXPECT_EQ(buffer.size(), wire::EncodedSize(a) + wire::EncodedSize(b));

  wire::Message decoded;
  uint64_t seq = 0;
  ASSERT_TRUE(wire::DecodeFrame(buffer.data(), first, &decoded, &seq));
  EXPECT_EQ(decoded.type, wire::MsgType::kCoinReport);
  ASSERT_TRUE(wire::DecodeFrame(buffer.data() + first, buffer.size() - first,
                                &decoded, &seq));
  EXPECT_EQ(decoded.type, wire::MsgType::kRankSummary);
  EXPECT_EQ(seq, 2u);
}

TEST(WireFrameTest, RejectsCorruption) {
  wire::Message msg = SampleMessage(wire::MsgType::kRankSummary);
  std::vector<uint8_t> frame;
  wire::EncodeFrame(msg, 5, &frame);

  wire::Message out;
  uint64_t seq = 0;

  // Truncation at every length.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeFrame(frame.data(), cut, &out, &seq))
        << "cut " << cut;
  }

  // Any single flipped bit must be caught (header checks or CRC).
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x40;
    EXPECT_FALSE(wire::DecodeFrame(bad.data(), bad.size(), &out, &seq))
        << "flip at " << i;
  }
}

TEST(WireFrameTest, EveryTruncationOfEveryTypeIsRejectedWithoutOverrun) {
  // Fuzz-style sweep: for every message type, every strict prefix of a
  // valid frame must be rejected. Each prefix lives in its OWN exactly-
  // sized heap allocation, so any decoder read past the advertised
  // length is an ASan heap-buffer-overflow, not a silent success — the
  // full-frame RejectsCorruption sweep above cannot see those. The
  // decoder must also leave the outputs untouched on failure.
  for (wire::MsgType type : AllTypes()) {
    wire::Message msg = SampleMessage(type);
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 123, &frame);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::unique_ptr<uint8_t[]> exact(new uint8_t[cut]);
      std::copy(frame.begin(), frame.begin() + cut, exact.get());
      wire::Message out = SampleMessage(wire::MsgType::kRankSummary);
      out.a = 0x5E17;
      uint64_t seq = 0x5E17;
      EXPECT_FALSE(wire::DecodeFrame(exact.get(), cut, &out, &seq))
          << "type " << static_cast<int>(type) << " cut " << cut;
      // Rejection without side effects: a partial decode must not leak
      // into the caller's message or sequence number.
      EXPECT_EQ(out.a, 0x5E17u) << "cut " << cut;
      EXPECT_EQ(seq, 0x5E17u) << "cut " << cut;
    }
  }
}

TEST(WireFrameTest, RejectsUnknownVersion) {
  wire::Message msg = SampleMessage(wire::MsgType::kHello);
  std::vector<uint8_t> frame;
  wire::EncodeFrame(msg, 1, &frame);
  // Version lives right after the 4-byte magic (little-endian u16). A
  // decoder must reject unknown versions even if the CRC were fixed up,
  // but flipping it alone must already fail.
  frame[4] ^= 0xFF;
  wire::Message out;
  uint64_t seq = 0;
  EXPECT_FALSE(wire::DecodeFrame(frame.data(), frame.size(), &out, &seq));
}

TEST(WireFrameTest, PaperWordChargeRules) {
  const int k = 8;
  wire::Message msg = SampleMessage(wire::MsgType::kCoinReport);
  msg.paper_words = 3;
  EXPECT_EQ(wire::PaperWordCharge(msg, k), 3u);

  msg.paper_words = 0;  // the max(1, words) floor
  EXPECT_EQ(wire::PaperWordCharge(msg, k), 1u);

  wire::Message bcast = SampleMessage(wire::MsgType::kBroadcast);
  bcast.paper_words = 1;
  EXPECT_EQ(wire::PaperWordCharge(bcast, k), static_cast<uint64_t>(k));

  wire::Message ack = SampleMessage(wire::MsgType::kAck);
  EXPECT_EQ(wire::PaperWordCharge(ack, k), 0u);
  wire::Message hello = SampleMessage(wire::MsgType::kHello);
  EXPECT_EQ(wire::PaperWordCharge(hello, k), 0u);
}

TEST(ReliableReceiverTest, InOrderDeliveryDedupAndGaps) {
  using Verdict = ReliableReceiver::Verdict;
  ReliableReceiver receiver;
  EXPECT_EQ(receiver.Accept(1), Verdict::kDeliver);
  EXPECT_EQ(receiver.Accept(2), Verdict::kDeliver);
  EXPECT_EQ(receiver.Accept(1), Verdict::kDuplicate);  // a replayed frame
  EXPECT_EQ(receiver.Accept(0), Verdict::kDuplicate);  // unsequenced
  EXPECT_EQ(receiver.duplicates(), 2u);
  EXPECT_EQ(receiver.Accept(4), Verdict::kGap);  // 3 never arrived
  EXPECT_EQ(receiver.watermark(), 2u);           // a gap delivers nothing
  EXPECT_EQ(receiver.Accept(3), Verdict::kDeliver);
  EXPECT_EQ(receiver.watermark(), 3u);

  receiver.Reset(0);  // a crashed site lost everything since watermark 0
  EXPECT_EQ(receiver.watermark(), 0u);
  EXPECT_EQ(receiver.Accept(1), Verdict::kDeliver);
}

}  // namespace
}  // namespace sim
}  // namespace disttrack
