// Fuzz: the dissector and frame parser must accept arbitrary bytes without
// crashing — a sniffer cannot choose what appears on the wire.
#include <gtest/gtest.h>

#include "dissect/dissector.hpp"
#include "fuzz_frames.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

TEST(DissectFuzz, RandomBytesNeverCrash) {
  for (const CaptureRecord& rec : dissect_test::random_byte_frames()) {
    const DissectedPacket pkt = dissect(rec);
    // Frame-level fields always present, whatever the bytes were.
    ASSERT_TRUE(pkt.field("frame.len").has_value());
    EXPECT_EQ(pkt.field("frame.len")->number, static_cast<std::int64_t>(rec.data.size()));
    (void)pkt.summary();
  }
}

TEST(DissectFuzz, BitFlippedRealFramesNeverCrash) {
  // Start from a valid frame and flip random bits: the dissector must mark
  // corruption (checksum) or parse best-effort, never misbehave.
  for (const CaptureRecord& rec : dissect_test::bit_flipped_frames()) {
    const DissectedPacket out = dissect(rec);
    ASSERT_TRUE(out.field("frame.len").has_value());
  }
}

TEST(DissectFuzz, ParseFrameRejectsGracefully) {
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(rng.uniform_int(0, 100)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto parsed = parse_frame(junk);
    if (parsed.has_value()) {
      // If it parsed, the invariants hold.
      EXPECT_EQ(parsed->eth.ethertype, kEtherTypeIpv4);
    }
  }
}

TEST(DissectFuzz, TruncationSweepOnValidFrame) {
  // Every prefix length must be handled.
  for (const CaptureRecord& rec : dissect_test::truncated_frames()) {
    const DissectedPacket out = dissect(rec);
    ASSERT_TRUE(out.field("frame.cap_len").has_value());
    EXPECT_EQ(out.field("frame.cap_len")->number, static_cast<std::int64_t>(rec.data.size()));
  }
}

}  // namespace
}  // namespace streamlab
