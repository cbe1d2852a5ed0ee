#include "net/fragmentation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

TEST(Fragmentation, SmallPacketPassesThrough) {
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(100), 1);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_FALSE(frags[0].header.is_fragment());
  EXPECT_EQ(frags[0].payload, pkt.payload);
}

TEST(Fragmentation, PaperWirePattern3125ByteFrame) {
  // A 250 Kbps MediaPlayer application frame: 3125 media bytes + headers.
  // The paper observes 1514-byte wire frames: 1500-byte IP packets.
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3125), 2);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);

  // First two fragments fill the MTU exactly (1480-byte payloads).
  EXPECT_EQ(frags[0].total_length(), 1500u);
  EXPECT_EQ(frags[1].total_length(), 1500u);
  EXPECT_LT(frags[2].total_length(), 1500u);

  // Offsets advance in 8-byte units; MF set on all but the last.
  EXPECT_EQ(frags[0].header.fragment_offset_units, 0);
  EXPECT_EQ(frags[1].header.fragment_offset_bytes(), 1480u);
  EXPECT_EQ(frags[2].header.fragment_offset_bytes(), 2960u);
  EXPECT_TRUE(frags[0].header.more_fragments);
  EXPECT_TRUE(frags[1].header.more_fragments);
  EXPECT_FALSE(frags[2].header.more_fragments);

  // All fragments share the datagram identification.
  EXPECT_EQ(frags[0].header.identification, 2);
  EXPECT_EQ(frags[1].header.identification, 2);
  EXPECT_EQ(frags[2].header.identification, 2);

  // Only the first carries the UDP header bytes.
  EXPECT_TRUE(frags[0].header.fragment_offset_units == 0);
  EXPECT_TRUE(frags[1].header.is_trailing_fragment());

  // 2 of 3 packets are trailing fragments: the 66% of Figure 5 at ~300 Kbps.
  EXPECT_NEAR(2.0 / 3.0, 0.667, 0.001);
}

TEST(Fragmentation, DfPacketTooLargeIsDropped) {
  Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3000), 3);
  pkt.header.dont_fragment = true;
  EXPECT_TRUE(fragment_packet(pkt, kDefaultMtu).empty());
}

TEST(Fragmentation, PayloadBytesPreservedInOrder) {
  const auto payload = pattern(5000);
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, payload, 4);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  std::vector<std::uint8_t> reassembled;
  for (const auto& f : frags)
    reassembled.insert(reassembled.end(), f.payload.begin(), f.payload.end());
  EXPECT_EQ(reassembled, pkt.payload);
}

TEST(Reassembler, UnfragmentedPassThrough) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(100), 5);
  const auto out = r.offer(pkt, SimTime::zero());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, pkt.payload);
  EXPECT_EQ(r.stats().unfragmented_received, 1u);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(Reassembler, InOrderFragmentsReassemble) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 6);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_GT(frags.size(), 1u);

  for (std::size_t i = 0; i + 1 < frags.size(); ++i)
    EXPECT_FALSE(r.offer(frags[i], SimTime::zero()).has_value());
  const auto whole = r.offer(frags.back(), SimTime::zero());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
  EXPECT_EQ(whole->header.identification, pkt.header.identification);
  EXPECT_FALSE(whole->header.is_fragment());
  EXPECT_EQ(whole->header.total_length, pkt.header.total_length);
  EXPECT_EQ(r.stats().datagrams_delivered, 1u);
}

TEST(Reassembler, OutOfOrderFragmentsReassemble) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Reassembler r;
    const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(6000),
                                           static_cast<std::uint16_t>(trial));
    auto frags = fragment_packet(pkt, kDefaultMtu);
    rng.shuffle(std::span(frags));

    std::optional<Ipv4Packet> whole;
    for (const auto& f : frags) {
      auto out = r.offer(f, SimTime::zero());
      if (out) {
        EXPECT_FALSE(whole.has_value()) << "delivered twice";
        whole = out;
      }
    }
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->payload, pkt.payload);
  }
}

TEST(Reassembler, InterleavedDatagramsKeptSeparate) {
  Reassembler r;
  const Ipv4Packet a = make_udp_packet(kServer, kClient, pattern(3000), 100);
  const Ipv4Packet b = make_udp_packet(kServer, kClient, pattern(3000), 101);
  const auto fa = fragment_packet(a, kDefaultMtu);
  const auto fb = fragment_packet(b, kDefaultMtu);

  // Interleave: a0 b0 a1 b1 a2 b2 ...
  std::optional<Ipv4Packet> got_a, got_b;
  for (std::size_t i = 0; i < std::max(fa.size(), fb.size()); ++i) {
    if (i < fa.size())
      if (auto out = r.offer(fa[i], SimTime::zero())) got_a = out;
    if (i < fb.size())
      if (auto out = r.offer(fb[i], SimTime::zero())) got_b = out;
  }
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_a->header.identification, 100);
  EXPECT_EQ(got_b->header.identification, 101);
}

TEST(Reassembler, MissingFragmentNeverDelivers) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 7);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_GE(frags.size(), 3u);
  // Drop the middle fragment.
  EXPECT_FALSE(r.offer(frags.front(), SimTime::zero()).has_value());
  EXPECT_FALSE(r.offer(frags.back(), SimTime::zero()).has_value());
  EXPECT_EQ(r.pending(), 1u);
}

TEST(Reassembler, TimeoutExpiresPartialAndCountsWaste) {
  Reassembler r(Duration::seconds(30));
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(4000), 8);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  r.offer(frags[0], SimTime::zero());
  r.offer(frags[1], SimTime::zero());

  r.expire(SimTime::from_seconds(10));
  EXPECT_EQ(r.pending(), 1u);  // not yet

  r.expire(SimTime::from_seconds(31));
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.stats().datagrams_expired, 1u);
  // Both received fragments were wasted bandwidth — the congestion-collapse
  // hazard of Section 3.C.
  EXPECT_EQ(r.stats().fragments_wasted, 2u);
}

TEST(Reassembler, DuplicateFragmentIsIdempotent) {
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(3000), 9);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  r.offer(frags[0], SimTime::zero());
  r.offer(frags[0], SimTime::zero());  // duplicate
  r.offer(frags[1], SimTime::zero());
  const auto whole = r.offer(frags[2], SimTime::zero());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
}

TEST(Reassembler, OverlappingFragmentsCompleteExactlyWhenCovered) {
  // Fragments of one datagram cut at two MTUs overlap each other. Offered
  // in random order, the datagram must come out exactly when the bytes seen
  // so far first cover it (first and last fragment included), and never
  // earlier — the covered-byte count must not double-count overlaps.
  Rng rng(576);
  Reassembler r;  // shared: every trial reuses the slot the last one freed
  for (int trial = 0; trial < 200; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(1500, 9000));
    const Ipv4Packet pkt =
        make_udp_packet(kServer, kClient, pattern(size), static_cast<std::uint16_t>(trial));
    std::vector<Ipv4Packet> frags = fragment_packet(pkt, kDefaultMtu);
    for (const auto& f : fragment_packet(pkt, 576)) frags.push_back(f);
    for (std::size_t i = frags.size(); i > 1; --i)
      std::swap(frags[i - 1], frags[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);

    std::vector<bool> seen(pkt.payload.size(), false);
    bool first = false, last = false;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      const Ipv4Packet& f = frags[i];
      const std::size_t off = f.header.fragment_offset_bytes();
      std::fill(seen.begin() + static_cast<std::ptrdiff_t>(off),
                seen.begin() + static_cast<std::ptrdiff_t>(off + f.payload.size()), true);
      first |= off == 0;
      last |= !f.header.more_fragments;
      const bool complete =
          first && last && std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
      const auto whole = r.offer(f, SimTime::zero());
      ASSERT_EQ(whole.has_value(), complete) << "trial " << trial << " fragment " << i;
      if (whole) {
        EXPECT_EQ(whole->payload, pkt.payload);
        EXPECT_EQ(r.pending(), 0u);
        break;
      }
    }
  }
}

// Property sweep: every payload size reassembles to the original bytes.
class FragmentReassembleRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentReassembleRoundTrip, RoundTrips) {
  const std::size_t payload_size = GetParam();
  Reassembler r;
  const Ipv4Packet pkt = make_udp_packet(kServer, kClient, pattern(payload_size), 99);
  const auto frags = fragment_packet(pkt, kDefaultMtu);

  const std::size_t expected_fragments =
      (pkt.payload.size() + 1479) / 1480;  // 1480-byte fragment payloads
  EXPECT_EQ(frags.size(), std::max<std::size_t>(1, expected_fragments));

  std::optional<Ipv4Packet> whole;
  for (const auto& f : frags) {
    EXPECT_LE(f.total_length(), kDefaultMtu);
    if (auto out = r.offer(f, SimTime::zero())) whole = out;
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, pkt.payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, FragmentReassembleRoundTrip,
                         ::testing::Values(1, 100, 1471, 1472, 1473, 1480, 2000, 2952,
                                           2953, 3125, 4096, 9137, 20000, 65000));

}  // namespace
}  // namespace streamlab
