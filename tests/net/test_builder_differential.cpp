// Differential tests: the word-wise checksum accumulator and the write-once
// packet builders against the byte-pair / copied-segment references in
// reference_packet.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "reference_packet.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Ipv4Address random_address(Rng& rng) {
  return Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
}

TEST(ChecksumDifferential, WordWiseMatchesBytePairAtEverySplit) {
  Rng rng(20021106);
  std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int i = 0; i < 40; ++i)
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2000)));
  for (std::size_t li = 0; li < lengths.size(); ++li) {
    const std::size_t n = lengths[li];
    // Mostly random bytes; every fourth buffer saturates every word, the
    // case where carries pile up fastest.
    std::vector<std::uint8_t> data = random_bytes(rng, n);
    if (li % 4 == 3) std::fill(data.begin(), data.end(), std::uint8_t{0xFF});
    const std::span<const std::uint8_t> all(data);

    reference::Checksum whole_ref;
    whole_ref.add(all);
    EXPECT_EQ(internet_checksum(all), whole_ref.fold()) << "n=" << n;

    // Every split point, odd and even, so the straddling-byte carry between
    // sections is exercised at both parities.
    for (std::size_t split = 0; split <= n; ++split) {
      ChecksumAccumulator acc;
      acc.add(all.first(split));
      acc.add(all.subspan(split));
      ASSERT_EQ(acc.fold(), whole_ref.fold()) << "n=" << n << " split=" << split;
    }
    // Random three-way splits with u16/u32 words between sections.
    for (int trial = 0; trial < 20; ++trial) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
      const auto b = static_cast<std::size_t>(rng.uniform_int(static_cast<std::int64_t>(a),
                                                              static_cast<std::int64_t>(n)));
      const auto w16 = static_cast<std::uint16_t>(rng.next_u64());
      const auto w32 = static_cast<std::uint32_t>(rng.next_u64());
      ChecksumAccumulator acc;
      reference::Checksum ref;
      acc.add(all.first(a));
      ref.add(all.first(a));
      acc.add_u16(w16);
      ref.add_u16(w16);
      acc.add(all.subspan(a, b - a));
      ref.add(all.subspan(a, b - a));
      acc.add_u32(w32);
      ref.add_u32(w32);
      acc.add(all.subspan(b));
      ref.add(all.subspan(b));
      ASSERT_EQ(acc.fold(), ref.fold()) << "n=" << n << " a=" << a << " b=" << b;
    }
  }
}

TEST(ChecksumDifferential, ZeroUdpChecksumIsSentAsAllOnes) {
  // Append the raw checksum of a datagram as one more payload word: the
  // sum becomes 0xFFFF, the computed checksum 0, and RFC 768 requires it
  // on the wire as 0xFFFF.
  Rng rng(768);
  for (int i = 0; i < 50; ++i) {
    const Endpoint src{random_address(rng), static_cast<std::uint16_t>(rng.next_u64())};
    const Endpoint dst{random_address(rng), static_cast<std::uint16_t>(rng.next_u64())};
    std::vector<std::uint8_t> payload =
        random_bytes(rng, 2 * static_cast<std::size_t>(rng.uniform_int(0, 700)));
    payload.push_back(0);
    payload.push_back(0);
    const auto length = static_cast<std::uint16_t>(kUdpHeaderSize + payload.size());
    reference::Checksum raw;
    raw.add_u32(src.ip.value());
    raw.add_u32(dst.ip.value());
    raw.add_u16(kIpProtoUdp);
    raw.add_u16(length);
    raw.add_u16(src.port);
    raw.add_u16(dst.port);
    raw.add_u16(length);
    raw.add(payload);
    const std::uint16_t c = raw.fold();
    payload[payload.size() - 2] = static_cast<std::uint8_t>(c >> 8);
    payload[payload.size() - 1] = static_cast<std::uint8_t>(c);

    const Ipv4Packet pkt = make_udp_packet(src, dst, payload, 1);
    EXPECT_EQ(pkt.payload[6], 0xFF);
    EXPECT_EQ(pkt.payload[7], 0xFF);
    UdpHeader udp;
    udp.src_port = src.port;
    udp.dst_port = dst.port;
    udp.length = length;
    EXPECT_EQ(pkt.payload, reference::udp_segment(udp, src.ip, dst.ip, payload));
  }
}

TEST(BuilderDifferential, MakeUdpPacketMatchesCopiedSegmentReference) {
  Rng rng(1514);
  for (int i = 0; i < 1000; ++i) {
    const Endpoint src{random_address(rng), static_cast<std::uint16_t>(rng.next_u64())};
    const Endpoint dst{random_address(rng), static_cast<std::uint16_t>(rng.next_u64())};
    const std::vector<std::uint8_t> payload =
        random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(0, 2000)));
    const auto ip_id = static_cast<std::uint16_t>(rng.next_u64());
    const auto ttl = static_cast<std::uint8_t>(rng.uniform_int(1, 255));

    const Ipv4Packet pkt = make_udp_packet(src, dst, payload, ip_id, ttl);
    UdpHeader udp;
    udp.src_port = src.port;
    udp.dst_port = dst.port;
    udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload.size());
    ASSERT_EQ(pkt.payload, reference::udp_segment(udp, src.ip, dst.ip, payload))
        << "datagram " << i;
    EXPECT_EQ(pkt.header.total_length, kIpv4HeaderSize + kUdpHeaderSize + payload.size());
    EXPECT_EQ(pkt.header.identification, ip_id);
    EXPECT_EQ(pkt.header.ttl, ttl);
    EXPECT_EQ(pkt.header.protocol, kIpProtoUdp);

    // UdpHeader::encode into a ByteWriter writes the same header bytes.
    ByteWriter w;
    udp.encode(w, src.ip, dst.ip, payload);
    ASSERT_EQ(w.size(), kUdpHeaderSize);
    EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(), pkt.payload.begin()));
  }
}

TEST(BuilderDifferential, TcpHeaderEncodeMatchesCopiedSegmentReference) {
  Rng rng(793);
  for (int i = 0; i < 300; ++i) {
    TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(rng.next_u64());
    tcp.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    tcp.seq = static_cast<std::uint32_t>(rng.next_u64());
    tcp.ack = static_cast<std::uint32_t>(rng.next_u64());
    tcp.flag_syn = rng.chance(0.5);
    tcp.flag_ack = rng.chance(0.5);
    tcp.flag_fin = rng.chance(0.2);
    tcp.flag_rst = rng.chance(0.1);
    tcp.flag_psh = rng.chance(0.5);
    tcp.window = static_cast<std::uint16_t>(rng.next_u64());
    const Ipv4Address src = random_address(rng);
    const Ipv4Address dst = random_address(rng);
    const std::vector<std::uint8_t> payload =
        random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(0, 1460)));

    const std::vector<std::uint8_t> expected = reference::tcp_segment(tcp, src, dst, payload);
    ByteWriter w;
    tcp.encode(w, src, dst, payload);
    w.bytes(payload);
    ASSERT_EQ(std::vector<std::uint8_t>(w.view().begin(), w.view().end()), expected)
        << "segment " << i;

    const Ipv4Packet pkt = make_tcp_packet({src, tcp.src_port}, {dst, tcp.dst_port}, tcp,
                                           payload, 1);
    EXPECT_EQ(pkt.payload, expected);
  }
}

}  // namespace
}  // namespace streamlab
