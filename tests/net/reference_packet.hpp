// Test-only reference implementations of the packet builders as they were
// before the write-once path: the byte-pair Internet checksum and the
// ByteWriter construction that copied the whole segment into a second
// writer just to checksum it. Kept verbatim so the differential tests can
// prove the word-wise accumulator and the in-place builders produce the
// same bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "util/bytes.hpp"

namespace streamlab::reference {

/// Running one's-complement sum over 16-bit big-endian byte pairs.
class Checksum {
 public:
  void add(std::span<const std::uint8_t> data) {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      sum_ += data[0];
      odd_ = false;
      i = 1;
    }
    for (; i + 1 < data.size(); i += 2) {
      sum_ += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
    }
    if (i < data.size()) {
      sum_ += static_cast<std::uint32_t>(data[i]) << 8;
      odd_ = true;
    }
  }
  void add_u16(std::uint16_t v) {
    const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v >> 8),
                                   static_cast<std::uint8_t>(v)};
    add(bytes);
  }
  void add_u32(std::uint32_t v) {
    add_u16(static_cast<std::uint16_t>(v >> 16));
    add_u16(static_cast<std::uint16_t>(v));
  }
  std::uint16_t fold() const {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    return static_cast<std::uint16_t>(~s & 0xFFFF);
  }

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;
};

inline std::uint16_t segment_checksum(Ipv4Address src, Ipv4Address dst,
                                      std::uint8_t protocol,
                                      std::span<const std::uint8_t> segment) {
  Checksum acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(protocol);
  acc.add_u16(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  const std::uint16_t c = acc.fold();
  return c == 0 ? 0xFFFF : c;
}

/// UDP header + payload, built through a copied segment.
inline std::vector<std::uint8_t> udp_segment(const UdpHeader& udp, Ipv4Address src_ip,
                                             Ipv4Address dst_ip,
                                             std::span<const std::uint8_t> payload) {
  ByteWriter seg(kUdpHeaderSize + payload.size());
  seg.u16be(udp.src_port);
  seg.u16be(udp.dst_port);
  seg.u16be(udp.length);
  seg.u16be(0);
  seg.bytes(payload);
  const std::uint16_t c = segment_checksum(src_ip, dst_ip, kIpProtoUdp, seg.view());
  ByteWriter w(kUdpHeaderSize + payload.size());
  w.u16be(udp.src_port);
  w.u16be(udp.dst_port);
  w.u16be(udp.length);
  w.u16be(c);
  w.bytes(payload);
  return w.take();
}

/// TCP header (no options) + payload, built through a copied segment.
inline std::vector<std::uint8_t> tcp_segment(const TcpHeader& tcp, Ipv4Address src_ip,
                                             Ipv4Address dst_ip,
                                             std::span<const std::uint8_t> payload) {
  std::uint16_t off_flags = static_cast<std::uint16_t>(5u << 12);
  if (tcp.flag_fin) off_flags |= 0x001;
  if (tcp.flag_syn) off_flags |= 0x002;
  if (tcp.flag_rst) off_flags |= 0x004;
  if (tcp.flag_psh) off_flags |= 0x008;
  if (tcp.flag_ack) off_flags |= 0x010;
  const auto header = [&](ByteWriter& w, std::uint16_t checksum) {
    w.u16be(tcp.src_port);
    w.u16be(tcp.dst_port);
    w.u32be(tcp.seq);
    w.u32be(tcp.ack);
    w.u16be(off_flags);
    w.u16be(tcp.window);
    w.u16be(checksum);
    w.u16be(0);
  };
  ByteWriter seg(kTcpHeaderSize + payload.size());
  header(seg, 0);
  seg.bytes(payload);
  const std::uint16_t c = segment_checksum(src_ip, dst_ip, kIpProtoTcp, seg.view());
  ByteWriter w(kTcpHeaderSize + payload.size());
  header(w, c);
  w.bytes(payload);
  return w.take();
}

}  // namespace streamlab::reference
