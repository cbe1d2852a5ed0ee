// Seeded hostile inputs for the dissector: random byte soup, bit-flipped
// copies of a valid UDP frame, and every truncation of one. Shared by the
// crash fuzz tests and the differential test against the reference
// dissector, so both see exactly the same frames.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "pcap/capture.hpp"
#include "util/rng.hpp"

namespace streamlab::dissect_test {

/// 3000 frames of 0-200 random bytes at random timestamps.
inline std::vector<CaptureRecord> random_byte_frames() {
  Rng rng(424242);
  std::vector<CaptureRecord> out;
  for (int i = 0; i < 3000; ++i) {
    CaptureRecord rec;
    rec.timestamp = SimTime(rng.uniform_int(0, 1'000'000'000));
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    rec.data.resize(len);
    for (auto& b : rec.data) b = static_cast<std::uint8_t>(rng.next_u64());
    rec.original_length = static_cast<std::uint32_t>(len);
    out.push_back(std::move(rec));
  }
  return out;
}

/// 2000 copies of a valid UDP frame, each with 1-4 random bits flipped.
inline std::vector<CaptureRecord> bit_flipped_frames() {
  Rng rng(7);
  const auto pkt = make_udp_packet(Endpoint{Ipv4Address(1, 2, 3, 4), 1000},
                                   Endpoint{Ipv4Address(5, 6, 7, 8), 2000},
                                   std::vector<std::uint8_t>(100, 0x55), 42);
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);

  std::vector<CaptureRecord> out;
  for (int i = 0; i < 2000; ++i) {
    CaptureRecord rec;
    rec.timestamp = SimTime::zero();
    auto bytes = frame.bytes();
    rec.data.assign(bytes.begin(), bytes.end());
    rec.original_length = static_cast<std::uint32_t>(rec.data.size());
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rec.data.size()) - 1));
      rec.data[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

/// Every prefix (0 bytes to the whole frame) of a valid UDP frame; the
/// original length stays the full frame's.
inline std::vector<CaptureRecord> truncated_frames() {
  const auto pkt = make_udp_packet(Endpoint{Ipv4Address(1, 2, 3, 4), 1000},
                                   Endpoint{Ipv4Address(5, 6, 7, 8), 2000},
                                   std::vector<std::uint8_t>(64, 0xAA), 7);
  const Frame frame = frame_ipv4(MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  const auto bytes = frame.bytes();
  std::vector<CaptureRecord> out;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    CaptureRecord rec;
    rec.timestamp = SimTime::zero();
    rec.data.assign(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    rec.original_length = static_cast<std::uint32_t>(bytes.size());
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace streamlab::dissect_test
