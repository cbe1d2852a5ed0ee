// RFC 1071 Internet checksum, as used by IPv4, UDP, TCP and ICMP.
#pragma once

#include <cstdint>
#include <span>

#include "net/address.hpp"

namespace streamlab {

/// Running one's-complement sum; fold() produces the final checksum value.
/// Sections may be added piecewise (header, pseudo-header, payload), split at
/// any byte — odd or even.
class ChecksumAccumulator {
 public:
  /// Sums 32-bit big-endian words: 2^16 ≡ 1 (mod 2^16 - 1), so a word's two
  /// 16-bit halves added as one 32-bit value fold to the same checksum.
  void add(std::span<const std::uint8_t> data);
  void add_u16(std::uint16_t v);
  void add_u32(std::uint32_t v);
  /// Final folded, complemented checksum in host order.
  std::uint16_t fold() const;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // true when the byte stream so far has odd length
};

/// One-shot checksum of a buffer.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// UDP/TCP checksum including the IPv4 pseudo-header. `segment` is the full
/// transport header + payload with its checksum field zeroed.
std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment);

/// The same checksum over a segment given as its header (checksum field
/// zeroed) and payload, so encoders never copy the payload to checksum it.
std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> header,
                                 std::span<const std::uint8_t> payload);

}  // namespace streamlab
