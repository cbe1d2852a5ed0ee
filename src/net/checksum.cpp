#include "net/checksum.hpp"

namespace streamlab {

void ChecksumAccumulator::add(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (odd_ && n > 0) {
    // Previous section ended on an odd byte: the first byte here is the low
    // half of that straddling 16-bit word.
    sum_ += *p++;
    --n;
    odd_ = false;
  }
  for (; n >= 4; p += 4, n -= 4) {
    sum_ += (static_cast<std::uint32_t>(p[0]) << 24) |
            (static_cast<std::uint32_t>(p[1]) << 16) |
            (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
  }
  if (n >= 2) {
    sum_ += (static_cast<std::uint32_t>(p[0]) << 8) | p[1];
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    sum_ += static_cast<std::uint32_t>(p[0]) << 8;
    odd_ = true;
  }
}

void ChecksumAccumulator::add_u16(std::uint16_t v) {
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
  add(bytes);
}

void ChecksumAccumulator::add_u32(std::uint32_t v) {
  add_u16(static_cast<std::uint16_t>(v >> 16));
  add_u16(static_cast<std::uint16_t>(v));
}

std::uint16_t ChecksumAccumulator::fold() const {
  std::uint64_t s = sum_;
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFF);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.fold();
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment) {
  return transport_checksum(src, dst, protocol, segment, {});
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> header,
                                 std::span<const std::uint8_t> payload) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(protocol);  // zero byte + protocol
  acc.add_u16(static_cast<std::uint16_t>(header.size() + payload.size()));
  acc.add(header);
  acc.add(payload);
  const std::uint16_t c = acc.fold();
  // RFC 768: a computed UDP checksum of zero is transmitted as all ones.
  return c == 0 ? 0xFFFF : c;
}

}  // namespace streamlab
