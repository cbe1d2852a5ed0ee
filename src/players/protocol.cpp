#include "players/protocol.hpp"

#include <algorithm>
#include <array>

namespace streamlab {

std::vector<std::uint8_t> ControlMessage::encode() const {
  ByteWriter w(14 + clip_id.size());
  w.u16be(kControlMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16be(value);
  w.u32be(static_cast<std::uint32_t>(offset >> 32));
  w.u32be(static_cast<std::uint32_t>(offset));
  w.u8(static_cast<std::uint8_t>(clip_id.size()));
  for (char c : clip_id) w.u8(static_cast<std::uint8_t>(c));
  return w.take();
}

std::optional<ControlMessage> ControlMessage::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u16be() != kControlMagic) return std::nullopt;
  ControlMessage msg;
  msg.type = static_cast<ControlType>(r.u8());
  msg.value = r.u16be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  msg.offset = (hi << 32) | lo;
  const std::size_t len = r.u8();
  auto id = r.bytes(len);
  if (!r.ok()) return std::nullopt;
  msg.clip_id.assign(id.begin(), id.end());
  return msg;
}

namespace {

/// Two periods of the byte ramp 0..255: any 256-byte window of it is the
/// ramp starting at that window's first byte.
constexpr std::array<std::uint8_t, 512> kRamp = [] {
  std::array<std::uint8_t, 512> r{};
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = static_cast<std::uint8_t>(i);
  return r;
}();

}  // namespace

void DataHeader::encode_into(const DataHeader& header, std::size_t media_len,
                             std::vector<std::uint8_t>& out) {
  const bool multipath = (header.flags & kFlagMultipath) != 0;
  const std::size_t header_len = kDataHeaderSize + (multipath ? kMultipathExtensionSize : 0);
  out.clear();
  out.reserve(header_len + media_len);
  out.resize(header_len);
  std::uint8_t* p = out.data();
  put_u16be(p, kDataMagic);
  p[2] = header.flags;
  p[3] = multipath ? header.subflow_id : std::uint8_t{0};  // reserved pre-multipath
  put_u32be(p + 4, header.seq);
  put_u32be(p + 8, static_cast<std::uint32_t>(header.media_offset >> 32));
  put_u32be(p + 12, static_cast<std::uint32_t>(header.media_offset));
  if (multipath) put_u32be(p + 16, header.subflow_seq);
  // Synthetic media payload: deterministic pattern, compressible but nonzero
  // so captures are visually distinguishable from padding — the byte ramp
  // (media_offset + i) & 0xFF, appended 256 bytes (one period) at a time.
  const auto* ramp = kRamp.data() + (header.media_offset & 0xFF);
  for (std::size_t left = media_len; left > 0;) {
    const std::size_t chunk = std::min<std::size_t>(left, 256);
    out.insert(out.end(), ramp, ramp + chunk);
    left -= chunk;
  }
}

std::vector<std::uint8_t> DataHeader::make_packet(const DataHeader& header,
                                                  std::size_t media_len) {
  std::vector<std::uint8_t> out;
  encode_into(header, media_len, out);
  return out;
}

std::optional<DataHeader> DataHeader::decode(std::span<const std::uint8_t> payload,
                                             std::size_t& media_len) {
  ByteReader r(payload);
  if (r.u16be() != kDataMagic) return std::nullopt;
  DataHeader h;
  h.flags = r.u8();
  h.subflow_id = r.u8();  // reserved (always 0) without kFlagMultipath
  h.seq = r.u32be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  if ((h.flags & kFlagMultipath) != 0) h.subflow_seq = r.u32be();
  if (!r.ok()) return std::nullopt;
  h.media_offset = (hi << 32) | lo;
  media_len = r.remaining();
  return h;
}

bool ParityHeader::covers(std::uint32_t seq) const {
  if (k == 0 || stride == 0 || seq < block_base) return false;
  const std::uint32_t delta = seq - block_base;
  return delta % stride == 0 && delta / stride < k;
}

void ParityHeader::encode_into(const ParityHeader& header, std::size_t pad_len,
                               std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kParityHeaderSize + pad_len);
  out.resize(kParityHeaderSize);
  std::uint8_t* p = out.data();
  put_u16be(p, kParityMagic);
  p[2] = header.k;
  p[3] = header.stride;
  put_u32be(p + 4, header.block_base);
  put_u32be(p + 8, static_cast<std::uint32_t>(header.xor_media_offset >> 32));
  put_u32be(p + 12, static_cast<std::uint32_t>(header.xor_media_offset));
  put_u32be(p + 16, header.xor_media_len);
  p[20] = header.xor_flags;
  p[21] = 0;  // reserved
  out.resize(kParityHeaderSize + pad_len, std::uint8_t{0xFE});
}

std::vector<std::uint8_t> ParityHeader::make_packet(const ParityHeader& header,
                                                    std::size_t pad_len) {
  std::vector<std::uint8_t> out;
  encode_into(header, pad_len, out);
  return out;
}

std::optional<ParityHeader> ParityHeader::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u16be() != kParityMagic) return std::nullopt;
  ParityHeader h;
  h.k = r.u8();
  h.stride = r.u8();
  h.block_base = r.u32be();
  const std::uint64_t hi = r.u32be();
  const std::uint64_t lo = r.u32be();
  h.xor_media_len = r.u32be();
  h.xor_flags = r.u8();
  r.u8();  // reserved
  if (!r.ok()) return std::nullopt;
  h.xor_media_offset = (hi << 32) | lo;
  return h;
}

}  // namespace streamlab
