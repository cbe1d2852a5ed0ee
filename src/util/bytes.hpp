// Serialization helpers for network headers and pcap files.
//
// Network headers are big-endian; the pcap file format is host-endian (we
// always write little-endian and accept either on read). These two small
// cursor types centralise bounds checking so header codecs stay branch-light.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace streamlab {

/// Bounds-checked big-endian reader over a byte span. Reads past the end
/// set a sticky error flag instead of throwing; callers check ok() once at
/// the end of a header parse.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  std::uint8_t u8();
  std::uint16_t u16be();
  std::uint32_t u32be();
  std::uint16_t u16le();
  std::uint32_t u32le();
  /// Returns a view of the next n bytes and advances; empty view on underrun.
  std::span<const std::uint8_t> bytes(std::size_t n);
  void skip(std::size_t n);

 private:
  bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Append-only big/little-endian writer into a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v);
  void u16be(std::uint16_t v);
  void u32be(std::uint32_t v);
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Overwrites 2 bytes at an absolute offset (used to patch checksums and
  /// length fields after the payload is known).
  void patch_u16be(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Big-endian stores into raw storage, for encoders that write a header
/// straight into its final buffer (net::Buffer::build) instead of growing
/// a ByteWriter. The caller guarantees the bytes are in bounds.
inline void put_u16be(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v);
}
inline void put_u32be(std::uint8_t* out, std::uint32_t v) {
  put_u16be(out, static_cast<std::uint16_t>(v >> 16));
  put_u16be(out + 2, static_cast<std::uint16_t>(v));
}

/// Hex dump ("de ad be ef ..."), mostly for test failure messages.
std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes = 64);

}  // namespace streamlab
