// Protocol dissection: turns a captured frame into the named fields
// ("ip.frag_offset", "udp.dstport", ...) of Ethereal / Wireshark, which is
// what the display-filter language evaluates against.
//
// The field set is fixed: one FieldId per name the dissector can emit. A
// DissectedPacket holds an inline value per field plus a presence bitmask
// and a layer bitmask, so dissecting a frame allocates nothing. Display
// text (dotted quad, MAC, decimal) is built only when field(name) or
// summary() asks for it. Callers on a hot path read values by id; the
// filter compiler resolves names to ids once per expression.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pcap/capture.hpp"

namespace streamlab {

/// A dissected field value. Every value is stored numerically (addresses as
/// their 32-bit integer, booleans as 0/1) together with a display string, so
/// filter comparisons are uniform.
struct FieldValue {
  std::int64_t number = 0;
  std::string display;

  static FieldValue of(std::int64_t n) { return {n, std::to_string(n)}; }
  static FieldValue of(std::int64_t n, std::string text) { return {n, std::move(text)}; }
};

/// Every field the dissector emits, in table order.
enum class FieldId : std::uint8_t {
  kFrameLen, kFrameCapLen, kFrameTimeNs,
  kEthSrc, kEthDst, kEthType,
  kIpLen, kIpId, kIpFlagsDf, kIpFlagsMf, kIpFragOffset, kIpFragment, kIpTtl, kIpProto,
  kIpSrc, kIpDst, kIpPayloadLen,
  kUdpSrcPort, kUdpDstPort, kUdpLength, kUdpChecksum,
  kTcpSrcPort, kTcpDstPort, kTcpSeq, kTcpAck, kTcpFlagsSyn, kTcpFlagsAck, kTcpFlagsFin,
  kTcpFlagsRst, kTcpWindow,
  kIcmpType, kIcmpCode, kIcmpIdent, kIcmpSeq,
};
inline constexpr std::size_t kFieldCount = 34;

/// Protocol layers; kMalformed marks a frame whose next header failed to parse.
enum class Layer : std::uint8_t { kEth, kIp, kUdp, kTcp, kIcmp, kMalformed };
inline constexpr std::size_t kLayerCount = 6;

/// Field name ("ip.frag_offset") of an id, and the id of a name.
std::string_view field_name(FieldId id);
std::optional<FieldId> find_field(std::string_view name);
/// The layer of a name ("udp", "_malformed").
std::optional<Layer> find_layer(std::string_view name);

/// The result of dissecting one frame.
class DissectedPacket {
 public:
  SimTime timestamp;
  std::size_t frame_length = 0;

  void set(FieldId id, std::int64_t value) {
    values_[static_cast<std::size_t>(id)] = value;
    present_ |= bit(id);
  }
  void add_layer(Layer layer) {
    layers_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(layer));
  }

  /// Name-based forms for hand-built packets. A MAC field takes its address
  /// from `value.display`. False, and no change, when the name is not in the
  /// table (or a MAC display does not parse).
  bool set(std::string_view name, const FieldValue& value);
  bool add_layer(std::string_view proto);

  bool has(FieldId id) const { return (present_ & bit(id)) != 0; }
  /// Numeric value; nullopt when absent. MAC fields read 0, as their
  /// address has no numeric form in the filter language.
  std::optional<std::int64_t> number(FieldId id) const;
  bool has_layer(Layer layer) const {
    return (layers_ & (1u << static_cast<unsigned>(layer))) != 0;
  }

  /// Field lookup; nullopt when the field is absent from this packet.
  std::optional<FieldValue> field(const std::string& name) const;
  /// True when the protocol layer (e.g. "udp") is present.
  bool has_layer(const std::string& proto) const;

  /// One-line summary ("12.345s IP 10.0.0.2 > 192.168.100.10 UDP 5005->4321 len=980").
  std::string summary() const;

 private:
  /// Display text; empty when absent.
  std::string display(FieldId id) const;

  static constexpr std::uint64_t bit(FieldId id) {
    return std::uint64_t{1} << static_cast<unsigned>(id);
  }

  std::array<std::int64_t, kFieldCount> values_{};  // MAC fields hold the 48-bit address
  std::uint64_t present_ = 0;
  std::uint8_t layers_ = 0;
};

/// Dissects a single captured frame. Malformed frames yield a packet with
/// whatever layers parsed plus a "_malformed" marker layer, rather than an
/// error — a sniffer must not lose records to bad checksums.
DissectedPacket dissect(const CaptureRecord& record);

/// Dissects a whole trace.
std::vector<DissectedPacket> dissect_trace(const CaptureTrace& trace);

}  // namespace streamlab
