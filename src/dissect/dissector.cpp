#include "dissect/dissector.hpp"

#include <algorithm>

#include "net/headers.hpp"
#include "util/strings.hpp"

namespace streamlab {
namespace {

/// How a field's display text is built from its stored value.
enum class Format : std::uint8_t { kDecimal, kIpv4, kMac };

struct FieldSpec {
  std::string_view name;
  Format format = Format::kDecimal;
};

// Indexed by FieldId.
constexpr std::array<FieldSpec, kFieldCount> kFields{{
    {"frame.len"}, {"frame.cap_len"}, {"frame.time_ns"},
    {"eth.src", Format::kMac}, {"eth.dst", Format::kMac}, {"eth.type"},
    {"ip.len"}, {"ip.id"}, {"ip.flags.df"}, {"ip.flags.mf"}, {"ip.frag_offset"},
    {"ip.fragment"}, {"ip.ttl"}, {"ip.proto"}, {"ip.src", Format::kIpv4},
    {"ip.dst", Format::kIpv4}, {"ip.payload_len"},
    {"udp.srcport"}, {"udp.dstport"}, {"udp.length"}, {"udp.checksum"},
    {"tcp.srcport"}, {"tcp.dstport"}, {"tcp.seq"}, {"tcp.ack"}, {"tcp.flags.syn"},
    {"tcp.flags.ack"}, {"tcp.flags.fin"}, {"tcp.flags.rst"}, {"tcp.window"},
    {"icmp.type"}, {"icmp.code"}, {"icmp.ident"}, {"icmp.seq"},
}};
static_assert(static_cast<std::size_t>(FieldId::kIcmpSeq) + 1 == kFieldCount);

// Indexed by Layer.
constexpr std::array<std::string_view, kLayerCount> kLayers{"eth", "ip",   "udp",
                                                            "tcp", "icmp", "_malformed"};
static_assert(static_cast<std::size_t>(Layer::kMalformed) + 1 == kLayerCount);

std::int64_t mac_value(const MacAddress& mac) {
  std::int64_t v = 0;
  for (const auto octet : mac.octets()) v = (v << 8) | octet;
  return v;
}

MacAddress mac_of(std::int64_t v) {
  std::array<std::uint8_t, 6> octets{};
  for (std::size_t i = octets.size(); i-- > 0; v >>= 8)
    octets[i] = static_cast<std::uint8_t>(v & 0xFF);
  return MacAddress(octets);
}

const FieldSpec& spec(FieldId id) { return kFields[static_cast<std::size_t>(id)]; }

}  // namespace

std::string_view field_name(FieldId id) { return spec(id).name; }

std::optional<FieldId> find_field(std::string_view name) {
  for (std::size_t i = 0; i < kFields.size(); ++i)
    if (kFields[i].name == name) return static_cast<FieldId>(i);
  return std::nullopt;
}

std::optional<Layer> find_layer(std::string_view name) {
  for (std::size_t i = 0; i < kLayers.size(); ++i)
    if (kLayers[i] == name) return static_cast<Layer>(i);
  return std::nullopt;
}

bool DissectedPacket::set(std::string_view name, const FieldValue& value) {
  const auto id = find_field(name);
  if (!id) return false;
  if (spec(*id).format != Format::kMac) {
    set(*id, value.number);
    return true;
  }
  const auto mac = MacAddress::parse(value.display);
  if (!mac) return false;
  set(*id, mac_value(*mac));
  return true;
}

bool DissectedPacket::add_layer(std::string_view proto) {
  const auto layer = find_layer(proto);
  if (!layer) return false;
  add_layer(*layer);
  return true;
}

std::optional<std::int64_t> DissectedPacket::number(FieldId id) const {
  if (!has(id)) return std::nullopt;
  if (spec(id).format == Format::kMac) return 0;
  return values_[static_cast<std::size_t>(id)];
}

std::string DissectedPacket::display(FieldId id) const {
  if (!has(id)) return {};
  const std::int64_t v = values_[static_cast<std::size_t>(id)];
  switch (spec(id).format) {
    case Format::kDecimal: return std::to_string(v);
    case Format::kIpv4: return Ipv4Address(static_cast<std::uint32_t>(v)).to_string();
    case Format::kMac: return mac_of(v).to_string();
  }
  return {};
}

std::optional<FieldValue> DissectedPacket::field(const std::string& name) const {
  const auto id = find_field(name);
  if (!id || !has(*id)) return std::nullopt;
  return FieldValue::of(*number(*id), display(*id));
}

bool DissectedPacket::has_layer(const std::string& proto) const {
  const auto layer = find_layer(proto);
  return layer && has_layer(*layer);
}

std::string DissectedPacket::summary() const {
  using F = FieldId;
  std::string out = fmt_double(timestamp.to_seconds(), 6) + "s";
  if (has(F::kIpSrc) && has(F::kIpDst))
    out += " IP " + display(F::kIpSrc) + " > " + display(F::kIpDst);
  if (has_layer(Layer::kUdp)) {
    out += " UDP " + display(F::kUdpSrcPort) + "->" + display(F::kUdpDstPort);
  } else if (has_layer(Layer::kTcp)) {
    out += " TCP " + display(F::kTcpSrcPort) + "->" + display(F::kTcpDstPort);
  } else if (has_layer(Layer::kIcmp)) {
    out += " ICMP type=" + display(F::kIcmpType);
  }
  if (const auto off = number(F::kIpFragOffset); off && *off > 0)
    out += " frag@" + display(F::kIpFragOffset);
  out += " len=" + std::to_string(frame_length);
  return out;
}

DissectedPacket dissect(const CaptureRecord& record) {
  using F = FieldId;
  DissectedPacket pkt;
  pkt.timestamp = record.timestamp;
  pkt.frame_length = record.original_length;
  pkt.set(F::kFrameLen, record.original_length);
  pkt.set(F::kFrameCapLen, static_cast<std::int64_t>(record.data.size()));
  pkt.set(F::kFrameTimeNs, record.timestamp.ns());

  ByteReader r(record.data);
  auto eth = EthernetHeader::decode(r);
  if (!eth) {
    pkt.add_layer(Layer::kMalformed);
    return pkt;
  }
  pkt.add_layer(Layer::kEth);
  pkt.set(F::kEthSrc, mac_value(eth->src));
  pkt.set(F::kEthDst, mac_value(eth->dst));
  pkt.set(F::kEthType, eth->ethertype);
  if (eth->ethertype != kEtherTypeIpv4) return pkt;

  auto ip = Ipv4Header::decode(r);
  if (!ip) {
    pkt.add_layer(Layer::kMalformed);
    return pkt;
  }
  pkt.add_layer(Layer::kIp);
  pkt.set(F::kIpLen, ip->total_length);
  pkt.set(F::kIpId, ip->identification);
  pkt.set(F::kIpFlagsDf, ip->dont_fragment ? 1 : 0);
  pkt.set(F::kIpFlagsMf, ip->more_fragments ? 1 : 0);
  pkt.set(F::kIpFragOffset, static_cast<std::int64_t>(ip->fragment_offset_bytes()));
  pkt.set(F::kIpFragment, ip->is_fragment() ? 1 : 0);
  pkt.set(F::kIpTtl, ip->ttl);
  pkt.set(F::kIpProto, ip->protocol);
  pkt.set(F::kIpSrc, ip->src.value());
  pkt.set(F::kIpDst, ip->dst.value());

  if (ip->is_trailing_fragment()) {
    // Trailing fragments carry no transport header; data bytes only.
    pkt.set(F::kIpPayloadLen, static_cast<std::int64_t>(ip->payload_length()));
    return pkt;
  }

  const std::size_t ip_payload = std::min<std::size_t>(ip->payload_length(), r.remaining());
  ByteReader tr(r.bytes(ip_payload));

  switch (ip->protocol) {
    case kIpProtoUdp: {
      auto udp = UdpHeader::decode(tr);
      if (!udp) {
        pkt.add_layer(Layer::kMalformed);
        return pkt;
      }
      pkt.add_layer(Layer::kUdp);
      pkt.set(F::kUdpSrcPort, udp->src_port);
      pkt.set(F::kUdpDstPort, udp->dst_port);
      pkt.set(F::kUdpLength, udp->length);
      pkt.set(F::kUdpChecksum, udp->checksum);
      break;
    }
    case kIpProtoTcp: {
      auto tcp = TcpHeader::decode(tr);
      if (!tcp) {
        pkt.add_layer(Layer::kMalformed);
        return pkt;
      }
      pkt.add_layer(Layer::kTcp);
      pkt.set(F::kTcpSrcPort, tcp->src_port);
      pkt.set(F::kTcpDstPort, tcp->dst_port);
      pkt.set(F::kTcpSeq, tcp->seq);
      pkt.set(F::kTcpAck, tcp->ack);
      pkt.set(F::kTcpFlagsSyn, tcp->flag_syn ? 1 : 0);
      pkt.set(F::kTcpFlagsAck, tcp->flag_ack ? 1 : 0);
      pkt.set(F::kTcpFlagsFin, tcp->flag_fin ? 1 : 0);
      pkt.set(F::kTcpFlagsRst, tcp->flag_rst ? 1 : 0);
      pkt.set(F::kTcpWindow, tcp->window);
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = IcmpHeader::decode(tr);
      if (!icmp) {
        pkt.add_layer(Layer::kMalformed);
        return pkt;
      }
      pkt.add_layer(Layer::kIcmp);
      pkt.set(F::kIcmpType, static_cast<std::int64_t>(icmp->type));
      pkt.set(F::kIcmpCode, icmp->code);
      pkt.set(F::kIcmpIdent, icmp->identifier);
      pkt.set(F::kIcmpSeq, icmp->sequence);
      break;
    }
    default:
      break;
  }
  return pkt;
}

std::vector<DissectedPacket> dissect_trace(const CaptureTrace& trace) {
  std::vector<DissectedPacket> out;
  out.reserve(trace.size());
  for (const auto& rec : trace.records()) out.push_back(dissect(rec));
  return out;
}

}  // namespace streamlab
