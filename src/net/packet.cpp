#include "net/packet.hpp"

#include <algorithm>

namespace streamlab {

Ipv4Packet make_udp_packet(Endpoint src, Endpoint dst, std::span<const std::uint8_t> payload,
                           std::uint16_t ip_id, std::uint8_t ttl) {
  Ipv4Packet pkt;
  pkt.header.protocol = kIpProtoUdp;
  pkt.header.identification = ip_id;
  pkt.header.ttl = ttl;
  pkt.header.src = src.ip;
  pkt.header.dst = dst.ip;

  UdpHeader udp;
  udp.src_port = src.port;
  udp.dst_port = dst.port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload.size());

  pkt.payload = Buffer::build(kUdpHeaderSize + payload.size(), [&](std::uint8_t* out) {
    udp.encode_to(out, src.ip, dst.ip, payload);
    std::copy(payload.begin(), payload.end(), out + kUdpHeaderSize);
  });
  pkt.header.total_length = static_cast<std::uint16_t>(pkt.total_length());
  return pkt;
}

Ipv4Packet make_tcp_packet(Endpoint src, Endpoint dst, const TcpHeader& tcp,
                           std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                           std::uint8_t ttl) {
  Ipv4Packet pkt;
  pkt.header.protocol = kIpProtoTcp;
  pkt.header.identification = ip_id;
  pkt.header.ttl = ttl;
  pkt.header.src = src.ip;
  pkt.header.dst = dst.ip;
  pkt.header.dont_fragment = true;  // TCP segments honour path MTU

  TcpHeader seg = tcp;
  seg.src_port = src.port;
  seg.dst_port = dst.port;

  pkt.payload = Buffer::build(kTcpHeaderSize + payload.size(), [&](std::uint8_t* out) {
    seg.encode_to(out, src.ip, dst.ip, payload);
    std::copy(payload.begin(), payload.end(), out + kTcpHeaderSize);
  });
  pkt.header.total_length = static_cast<std::uint16_t>(pkt.total_length());
  return pkt;
}

Ipv4Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, const IcmpHeader& icmp,
                            std::span<const std::uint8_t> payload, std::uint16_t ip_id,
                            std::uint8_t ttl) {
  Ipv4Packet pkt;
  pkt.header.protocol = kIpProtoIcmp;
  pkt.header.identification = ip_id;
  pkt.header.ttl = ttl;
  pkt.header.src = src;
  pkt.header.dst = dst;

  pkt.payload = Buffer::build(kIcmpHeaderSize + payload.size(), [&](std::uint8_t* out) {
    icmp.encode_to(out, payload);
    std::copy(payload.begin(), payload.end(), out + kIcmpHeaderSize);
  });
  pkt.header.total_length = static_cast<std::uint16_t>(pkt.total_length());
  return pkt;
}

Frame frame_ipv4(MacAddress src_mac, MacAddress dst_mac, const Ipv4Packet& packet) {
  EthernetHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  return Frame(Buffer::build(
      kEthernetHeaderSize + packet.total_length(), [&](std::uint8_t* out) {
        eth.encode_to(out);
        packet.header.encode_to(out + kEthernetHeaderSize);
        std::copy(packet.payload.begin(), packet.payload.end(),
                  out + kEthernetHeaderSize + kIpv4HeaderSize);
      }));
}

namespace {

/// Shared parse: fills everything but `out.payload`, reporting the payload's
/// (offset, length) within `frame` so callers can either copy the slice or
/// take a zero-copy view of an owning Buffer.
Expected<std::pair<std::size_t, std::size_t>> parse_frame_headers(
    std::span<const std::uint8_t> frame, ParsedFrame& out) {
  ByteReader r(frame);

  auto eth = EthernetHeader::decode(r);
  if (!eth) return Unexpected(eth.error());
  out.eth = *eth;
  if (out.eth.ethertype != kEtherTypeIpv4)
    return Unexpected(std::string("not an IPv4 frame"));

  auto ip = Ipv4Header::decode(r);
  if (!ip) return Unexpected(ip.error());
  out.ip = *ip;
  if (out.ip.payload_length() > r.remaining())
    return Unexpected(std::string("IPv4 total length exceeds frame"));
  const std::size_t ip_payload_offset = r.offset();
  auto ip_payload = r.bytes(out.ip.payload_length());

  if (out.ip.is_trailing_fragment()) {
    // No transport header: this is a middle/last slice of a larger datagram.
    return std::pair{ip_payload_offset, ip_payload.size()};
  }

  ByteReader tr(ip_payload);
  switch (out.ip.protocol) {
    case kIpProtoUdp: {
      auto udp = UdpHeader::decode(tr);
      if (!udp) return Unexpected(udp.error());
      out.udp = *udp;
      break;
    }
    case kIpProtoTcp: {
      auto tcp = TcpHeader::decode(tr);
      if (!tcp) return Unexpected(tcp.error());
      out.tcp = *tcp;
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = IcmpHeader::decode(tr);
      if (!icmp) return Unexpected(icmp.error());
      out.icmp = *icmp;
      break;
    }
    default:
      break;  // unknown transport: expose raw payload
  }
  return std::pair{ip_payload_offset + tr.offset(), tr.remaining()};
}

}  // namespace

Expected<ParsedFrame> parse_frame(std::span<const std::uint8_t> frame) {
  ParsedFrame out;
  auto slice = parse_frame_headers(frame, out);
  if (!slice) return Unexpected(slice.error());
  out.payload = Buffer::copy_of(frame.subspan(slice->first, slice->second));
  return out;
}

Expected<ParsedFrame> parse_frame(const Frame& frame) {
  ParsedFrame out;
  auto slice = parse_frame_headers(frame.bytes(), out);
  if (!slice) return Unexpected(slice.error());
  out.payload = frame.buffer().view(slice->first, slice->second);
  return out;
}

}  // namespace streamlab
