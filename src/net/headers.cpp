#include "net/headers.hpp"

#include <algorithm>
#include <array>

#include "net/checksum.hpp"

namespace streamlab {

void EthernetHeader::encode(ByteWriter& w) const {
  std::array<std::uint8_t, kEthernetHeaderSize> out;
  encode_to(out.data());
  w.bytes(out);
}

void EthernetHeader::encode_to(std::uint8_t* out) const {
  std::copy(dst.octets().begin(), dst.octets().end(), out);
  std::copy(src.octets().begin(), src.octets().end(), out + 6);
  put_u16be(out + 12, ethertype);
}

Expected<EthernetHeader> EthernetHeader::decode(ByteReader& r) {
  EthernetHeader h;
  auto dst_bytes = r.bytes(6);
  auto src_bytes = r.bytes(6);
  h.ethertype = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated Ethernet header"));
  std::array<std::uint8_t, 6> tmp{};
  std::copy(dst_bytes.begin(), dst_bytes.end(), tmp.begin());
  h.dst = MacAddress(tmp);
  std::copy(src_bytes.begin(), src_bytes.end(), tmp.begin());
  h.src = MacAddress(tmp);
  return h;
}

void Ipv4Header::encode(ByteWriter& w) const {
  std::array<std::uint8_t, kIpv4HeaderSize> out;
  encode_to(out.data());
  w.bytes(out);
}

void Ipv4Header::encode_to(std::uint8_t* out) const {
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = dscp;
  put_u16be(out + 2, total_length);
  put_u16be(out + 4, identification);
  std::uint16_t flags_frag = fragment_offset_units & 0x1FFF;
  if (dont_fragment) flags_frag |= 0x4000;
  if (more_fragments) flags_frag |= 0x2000;
  put_u16be(out + 6, flags_frag);
  out[8] = ttl;
  out[9] = protocol;
  put_u16be(out + 10, 0);  // checksum placeholder
  put_u32be(out + 12, src.value());
  put_u32be(out + 16, dst.value());
  put_u16be(out + 10, internet_checksum({out, kIpv4HeaderSize}));
}

Expected<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  const auto header_view = r.bytes(kIpv4HeaderSize);
  if (header_view.size() != kIpv4HeaderSize)
    return Unexpected(std::string("truncated IPv4 header"));
  ByteReader hr(header_view);
  Ipv4Header h;
  const std::uint8_t ver_ihl = hr.u8();
  if ((ver_ihl >> 4) != 4) return Unexpected(std::string("not IPv4"));
  if ((ver_ihl & 0x0F) != 5)
    return Unexpected(std::string("IPv4 options unsupported"));
  h.dscp = hr.u8();
  h.total_length = hr.u16be();
  h.identification = hr.u16be();
  const std::uint16_t flags_frag = hr.u16be();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.fragment_offset_units = flags_frag & 0x1FFF;
  h.ttl = hr.u8();
  h.protocol = hr.u8();
  h.header_checksum = hr.u16be();
  h.src = Ipv4Address(hr.u32be());
  h.dst = Ipv4Address(hr.u32be());
  if (internet_checksum(header_view) != 0)
    return Unexpected(std::string("bad IPv4 header checksum"));
  return h;
}

void UdpHeader::encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::span<const std::uint8_t> payload) const {
  std::array<std::uint8_t, kUdpHeaderSize> out;
  encode_to(out.data(), src_ip, dst_ip, payload);
  w.bytes(out);
}

void UdpHeader::encode_to(std::uint8_t* out, Ipv4Address src_ip, Ipv4Address dst_ip,
                          std::span<const std::uint8_t> payload) const {
  // Header with a zero checksum first, then the checksum over pseudo-header,
  // header and payload, patched in.
  put_u16be(out, src_port);
  put_u16be(out + 2, dst_port);
  put_u16be(out + 4, length);
  put_u16be(out + 6, 0);
  put_u16be(out + 6, transport_checksum(src_ip, dst_ip, kIpProtoUdp,
                                        {out, kUdpHeaderSize}, payload));
}

Expected<UdpHeader> UdpHeader::decode(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16be();
  h.dst_port = r.u16be();
  h.length = r.u16be();
  h.checksum = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated UDP header"));
  if (h.length < kUdpHeaderSize) return Unexpected(std::string("bad UDP length"));
  return h;
}

void TcpHeader::encode(ByteWriter& w, Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::span<const std::uint8_t> payload) const {
  std::array<std::uint8_t, kTcpHeaderSize> out;
  encode_to(out.data(), src_ip, dst_ip, payload);
  w.bytes(out);
}

void TcpHeader::encode_to(std::uint8_t* out, Ipv4Address src_ip, Ipv4Address dst_ip,
                          std::span<const std::uint8_t> payload) const {
  std::uint16_t off_flags = static_cast<std::uint16_t>(5u << 12);
  if (flag_fin) off_flags |= 0x001;
  if (flag_syn) off_flags |= 0x002;
  if (flag_rst) off_flags |= 0x004;
  if (flag_psh) off_flags |= 0x008;
  if (flag_ack) off_flags |= 0x010;

  put_u16be(out, src_port);
  put_u16be(out + 2, dst_port);
  put_u32be(out + 4, seq);
  put_u32be(out + 8, ack);
  put_u16be(out + 12, off_flags);
  put_u16be(out + 14, window);
  put_u16be(out + 16, 0);  // checksum
  put_u16be(out + 18, 0);  // urgent pointer
  put_u16be(out + 16, transport_checksum(src_ip, dst_ip, kIpProtoTcp,
                                         {out, kTcpHeaderSize}, payload));
}

Expected<TcpHeader> TcpHeader::decode(ByteReader& r) {
  TcpHeader h;
  h.src_port = r.u16be();
  h.dst_port = r.u16be();
  h.seq = r.u32be();
  h.ack = r.u32be();
  const std::uint16_t off_flags = r.u16be();
  h.window = r.u16be();
  h.checksum = r.u16be();
  r.u16be();  // urgent pointer
  if (!r.ok()) return Unexpected(std::string("truncated TCP header"));
  const unsigned data_offset = off_flags >> 12;
  if (data_offset < 5) return Unexpected(std::string("bad TCP data offset"));
  // Skip TCP options so the reader is positioned at the payload.
  r.skip((data_offset - 5) * 4);
  if (!r.ok()) return Unexpected(std::string("truncated TCP options"));
  h.flag_fin = off_flags & 0x001;
  h.flag_syn = off_flags & 0x002;
  h.flag_rst = off_flags & 0x004;
  h.flag_psh = off_flags & 0x008;
  h.flag_ack = off_flags & 0x010;
  return h;
}

void IcmpHeader::encode(ByteWriter& w, std::span<const std::uint8_t> payload) const {
  std::array<std::uint8_t, kIcmpHeaderSize> out;
  encode_to(out.data(), payload);
  w.bytes(out);
}

void IcmpHeader::encode_to(std::uint8_t* out, std::span<const std::uint8_t> payload) const {
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = code;
  put_u16be(out + 2, 0);
  put_u16be(out + 4, identifier);
  put_u16be(out + 6, sequence);
  ChecksumAccumulator acc;
  acc.add({out, kIcmpHeaderSize});
  acc.add(payload);
  put_u16be(out + 2, acc.fold());
}

Expected<IcmpHeader> IcmpHeader::decode(ByteReader& r) {
  IcmpHeader h;
  h.type = static_cast<IcmpType>(r.u8());
  h.code = r.u8();
  h.checksum = r.u16be();
  h.identifier = r.u16be();
  h.sequence = r.u16be();
  if (!r.ok()) return Unexpected(std::string("truncated ICMP header"));
  return h;
}

}  // namespace streamlab
