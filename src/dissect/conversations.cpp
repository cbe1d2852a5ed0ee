#include "dissect/conversations.hpp"

#include <algorithm>

#include "net/address.hpp"

namespace streamlab {
namespace {

const char* proto_name(std::uint8_t proto) {
  switch (proto) {
    case 1: return "icmp";
    case 6: return "tcp";
    case 17: return "udp";
    default: return "ip";
  }
}

}  // namespace

std::string ConversationStats::label() const {
  return Ipv4Address(key.addr_a).to_string() + ":" + std::to_string(key.port_a) +
         " <-> " + Ipv4Address(key.addr_b).to_string() + ":" +
         std::to_string(key.port_b) + " (" + proto_name(key.protocol) + ")";
}

void ConversationTable::add(const DissectedPacket& packet) {
  const auto src = packet.number(FieldId::kIpSrc);
  const auto dst = packet.number(FieldId::kIpDst);
  const auto proto = packet.number(FieldId::kIpProto);
  if (!src || !dst || !proto) {
    ++unattributed_;
    return;
  }
  const auto src_addr = static_cast<std::uint32_t>(*src);
  const auto dst_addr = static_cast<std::uint32_t>(*dst);
  const auto protocol = static_cast<std::uint8_t>(*proto);

  // Ports, when a transport header is present; a packet missing either one
  // is treated as port-less.
  const bool tcp = protocol == 6;
  const auto sp = packet.number(tcp ? FieldId::kTcpSrcPort : FieldId::kUdpSrcPort);
  const auto dp = packet.number(tcp ? FieldId::kTcpDstPort : FieldId::kUdpDstPort);
  const bool have_ports = sp && dp;
  const auto src_port = static_cast<std::uint16_t>(have_ports ? *sp : 0);
  const auto dst_port = static_cast<std::uint16_t>(have_ports ? *dp : 0);

  const auto frag = packet.number(FieldId::kIpFragOffset);
  const bool trailing = frag && *frag > 0;

  ConversationKey key;
  if (!trailing && have_ports) {
    // Canonical orientation: smaller (addr, port) endpoint is side A.
    if (std::tie(src_addr, src_port) <= std::tie(dst_addr, dst_port)) {
      key = {src_addr, dst_addr, src_port, dst_port, protocol};
    } else {
      key = {dst_addr, src_addr, dst_port, src_port, protocol};
    }
    last_flow_[{std::min(src_addr, dst_addr), std::max(src_addr, dst_addr), protocol}] =
        key;
  } else {
    // Fragment (or port-less protocol): attribute to the last conversation
    // between the address pair.
    auto it = last_flow_.find(
        {std::min(src_addr, dst_addr), std::max(src_addr, dst_addr), protocol});
    if (it == last_flow_.end()) {
      if (protocol == 1) {
        key = {std::min(src_addr, dst_addr), std::max(src_addr, dst_addr), 0, 0,
               protocol};
      } else {
        ++unattributed_;
        return;
      }
    } else {
      key = it->second;
    }
  }

  auto [entry, inserted] = table_.try_emplace(key);
  ConversationStats& stats = entry->second;
  if (inserted) {
    stats.key = key;
    stats.first_seen = packet.timestamp;
  }
  stats.last_seen = std::max(stats.last_seen, packet.timestamp);
  const auto bytes = static_cast<std::uint64_t>(packet.frame_length);
  if (src_addr == key.addr_a && (!have_ports || src_port == key.port_a)) {
    ++stats.packets_a_to_b;
    stats.bytes_a_to_b += bytes;
  } else {
    ++stats.packets_b_to_a;
    stats.bytes_b_to_a += bytes;
  }
  if (trailing) ++stats.fragments;
}

void ConversationTable::add_all(const std::vector<DissectedPacket>& packets) {
  for (const auto& p : packets) add(p);
}

std::vector<ConversationStats> ConversationTable::by_bytes() const {
  std::vector<ConversationStats> out;
  out.reserve(table_.size());
  for (const auto& [key, stats] : table_) out.push_back(stats);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.total_bytes() > b.total_bytes();
  });
  return out;
}

}  // namespace streamlab
