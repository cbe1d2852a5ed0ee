#include "net/fragmentation.hpp"

#include <algorithm>

namespace streamlab {

std::vector<Ipv4Packet> fragment_packet(const Ipv4Packet& packet, std::size_t mtu) {
  std::vector<Ipv4Packet> fragments;
  for_each_fragment(packet, mtu, [&](const Ipv4Packet& f) { fragments.push_back(f); });
  return fragments;
}

std::size_t Reassembler::pending() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [](const Partial& p) { return p.live; }));
}

Reassembler::Partial& Reassembler::slot_for(const Key& key, SimTime now) {
  Partial* idle = nullptr;
  for (Partial& p : slots_) {
    if (p.live && p.key == key) return p;
    if (!p.live && idle == nullptr) idle = &p;
  }
  if (idle == nullptr) idle = &slots_.emplace_back();
  Partial& p = *idle;
  p.live = true;
  p.key = key;
  p.bytes.clear();
  p.have.clear();
  p.covered = 0;
  p.total_size.reset();
  p.have_first = false;
  p.first_seen = now;
  p.fragment_count = 0;
  return p;
}

std::optional<Ipv4Packet> Reassembler::offer(const Ipv4Packet& packet, SimTime now) {
  if (!packet.header.is_fragment()) {
    ++stats_.unfragmented_received;
    return packet;
  }
  ++stats_.fragments_received;

  const Key key{packet.header.src.value(), packet.header.dst.value(),
                packet.header.protocol, packet.header.identification};
  Partial& p = slot_for(key, now);
  ++p.fragment_count;

  const std::size_t off = packet.header.fragment_offset_bytes();
  const std::size_t end = off + packet.payload.size();
  if (end > p.bytes.size()) {
    p.bytes.resize(end);
    p.have.resize(end, 0);
  }
  std::copy(packet.payload.begin(), packet.payload.end(),
            p.bytes.begin() + static_cast<std::ptrdiff_t>(off));
  const auto have_begin = p.have.begin() + static_cast<std::ptrdiff_t>(off);
  const auto have_end = p.have.begin() + static_cast<std::ptrdiff_t>(end);
  p.covered += static_cast<std::size_t>(std::count(have_begin, have_end, 0));
  std::fill(have_begin, have_end, 1);

  if (!packet.header.more_fragments) p.total_size = end;
  if (packet.header.fragment_offset_units == 0) {
    p.first_header = packet.header;
    p.have_first = true;
  }

  if (!p.total_size || !p.have_first || p.bytes.size() != *p.total_size ||
      p.covered != p.bytes.size()) {
    return std::nullopt;
  }

  Ipv4Packet whole;
  whole.header = p.first_header;
  whole.header.more_fragments = false;
  whole.header.fragment_offset_units = 0;
  // One copy per *reassembled* datagram (the assembly scratch vector into a
  // refcounted block); unfragmented packets above never reach this path.
  whole.payload = Buffer::copy_of(p.bytes);
  whole.header.total_length = static_cast<std::uint16_t>(whole.total_length());
  p.live = false;
  ++stats_.datagrams_delivered;
  return whole;
}

void Reassembler::expire(SimTime now) {
  for (Partial& p : slots_) {
    if (p.live && now - p.first_seen > timeout_) {
      ++stats_.datagrams_expired;
      stats_.fragments_wasted += p.fragment_count;
      p.live = false;
    }
  }
}

}  // namespace streamlab
