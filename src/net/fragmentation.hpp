// IPv4 fragmentation and reassembly.
//
// This is the mechanism behind the paper's central MediaPlayer observation:
// WM servers hand the OS application frames larger than the 1500-byte MTU,
// the sending host's IP layer fragments them, and the sniffer sees groups of
// 1514-byte wire frames followed by one short tail fragment (Figures 4-5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace streamlab {

/// Splits a datagram into MTU-sized fragments, RFC 791 style, handing each
/// to `emit(const Ipv4Packet&)` in offset order. A packet that already fits
/// is emitted unchanged. Fragment payload sizes are the largest multiple of
/// 8 that fits, so a 1500-byte MTU yields 1480-byte fragment payloads —
/// 1514-byte frames on the wire. Each fragment's payload is a view into the
/// datagram's block: no payload byte moves and nothing is allocated.
/// Emits nothing if the packet has DF set and does not fit.
template <typename Emit>
void for_each_fragment(const Ipv4Packet& packet, std::size_t mtu, Emit&& emit) {
  if (packet.total_length() <= mtu) {
    emit(packet);
    return;
  }
  if (packet.header.dont_fragment) return;

  // Largest 8-byte-aligned payload per fragment.
  const std::size_t max_payload = ((mtu - kIpv4HeaderSize) / 8) * 8;
  const Buffer& payload = packet.payload;
  Ipv4Packet frag;
  frag.header = packet.header;
  for (std::size_t offset = 0; offset < payload.size(); offset += max_payload) {
    const std::size_t chunk = std::min(max_payload, payload.size() - offset);
    frag.header.fragment_offset_units =
        static_cast<std::uint16_t>((packet.header.fragment_offset_bytes() + offset) / 8);
    frag.header.more_fragments =
        (offset + chunk < payload.size()) || packet.header.more_fragments;
    frag.payload = payload.view(offset, chunk);
    frag.header.total_length = static_cast<std::uint16_t>(frag.total_length());
    emit(std::as_const(frag));
  }
}

/// for_each_fragment collected into a vector (empty when DF forbids it).
std::vector<Ipv4Packet> fragment_packet(const Ipv4Packet& packet, std::size_t mtu);

/// Reassembles fragmented datagrams at the receiving host. Holds partial
/// datagrams keyed by (src, dst, protocol, identification) and evicts
/// partials that exceed the reassembly timeout — each eviction models the
/// "loss of a single fragment discards the whole application frame"
/// goodput hazard the paper flags (Section 3.C).
class Reassembler {
 public:
  struct Stats {
    std::uint64_t datagrams_delivered = 0;   ///< complete datagrams handed up
    std::uint64_t fragments_received = 0;    ///< fragment packets seen
    std::uint64_t unfragmented_received = 0; ///< whole datagrams passed through
    std::uint64_t datagrams_expired = 0;     ///< partials dropped on timeout
    std::uint64_t fragments_wasted = 0;      ///< fragment packets in expired partials
  };

  explicit Reassembler(Duration timeout = Duration::seconds(30)) : timeout_(timeout) {}

  /// Offers a received packet; returns the complete datagram when this
  /// packet finishes one (or immediately for unfragmented packets).
  std::optional<Ipv4Packet> offer(const Ipv4Packet& packet, SimTime now);

  /// Drops partial datagrams older than the timeout.
  void expire(SimTime now);

  const Stats& stats() const { return stats_; }
  std::size_t pending() const;

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t protocol;
    std::uint16_t id;
    bool operator==(const Key&) const = default;
  };
  /// One partial datagram. Slots are reused, not freed: a completed or
  /// expired partial only goes idle, keeping its byte and coverage capacity
  /// for the next datagram, so steady-state reassembly allocates nothing.
  struct Partial {
    bool live = false;
    Key key{};
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> have;  // per-byte coverage map (0/1)
    std::size_t covered = 0;         // ones in `have`: complete when == size
    std::optional<std::size_t> total_size;
    Ipv4Header first_header;
    bool have_first = false;
    SimTime first_seen;
    std::uint64_t fragment_count = 0;
  };

  Partial& slot_for(const Key& key, SimTime now);

  Duration timeout_;
  std::vector<Partial> slots_;
  Stats stats_;
};

}  // namespace streamlab
