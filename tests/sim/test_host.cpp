#include "sim/host.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/fragmentation.hpp"

namespace streamlab {
namespace {

/// Two hosts wired back-to-back through direct callbacks (no link), enough
/// to exercise the host-side UDP/ICMP/fragmentation logic in isolation.
struct HostPair {
  EventLoop loop;
  Host a{loop, "a", Ipv4Address(10, 0, 0, 1)};
  Host b{loop, "b", Ipv4Address(10, 0, 0, 2)};

  HostPair() {
    a.attach_interface([this](const Ipv4Packet& p) {
      loop.schedule_in(Duration::micros(10), [this, p] { b.handle_packet(p, 0); });
    });
    b.attach_interface([this](const Ipv4Packet& p) {
      loop.schedule_in(Duration::micros(10), [this, p] { a.handle_packet(p, 0); });
    });
  }
};

TEST(Host, UdpSendReceive) {
  HostPair hp;
  std::vector<std::uint8_t> received;
  Endpoint from;
  hp.b.udp_bind(7000, [&](std::span<const std::uint8_t> data, Endpoint src, SimTime) {
    received.assign(data.begin(), data.end());
    from = src;
  });

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  hp.a.udp_send(1234, Endpoint{hp.b.address(), 7000}, payload);
  hp.loop.run();

  EXPECT_EQ(received, payload);
  EXPECT_EQ(from.ip, hp.a.address());
  EXPECT_EQ(from.port, 1234);
  EXPECT_EQ(hp.b.stats().udp_datagrams_received, 1u);
}

TEST(Host, UdpToUnboundPortCounted) {
  HostPair hp;
  hp.a.udp_send(1, Endpoint{hp.b.address(), 9999}, std::vector<std::uint8_t>{1});
  hp.loop.run();
  EXPECT_EQ(hp.b.stats().udp_no_listener, 1u);
}

TEST(Host, UnbindStopsDelivery) {
  HostPair hp;
  int count = 0;
  hp.b.udp_bind(7000, [&](auto, auto, auto) { ++count; });
  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000}, std::vector<std::uint8_t>{1});
  hp.loop.run();
  hp.b.udp_unbind(7000);
  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000}, std::vector<std::uint8_t>{1});
  hp.loop.run();
  EXPECT_EQ(count, 1);
}

TEST(Host, LargeDatagramFragmentsAndReassembles) {
  HostPair hp;
  std::vector<std::uint8_t> received;
  hp.b.udp_bind(7000, [&](std::span<const std::uint8_t> data, Endpoint, SimTime) {
    received.assign(data.begin(), data.end());
  });

  std::vector<std::uint8_t> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000}, big);
  hp.loop.run();

  EXPECT_EQ(received, big);
  // 5008-byte UDP datagram -> 4 IP packets on the wire.
  EXPECT_EQ(hp.a.stats().ip_packets_sent, 4u);
  EXPECT_EQ(hp.a.stats().udp_datagrams_sent, 1u);
  EXPECT_EQ(hp.b.reassembly_stats().fragments_received, 4u);
  EXPECT_EQ(hp.b.reassembly_stats().datagrams_delivered, 1u);
}

TEST(Host, OversizeDatagramIsDroppedAndCounted) {
  // 65507 bytes is the largest payload the 16-bit UDP/IPv4 length fields can
  // describe; one byte more used to go out with wrapped lengths.
  HostPair hp;
  std::vector<std::size_t> received;
  hp.b.udp_bind(7000, [&](std::span<const std::uint8_t> data, Endpoint, SimTime) {
    received.push_back(data.size());
  });
  int tapped = 0;
  hp.a.set_tap([&](const Ipv4Packet&, TapDirection, SimTime) { ++tapped; });

  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000},
                std::vector<std::uint8_t>(Host::kMaxUdpPayload + 1, 7));
  hp.loop.run();
  EXPECT_EQ(hp.a.stats().udp_oversize, 1u);
  EXPECT_EQ(hp.a.stats().udp_datagrams_sent, 0u);
  EXPECT_EQ(hp.a.stats().ip_packets_sent, 0u);
  EXPECT_EQ(tapped, 0);
  EXPECT_TRUE(received.empty());

  // The largest legal payload still goes out, fragments and reassembles.
  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000},
                std::vector<std::uint8_t>(Host::kMaxUdpPayload, 7));
  hp.loop.run();
  EXPECT_EQ(hp.a.stats().udp_oversize, 1u);
  EXPECT_EQ(hp.a.stats().udp_datagrams_sent, 1u);
  EXPECT_EQ(received, std::vector<std::size_t>{Host::kMaxUdpPayload});
}

TEST(Host, TapSeesFragmentsBeforeReassembly) {
  HostPair hp;
  hp.b.udp_bind(7000, [](auto, auto, auto) {});
  std::vector<std::pair<TapDirection, bool>> taps;  // (direction, is_fragment)
  hp.b.set_tap([&](const Ipv4Packet& p, TapDirection dir, SimTime) {
    taps.emplace_back(dir, p.header.is_fragment());
  });

  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000}, std::vector<std::uint8_t>(3000, 1));
  hp.loop.run();

  // 3008-byte datagram -> 3 fragments, all tapped inbound, all fragments.
  ASSERT_EQ(taps.size(), 3u);
  for (const auto& [dir, frag] : taps) {
    EXPECT_EQ(dir, TapDirection::kInbound);
    EXPECT_TRUE(frag);
  }
}

TEST(Host, TapSeesOutboundTraffic) {
  HostPair hp;
  int outbound = 0;
  hp.a.set_tap([&](const Ipv4Packet&, TapDirection dir, SimTime) {
    outbound += dir == TapDirection::kOutbound;
  });
  hp.a.udp_send(1, Endpoint{hp.b.address(), 7000}, std::vector<std::uint8_t>{1});
  hp.loop.run();
  EXPECT_EQ(outbound, 1);
}

TEST(Host, IgnoresForeignDestination) {
  HostPair hp;
  int taps = 0;
  hp.b.set_tap([&](auto&, auto, auto) { ++taps; });
  const Ipv4Packet foreign = make_udp_packet(Endpoint{hp.a.address(), 1},
                                             Endpoint{Ipv4Address(99, 9, 9, 9), 2},
                                             std::vector<std::uint8_t>{1}, 1);
  hp.b.handle_packet(foreign, 0);
  hp.loop.run();
  EXPECT_EQ(taps, 0);
}

TEST(Host, RespondsToEchoRequest) {
  HostPair hp;
  int replies = 0;
  Duration rtt;
  hp.a.set_icmp_handler([&](const IcmpHeader& icmp, const Ipv4Header& ip,
                            std::span<const std::uint8_t>, SimTime when) {
    if (icmp.type == IcmpType::kEchoReply) {
      ++replies;
      EXPECT_EQ(ip.src, hp.b.address());
      EXPECT_EQ(icmp.identifier, 42);
      EXPECT_EQ(icmp.sequence, 1);
      rtt = when - SimTime::zero();
    }
  });
  hp.a.send_icmp_echo(hp.b.address(), 42, 1);
  hp.loop.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(rtt, Duration::micros(20));  // two 10 us one-way hops
}

TEST(Host, EchoRequestsDoNotReachIcmpHandler) {
  // The echo responder consumes requests internally; only errors and
  // replies surface to the handler.
  HostPair hp;
  int handler_calls = 0;
  hp.b.set_icmp_handler([&](auto&, auto&, auto, auto) { ++handler_calls; });
  hp.a.send_icmp_echo(hp.b.address(), 1, 1);
  hp.loop.run();
  EXPECT_EQ(handler_calls, 0);
}

TEST(Host, DistinctMacsPerHost) {
  EventLoop loop;
  Host h1(loop, "h1", Ipv4Address(1, 1, 1, 1));
  Host h2(loop, "h2", Ipv4Address(2, 2, 2, 2));
  EXPECT_NE(h1.mac(), h2.mac());
}

TEST(Host, CustomMtuFragmentsAccordingly) {
  EventLoop loop;
  Host small_mtu(loop, "s", Ipv4Address(1, 1, 1, 1), /*mtu=*/576);
  std::vector<std::size_t> sizes;
  small_mtu.attach_interface(
      [&](const Ipv4Packet& p) { sizes.push_back(p.total_length()); });
  small_mtu.udp_send(1, Endpoint{Ipv4Address(2, 2, 2, 2), 2},
                     std::vector<std::uint8_t>(1200, 0));
  loop.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_LE(sizes[0], 576u);
  EXPECT_LE(sizes[1], 576u);
}

}  // namespace
}  // namespace streamlab
