#include "filter/evaluator.hpp"

#include <gtest/gtest.h>

#include "net/fragmentation.hpp"

namespace streamlab::filter {
namespace {

using streamlab::CaptureTrace;
using streamlab::Endpoint;
using streamlab::Ipv4Address;
using streamlab::Ipv4Packet;
using streamlab::MacAddress;
using streamlab::SimTime;
using streamlab::make_udp_packet;
using streamlab::make_icmp_packet;
using streamlab::IcmpHeader;
using streamlab::IcmpType;

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

streamlab::DissectedPacket dissected_udp(std::size_t payload = 100,
                                         Endpoint src = kServer, Endpoint dst = kClient) {
  CaptureTrace trace;
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2),
                   make_udp_packet(src, dst, std::vector<std::uint8_t>(payload, 1), 5));
  return streamlab::dissect(trace.records()[0]);
}

bool matches(std::string_view expr, const streamlab::DissectedPacket& pkt) {
  auto f = DisplayFilter::compile(expr);
  EXPECT_TRUE(f.has_value()) << expr << ": " << (f ? "" : f.error());
  return f->matches(pkt);
}

TEST(Evaluator, PresenceTests) {
  const auto pkt = dissected_udp();
  EXPECT_TRUE(matches("udp", pkt));
  EXPECT_TRUE(matches("ip", pkt));
  EXPECT_TRUE(matches("eth", pkt));
  EXPECT_FALSE(matches("tcp", pkt));
  EXPECT_FALSE(matches("icmp", pkt));
  EXPECT_TRUE(matches("udp.dstport", pkt));   // field presence
  EXPECT_FALSE(matches("tcp.dstport", pkt));
  // Neither a field nor a layer: compiles, never matches.
  EXPECT_FALSE(matches("no.such.field", pkt));
  EXPECT_FALSE(matches("frame", pkt));
}

TEST(Evaluator, NumericComparisons) {
  const auto pkt = dissected_udp(100);  // frame.len = 142
  EXPECT_TRUE(matches("frame.len == 142", pkt));
  EXPECT_TRUE(matches("frame.len != 1514", pkt));
  EXPECT_TRUE(matches("frame.len < 1000", pkt));
  EXPECT_TRUE(matches("frame.len <= 142", pkt));
  EXPECT_TRUE(matches("frame.len > 100", pkt));
  EXPECT_TRUE(matches("frame.len >= 142", pkt));
  EXPECT_FALSE(matches("frame.len > 142", pkt));
}

TEST(Evaluator, AddressComparisons) {
  const auto pkt = dissected_udp();
  EXPECT_TRUE(matches("ip.src == 192.168.100.10", pkt));
  EXPECT_FALSE(matches("ip.src == 192.168.100.11", pkt));
  EXPECT_TRUE(matches("ip.dst == 10.0.0.2", pkt));
  // ip.addr matches either side (Wireshark semantics).
  EXPECT_TRUE(matches("ip.addr == 192.168.100.10", pkt));
  EXPECT_TRUE(matches("ip.addr == 10.0.0.2", pkt));
  EXPECT_FALSE(matches("ip.addr == 1.2.3.4", pkt));
  // MAC fields have no numeric form: they compare as 0.
  EXPECT_TRUE(matches("eth.src == 0 && eth.dst == 0", pkt));
}

TEST(Evaluator, PortAliasMatchesEitherDirection) {
  const auto pkt = dissected_udp();
  EXPECT_TRUE(matches("udp.port == 1755", pkt));
  EXPECT_TRUE(matches("udp.port == 7000", pkt));
  EXPECT_FALSE(matches("udp.port == 80", pkt));
  // Negation on a multi-valued field: !(any match).
  EXPECT_TRUE(matches("!(udp.port == 80)", pkt));
  EXPECT_FALSE(matches("!(udp.port == 7000)", pkt));
}

TEST(Evaluator, MissingFieldComparisonIsFalse) {
  const auto pkt = dissected_udp();
  EXPECT_FALSE(matches("tcp.seq == 0", pkt));
  EXPECT_FALSE(matches("tcp.seq != 0", pkt));   // absent, not "anything"
  EXPECT_TRUE(matches("!(tcp.seq == 0)", pkt));
  EXPECT_FALSE(matches("no.such.field == 0", pkt));
  EXPECT_FALSE(matches("no.such.field != 0", pkt));
}

TEST(Evaluator, LogicalCombinations) {
  const auto pkt = dissected_udp();
  EXPECT_TRUE(matches("udp && ip.src == 192.168.100.10", pkt));
  EXPECT_FALSE(matches("udp && tcp", pkt));
  EXPECT_TRUE(matches("udp || tcp", pkt));
  EXPECT_TRUE(matches("tcp || icmp || udp", pkt));
  EXPECT_TRUE(matches("!tcp", pkt));
  EXPECT_TRUE(matches("udp and not tcp", pkt));
}

TEST(Evaluator, FieldToFieldComparison) {
  const auto pkt = dissected_udp();
  EXPECT_FALSE(matches("udp.srcport == udp.dstport", pkt));
  EXPECT_TRUE(matches("udp.srcport < udp.dstport", pkt));  // 1755 < 7000
}

TEST(Evaluator, FragmentIsolationFilter) {
  // The study's Ethereal workflow: select the trailing fragments of a flow.
  const auto datagram =
      make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 77);
  CaptureTrace trace;
  for (const auto& frag : streamlab::fragment_packet(datagram, streamlab::kDefaultMtu))
    trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2), frag);
  const auto packets = streamlab::dissect_trace(trace);
  ASSERT_EQ(packets.size(), 3u);

  const auto frag_filter = DisplayFilter::compile("ip.frag_offset > 0");
  ASSERT_TRUE(frag_filter.has_value());
  EXPECT_EQ(frag_filter->select(packets).size(), 2u);

  const auto group_leaders = DisplayFilter::compile("udp && ip.src == 192.168.100.10");
  ASSERT_TRUE(group_leaders.has_value());
  EXPECT_EQ(group_leaders->select(packets).size(), 1u);

  const auto all_of_flow = DisplayFilter::compile(
      "ip.src == 192.168.100.10 && (udp.dstport == 7000 || ip.frag_offset > 0)");
  ASSERT_TRUE(all_of_flow.has_value());
  EXPECT_EQ(all_of_flow->select(packets).size(), 3u);
}

TEST(Evaluator, IcmpFilter) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kTimeExceeded;
  CaptureTrace trace;
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2),
                   make_icmp_packet(kServer.ip, kClient.ip, icmp, {}, 1));
  const auto pkt = streamlab::dissect(trace.records()[0]);
  EXPECT_TRUE(matches("icmp.type == 11", pkt));
  EXPECT_FALSE(matches("icmp.type == 0", pkt));
}

TEST(Evaluator, CompileErrorSurfaceProperly) {
  const auto f = DisplayFilter::compile("ip.src ==");
  ASSERT_FALSE(f.has_value());
  EXPECT_FALSE(f.error().empty());
}

TEST(Evaluator, FilterIsReusableAcrossPackets) {
  const auto f = DisplayFilter::compile("frame.len > 500");
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->matches(dissected_udp(100)));
  EXPECT_TRUE(f->matches(dissected_udp(1000)));
  EXPECT_FALSE(f->matches(dissected_udp(100)));
}

}  // namespace
}  // namespace streamlab::filter
