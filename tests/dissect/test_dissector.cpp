#include "dissect/dissector.hpp"

#include <gtest/gtest.h>

#include "net/fragmentation.hpp"

namespace streamlab {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 7000};

CaptureRecord record_of(const Ipv4Packet& pkt, double t = 1.0) {
  CaptureTrace trace;
  trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(1),
                   MacAddress::for_nic(2), pkt);
  return trace.records()[0];
}

TEST(Dissector, UdpFieldTree) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(100, 1), 42);
  const auto d = dissect(record_of(pkt));

  EXPECT_TRUE(d.has_layer("eth"));
  EXPECT_TRUE(d.has_layer("ip"));
  EXPECT_TRUE(d.has_layer("udp"));
  EXPECT_FALSE(d.has_layer("tcp"));
  EXPECT_FALSE(d.has_layer("_malformed"));

  EXPECT_EQ(d.field("frame.len")->number, 14 + 20 + 8 + 100);
  EXPECT_EQ(d.field("ip.id")->number, 42);
  EXPECT_EQ(d.field("ip.proto")->number, 17);
  EXPECT_EQ(d.field("ip.src")->display, "192.168.100.10");
  EXPECT_EQ(d.field("ip.dst")->display, "10.0.0.2");
  EXPECT_EQ(d.field("ip.fragment")->number, 0);
  EXPECT_EQ(d.field("udp.srcport")->number, 1755);
  EXPECT_EQ(d.field("udp.dstport")->number, 7000);
  EXPECT_EQ(d.field("udp.length")->number, 108);
  EXPECT_FALSE(d.field("no.such.field").has_value());
  EXPECT_EQ(d.timestamp, SimTime::from_seconds(1.0));
}

TEST(Dissector, FragmentFields) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(3000, 1), 9);
  const auto frags = fragment_packet(pkt, kDefaultMtu);
  ASSERT_EQ(frags.size(), 3u);

  const auto first = dissect(record_of(frags[0]));
  EXPECT_TRUE(first.has_layer("udp"));  // leading fragment carries UDP header
  EXPECT_EQ(first.field("ip.flags.mf")->number, 1);
  EXPECT_EQ(first.field("ip.frag_offset")->number, 0);
  EXPECT_EQ(first.field("ip.fragment")->number, 1);

  const auto mid = dissect(record_of(frags[1]));
  EXPECT_FALSE(mid.has_layer("udp"));  // no transport header
  EXPECT_EQ(mid.field("ip.flags.mf")->number, 1);
  EXPECT_EQ(mid.field("ip.frag_offset")->number, 1480);

  const auto last = dissect(record_of(frags[2]));
  EXPECT_EQ(last.field("ip.flags.mf")->number, 0);
  EXPECT_EQ(last.field("ip.frag_offset")->number, 2960);
  EXPECT_EQ(last.field("ip.fragment")->number, 1);
}

TEST(Dissector, TcpFieldTree) {
  TcpHeader tcp;
  tcp.seq = 5;
  tcp.flag_syn = true;
  const auto pkt = make_tcp_packet(kServer, kClient, tcp, {}, 3);
  const auto d = dissect(record_of(pkt));
  EXPECT_TRUE(d.has_layer("tcp"));
  EXPECT_EQ(d.field("tcp.seq")->number, 5);
  EXPECT_EQ(d.field("tcp.flags.syn")->number, 1);
  EXPECT_EQ(d.field("tcp.flags.fin")->number, 0);
  EXPECT_EQ(d.field("ip.flags.df")->number, 1);
}

TEST(Dissector, IcmpFieldTree) {
  IcmpHeader icmp;
  icmp.type = IcmpType::kEchoReply;
  icmp.identifier = 7;
  icmp.sequence = 2;
  const auto pkt = make_icmp_packet(kServer.ip, kClient.ip, icmp, {}, 4);
  const auto d = dissect(record_of(pkt));
  EXPECT_TRUE(d.has_layer("icmp"));
  EXPECT_EQ(d.field("icmp.type")->number, 0);
  EXPECT_EQ(d.field("icmp.ident")->number, 7);
  EXPECT_EQ(d.field("icmp.seq")->number, 2);
}

TEST(Dissector, MalformedFrameMarked) {
  CaptureRecord rec;
  rec.timestamp = SimTime::zero();
  rec.original_length = 5;
  rec.data = {1, 2, 3, 4, 5};
  const auto d = dissect(rec);
  EXPECT_TRUE(d.has_layer("_malformed"));
  EXPECT_EQ(d.field("frame.len")->number, 5);
}

TEST(Dissector, TruncatedByShortSnaplenStillYieldsHeaders) {
  // With a 96-byte snaplen the Ethernet/IP/UDP headers survive; only the
  // payload is cut. The dissector must still produce the full field tree.
  CaptureTrace trace(96);
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(800, 1), 6);
  trace.add_packet(SimTime::zero(), MacAddress::for_nic(1), MacAddress::for_nic(2), pkt);
  const auto d = dissect(trace.records()[0]);
  EXPECT_TRUE(d.has_layer("udp"));
  EXPECT_EQ(d.field("frame.len")->number, 14 + 20 + 8 + 800);
  EXPECT_EQ(d.field("frame.cap_len")->number, 96);
}

TEST(Dissector, SummaryLine) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1), 1);
  const auto d = dissect(record_of(pkt, 12.5));
  const std::string s = d.summary();
  EXPECT_NE(s.find("192.168.100.10"), std::string::npos);
  EXPECT_NE(s.find("UDP"), std::string::npos);
  EXPECT_NE(s.find("1755"), std::string::npos);
}

TEST(Dissector, DissectTraceBulk) {
  CaptureTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.add_packet(SimTime::from_seconds(i), MacAddress::for_nic(1),
                     MacAddress::for_nic(2),
                     make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1),
                                     static_cast<std::uint16_t>(i)));
  }
  const auto all = dissect_trace(trace);
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(all[static_cast<std::size_t>(i)].field("ip.id")->number, i);
}

TEST(Dissector, FieldAndLayerTablesRoundTrip) {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const auto id = static_cast<FieldId>(i);
    EXPECT_EQ(find_field(field_name(id)), id) << field_name(id);
  }
  const char* const layers[] = {"eth", "ip", "udp", "tcp", "icmp", "_malformed"};
  static_assert(std::size(layers) == kLayerCount);
  for (std::size_t i = 0; i < kLayerCount; ++i)
    EXPECT_EQ(find_layer(layers[i]), static_cast<Layer>(i)) << layers[i];
  EXPECT_FALSE(find_field("udp.port").has_value());  // a filter shorthand, not a field
  EXPECT_FALSE(find_field("").has_value());
  EXPECT_FALSE(find_layer("arp").has_value());
}

TEST(Dissector, NameBasedSettersRejectNamesOutsideTable) {
  DissectedPacket pkt;
  EXPECT_FALSE(pkt.set("no.such.field", FieldValue::of(1)));
  EXPECT_FALSE(pkt.set("udp.port", FieldValue::of(1755)));
  EXPECT_FALSE(pkt.add_layer("arp"));
  EXPECT_FALSE(pkt.field("no.such.field").has_value());
  EXPECT_FALSE(pkt.has_layer("arp"));

  EXPECT_TRUE(pkt.set("udp.srcport", FieldValue::of(7070)));
  EXPECT_TRUE(pkt.add_layer("udp"));
  EXPECT_EQ(pkt.field("udp.srcport")->display, "7070");
  EXPECT_TRUE(pkt.has_layer("udp"));
  EXPECT_TRUE(pkt.set("ip.src", FieldValue::of(0x0A000002, "10.0.0.2")));
  EXPECT_EQ(pkt.field("ip.src")->display, "10.0.0.2");

  // A MAC field takes its address from the display text; its number stays 0.
  EXPECT_TRUE(pkt.set("eth.src", FieldValue::of(0, "02:00:00:00:00:01")));
  EXPECT_EQ(pkt.field("eth.src")->display, "02:00:00:00:00:01");
  EXPECT_EQ(pkt.field("eth.src")->number, 0);
  EXPECT_FALSE(pkt.set("eth.dst", FieldValue::of(0, "not-a-mac")));
  EXPECT_FALSE(pkt.field("eth.dst").has_value());
}

TEST(Dissector, MacFieldsKeepNumberZero) {
  const auto pkt = make_udp_packet(kServer, kClient, std::vector<std::uint8_t>(10, 1), 1);
  const auto d = dissect(record_of(pkt));
  EXPECT_EQ(d.field("eth.src")->number, 0);
  EXPECT_EQ(d.field("eth.src")->display, MacAddress::for_nic(1).to_string());
  EXPECT_EQ(d.field("eth.dst")->display, MacAddress::for_nic(2).to_string());
  EXPECT_EQ(d.number(FieldId::kEthDst), 0);
}

}  // namespace
}  // namespace streamlab
