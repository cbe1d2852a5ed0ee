// Differential test: the fixed-field-table dissector and the compiled
// display filter against the original map-based dissector and string
// evaluator (reference_dissector.hpp). Every frame is dissected by both;
// every field name, layer, summary line and filter verdict must agree.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../filter/expr_gen.hpp"
#include "core/experiment.hpp"
#include "core/study.hpp"
#include "filter/evaluator.hpp"
#include "filter/parser.hpp"
#include "fuzz_frames.hpp"
#include "media/catalog.hpp"
#include "net/fragmentation.hpp"
#include "players/protocol.hpp"
#include "reference_dissector.hpp"

namespace streamlab::dissect_test {
namespace {

const Endpoint kServer{Ipv4Address(192, 168, 100, 10), 80};
const Endpoint kClient{Ipv4Address(10, 0, 0, 2), 40000};

/// Names that are not in the field table, including a filter shorthand and
/// a layer name: the table must answer "absent" exactly as the map did.
const char* const kUnknownNames[] = {"no.such.field", "udp.port", "frame", "", "udp"};
/// The six layer names in Layer order, then one the dissector never emits.
const char* const kLayerNames[] = {"eth", "ip", "udp", "tcp", "icmp", "_malformed", "arp"};

/// Inbound capture of a set1 high-rate WM/RM pair at the given snaplen.
std::vector<CaptureRecord> pair_capture(std::uint32_t snaplen) {
  ExperimentConfig config;
  config.path = path_for_data_set(1, 2002);
  config.seed = 5;
  config.keep_capture = true;
  config.snaplen = snaplen;
  const auto result = run_clip_pair(table1_catalog().front(), RateTier::kHigh, config);
  return result.real.capture ? result.real.capture->records() : std::vector<CaptureRecord>{};
}

CaptureRecord record_of(const Ipv4Packet& pkt, double t) {
  CaptureTrace trace;
  trace.add_packet(SimTime::from_seconds(t), MacAddress::for_nic(3), MacAddress::for_nic(4),
                   pkt);
  return trace.records()[0];
}

/// TCP segments (flag mixes, extreme seq/ack/window, a fragmented one) and
/// ICMP messages of every type the simulator sends.
std::vector<CaptureRecord> tcp_and_icmp_frames() {
  std::vector<CaptureRecord> out;
  double t = 0.5;
  for (int flags = 0; flags < 16; ++flags) {
    TcpHeader tcp;
    tcp.src_port = kServer.port;
    tcp.dst_port = kClient.port;
    tcp.seq = flags % 2 ? 0xFFFFFFFFu : static_cast<std::uint32_t>(flags * 1000);
    tcp.ack = flags % 3 ? 0x80000000u : 0;
    tcp.flag_syn = (flags & 1) != 0;
    tcp.flag_ack = (flags & 2) != 0;
    tcp.flag_fin = (flags & 4) != 0;
    tcp.flag_rst = (flags & 8) != 0;
    tcp.window = static_cast<std::uint16_t>(flags * 4096);
    const auto pkt = make_tcp_packet(flags % 2 ? kServer : kClient, flags % 2 ? kClient : kServer,
                                     tcp, std::vector<std::uint8_t>(flags * 10, 7),
                                     static_cast<std::uint16_t>(flags));
    out.push_back(record_of(pkt, t += 0.01));
  }
  TcpHeader big;
  big.src_port = kServer.port;
  big.dst_port = kClient.port;
  const auto jumbo = make_tcp_packet(kServer, kClient, big, std::vector<std::uint8_t>(4000, 1), 77);
  for (const auto& frag : fragment_packet(jumbo, kDefaultMtu)) out.push_back(record_of(frag, t += 0.01));

  const IcmpType types[] = {IcmpType::kEchoRequest, IcmpType::kEchoReply,
                            IcmpType::kDestinationUnreachable, IcmpType::kTimeExceeded};
  std::uint16_t seq = 0;
  for (const IcmpType type : types) {
    IcmpHeader icmp;
    icmp.type = type;
    icmp.code = static_cast<std::uint8_t>(seq % 4);
    icmp.identifier = static_cast<std::uint16_t>(0xBEEF + seq);
    icmp.sequence = seq;
    const auto pkt = make_icmp_packet(kServer.ip, kClient.ip, icmp,
                                      std::vector<std::uint8_t>(28, 3), ++seq, 1);
    out.push_back(record_of(pkt, t += 0.01));
  }
  return out;
}

void expect_same_packet(const ReferencePacket& ref, const DissectedPacket& got,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.timestamp, ref.timestamp);
  ASSERT_EQ(got.frame_length, ref.frame_length);
  std::size_t present = 0;
  const auto check = [&](const std::string& name) {
    const auto want = ref.field(name);
    const auto have = got.field(name);
    ASSERT_EQ(have.has_value(), want.has_value()) << "field '" << name << "'";
    if (!want) return;
    ++present;
    EXPECT_EQ(have->number, want->number) << "field '" << name << "'";
    EXPECT_EQ(have->display, want->display) << "field '" << name << "'";
  };
  for (std::size_t i = 0; i < kFieldCount; ++i)
    check(std::string(field_name(static_cast<FieldId>(i))));
  // The table covers every field the reference emitted.
  EXPECT_EQ(present, ref.fields().size());
  for (const char* name : kUnknownNames) {
    EXPECT_FALSE(got.field(name).has_value()) << "field '" << name << "'";
    EXPECT_FALSE(ref.field(name).has_value()) << "field '" << name << "'";
  }
  for (const char* name : kLayerNames)
    EXPECT_EQ(got.has_layer(name), ref.has_layer(name)) << "layer '" << name << "'";
  EXPECT_EQ(got.summary(), ref.summary());
}

/// One frame set dissected both ways.
struct Corpus {
  std::vector<CaptureRecord> records;
  std::vector<ReferencePacket> ref;
  std::vector<DissectedPacket> got;

  void add(const std::vector<CaptureRecord>& frames) {
    for (const auto& rec : frames) {
      records.push_back(rec);
      ref.push_back(reference_dissect(rec));
      got.push_back(dissect(rec));
    }
  }
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus c;
    c.add(pair_capture(96));
    c.add(pair_capture(65535));
    c.add(tcp_and_icmp_frames());
    c.add(random_byte_frames());
    c.add(bit_flipped_frames());
    c.add(truncated_frames());
    return c;
  }();
  return c;
}

/// The capture_filter example's tour, which perfbench's capture path also
/// runs, then names the tour does not reach: shorthands, MAC fields,
/// field-vs-field comparisons, layers, and names outside the table.
std::vector<std::string> tour_expressions() {
  return {"udp",
          "ip.frag_offset > 0",
          "ip.flags.mf == 1 && ip.frag_offset == 0",
          "frame.len == 1514",
          "frame.len < 600 && udp",
          "udp.port == " + std::to_string(kMediaServerPort),
          "!(ip.fragment == 1)",
          "tcp.port == 80",
          "ip.addr == 10.0.0.2",
          "ip.addr != 192.168.100.10",
          "udp.port > 7000 || tcp.port >= 40000",
          "udp.port == udp.port",
          "ip.src < ip.dst",
          "eth.src == 0",
          "eth.dst != 0",
          "eth.type == 2048",
          "eth && !ip",
          "_malformed",
          "icmp && icmp.type == 11",
          "tcp.flags.syn == 1 && tcp.flags.ack == 0",
          "tcp.seq >= 4294967295",
          "ip.payload_len > 0",
          "udp.port",
          "tcp.port",
          "ip.addr",
          "no.such.field",
          "frame",
          "!frame",
          "no.such.field == no.such.field",
          "!(no.such.field > 0)",
          "frame.time_ns > 1000000000"};
}

void expect_same_matches(const std::string& expr, const std::vector<std::size_t>& which) {
  const auto compiled = filter::DisplayFilter::compile(expr);
  ASSERT_TRUE(compiled.has_value()) << expr;
  const auto ast = filter::parse(expr);
  ASSERT_TRUE(ast.has_value()) << expr;
  const Corpus& c = corpus();
  for (const std::size_t i : which) {
    ASSERT_EQ(compiled->matches(c.got[i]), reference_matches(**ast, c.ref[i]))
        << "\"" << expr << "\" on record " << i << ": " << c.ref[i].summary();
  }
}

TEST(DissectDifferential, FieldsLayersAndSummaryMatchReference) {
  const Corpus& c = corpus();
  ASSERT_GT(c.records.size(), 10000u);
  for (std::size_t i = 0; i < c.records.size(); ++i) {
    expect_same_packet(c.ref[i], c.got[i], "record " + std::to_string(i));
    if (HasFatalFailure() || HasFailure()) return;
  }
}

TEST(DissectDifferential, CorpusCoversEveryFieldAndLayer) {
  // Guards the corpus itself: each table name and layer is present in some
  // record, so the field comparison above exercises all of them.
  const Corpus& c = corpus();
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    const auto id = static_cast<FieldId>(f);
    bool seen = false;
    for (const auto& p : c.got) seen = seen || p.has(id);
    EXPECT_TRUE(seen) << field_name(id);
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    bool seen = false;
    for (const auto& p : c.got) seen = seen || p.has_layer(layer);
    EXPECT_TRUE(seen) << kLayerNames[l];
  }
}

TEST(DissectDifferential, TourFiltersMatchReferenceOnEveryRecord) {
  std::vector<std::size_t> all(corpus().records.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const std::string& expr : tour_expressions()) {
    expect_same_matches(expr, all);
    if (HasFatalFailure()) return;
  }
}

TEST(DissectDifferential, GeneratedFiltersMatchReference) {
  // 500 random expressions over every 16th record of the corpus. The
  // reference evaluator allocates on every comparison, so the whole corpus
  // per expression would dominate the suite's time under sanitizers.
  const Corpus& c = corpus();
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < c.records.size(); i += 16) sample.push_back(i);
  Rng rng(77);
  filter_test::ExprGen gen(rng);
  for (int i = 0; i < 500; ++i) {
    expect_same_matches(gen.expr(), sample);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace streamlab::dissect_test
