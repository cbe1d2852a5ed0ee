// The reference dissector and display-filter evaluator the field table is
// checked against.
//
// This is the original map-based design: every dissected packet builds a
// std::map of string-keyed fields plus a vector of layer names, and the
// evaluator expands and looks up field names on every comparison. It is
// slow and allocates per packet, but it is obviously correct, so a
// differential test can run both over the same frames and filters and
// compare every field, layer, summary line and match. Test-only: the
// library has a single dissector, the fixed field table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dissect/dissector.hpp"
#include "filter/ast.hpp"
#include "net/headers.hpp"
#include "pcap/capture.hpp"
#include "util/strings.hpp"

namespace streamlab::dissect_test {

/// The result of dissecting one frame, as a string-keyed field map.
class ReferencePacket {
 public:
  SimTime timestamp;
  std::size_t frame_length = 0;

  void set(std::string name, FieldValue value) { fields_[std::move(name)] = std::move(value); }
  void add_layer(std::string proto) { layers_.push_back(std::move(proto)); }

  std::optional<FieldValue> field(const std::string& name) const {
    auto it = fields_.find(name);
    if (it == fields_.end()) return std::nullopt;
    return it->second;
  }

  bool has_layer(const std::string& proto) const {
    return std::find(layers_.begin(), layers_.end(), proto) != layers_.end();
  }

  const std::map<std::string, FieldValue>& fields() const { return fields_; }
  const std::vector<std::string>& layers() const { return layers_; }

  std::string summary() const {
    std::string out = fmt_double(timestamp.to_seconds(), 6) + "s";
    auto src = field("ip.src");
    auto dst = field("ip.dst");
    if (src && dst) out += " IP " + src->display + " > " + dst->display;
    if (has_layer("udp")) {
      out += " UDP " + field("udp.srcport")->display + "->" + field("udp.dstport")->display;
    } else if (has_layer("tcp")) {
      out += " TCP " + field("tcp.srcport")->display + "->" + field("tcp.dstport")->display;
    } else if (has_layer("icmp")) {
      out += " ICMP type=" + field("icmp.type")->display;
    }
    if (auto off = field("ip.frag_offset"); off && off->number > 0)
      out += " frag@" + off->display;
    out += " len=" + std::to_string(frame_length);
    return out;
  }

 private:
  std::map<std::string, FieldValue> fields_;
  std::vector<std::string> layers_;
};

inline ReferencePacket reference_dissect(const CaptureRecord& record) {
  ReferencePacket pkt;
  pkt.timestamp = record.timestamp;
  pkt.frame_length = record.original_length;
  pkt.set("frame.len", FieldValue::of(static_cast<std::int64_t>(record.original_length)));
  pkt.set("frame.cap_len", FieldValue::of(static_cast<std::int64_t>(record.data.size())));
  pkt.set("frame.time_ns", FieldValue::of(record.timestamp.ns()));

  ByteReader r(record.data);
  auto eth = EthernetHeader::decode(r);
  if (!eth) {
    pkt.add_layer("_malformed");
    return pkt;
  }
  pkt.add_layer("eth");
  pkt.set("eth.src", FieldValue::of(0, eth->src.to_string()));
  pkt.set("eth.dst", FieldValue::of(0, eth->dst.to_string()));
  pkt.set("eth.type", FieldValue::of(eth->ethertype));
  if (eth->ethertype != kEtherTypeIpv4) return pkt;

  auto ip = Ipv4Header::decode(r);
  if (!ip) {
    pkt.add_layer("_malformed");
    return pkt;
  }
  pkt.add_layer("ip");
  pkt.set("ip.len", FieldValue::of(ip->total_length));
  pkt.set("ip.id", FieldValue::of(ip->identification));
  pkt.set("ip.flags.df", FieldValue::of(ip->dont_fragment ? 1 : 0));
  pkt.set("ip.flags.mf", FieldValue::of(ip->more_fragments ? 1 : 0));
  pkt.set("ip.frag_offset", FieldValue::of(static_cast<std::int64_t>(ip->fragment_offset_bytes())));
  pkt.set("ip.fragment", FieldValue::of(ip->is_fragment() ? 1 : 0));
  pkt.set("ip.ttl", FieldValue::of(ip->ttl));
  pkt.set("ip.proto", FieldValue::of(ip->protocol));
  pkt.set("ip.src", FieldValue::of(ip->src.value(), ip->src.to_string()));
  pkt.set("ip.dst", FieldValue::of(ip->dst.value(), ip->dst.to_string()));

  if (ip->is_trailing_fragment()) {
    // Trailing fragments carry no transport header; data bytes only.
    pkt.set("ip.payload_len", FieldValue::of(static_cast<std::int64_t>(ip->payload_length())));
    return pkt;
  }

  const std::size_t ip_payload = std::min<std::size_t>(ip->payload_length(), r.remaining());
  ByteReader tr(r.bytes(ip_payload));

  switch (ip->protocol) {
    case kIpProtoUdp: {
      auto udp = UdpHeader::decode(tr);
      if (!udp) {
        pkt.add_layer("_malformed");
        return pkt;
      }
      pkt.add_layer("udp");
      pkt.set("udp.srcport", FieldValue::of(udp->src_port));
      pkt.set("udp.dstport", FieldValue::of(udp->dst_port));
      pkt.set("udp.length", FieldValue::of(udp->length));
      pkt.set("udp.checksum", FieldValue::of(udp->checksum));
      break;
    }
    case kIpProtoTcp: {
      auto tcp = TcpHeader::decode(tr);
      if (!tcp) {
        pkt.add_layer("_malformed");
        return pkt;
      }
      pkt.add_layer("tcp");
      pkt.set("tcp.srcport", FieldValue::of(tcp->src_port));
      pkt.set("tcp.dstport", FieldValue::of(tcp->dst_port));
      pkt.set("tcp.seq", FieldValue::of(tcp->seq));
      pkt.set("tcp.ack", FieldValue::of(tcp->ack));
      pkt.set("tcp.flags.syn", FieldValue::of(tcp->flag_syn ? 1 : 0));
      pkt.set("tcp.flags.ack", FieldValue::of(tcp->flag_ack ? 1 : 0));
      pkt.set("tcp.flags.fin", FieldValue::of(tcp->flag_fin ? 1 : 0));
      pkt.set("tcp.flags.rst", FieldValue::of(tcp->flag_rst ? 1 : 0));
      pkt.set("tcp.window", FieldValue::of(tcp->window));
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = IcmpHeader::decode(tr);
      if (!icmp) {
        pkt.add_layer("_malformed");
        return pkt;
      }
      pkt.add_layer("icmp");
      pkt.set("icmp.type", FieldValue::of(static_cast<std::int64_t>(icmp->type)));
      pkt.set("icmp.code", FieldValue::of(icmp->code));
      pkt.set("icmp.ident", FieldValue::of(icmp->identifier));
      pkt.set("icmp.seq", FieldValue::of(icmp->sequence));
      break;
    }
    default:
      break;
  }
  return pkt;
}

// ---- the string evaluator ----------------------------------------------------

namespace detail {

/// `udp.port` / `tcp.port` match either direction, like Wireshark.
/// Returns the list of concrete field names an abstract name expands to.
inline std::vector<std::string> expand_field(const std::string& name) {
  if (name == "udp.port") return {"udp.srcport", "udp.dstport"};
  if (name == "tcp.port") return {"tcp.srcport", "tcp.dstport"};
  if (name == "ip.addr") return {"ip.src", "ip.dst"};
  return {name};
}

inline bool apply_compare(filter::CompareOp op, std::int64_t a, std::int64_t b) {
  using filter::CompareOp;
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return a >= b;
  }
  return false;
}

/// Resolves an operand against a packet. Field operands may expand to
/// several candidate values (udp.port); missing fields yield an empty set.
inline std::vector<std::int64_t> resolve(const filter::Operand& op,
                                         const ReferencePacket& pkt) {
  if (op.kind == filter::Operand::Kind::kLiteral) return {op.literal};
  std::vector<std::int64_t> values;
  for (const auto& name : expand_field(op.field)) {
    if (auto v = pkt.field(name)) values.push_back(v->number);
  }
  return values;
}

}  // namespace detail

/// Evaluates a parsed filter expression against a reference packet.
inline bool reference_matches(const filter::Expr& e, const ReferencePacket& pkt) {
  using filter::Expr;
  using filter::LogicOp;
  switch (e.kind) {
    case Expr::Kind::kPresence: {
      if (pkt.has_layer(e.field)) return true;
      for (const auto& name : detail::expand_field(e.field))
        if (pkt.field(name)) return true;
      return false;
    }
    case Expr::Kind::kCompare: {
      // Wireshark semantics: a comparison on a multi-valued field is true
      // when ANY combination satisfies it; false when a field is absent.
      const auto lhs = detail::resolve(e.lhs, pkt);
      const auto rhs = detail::resolve(e.rhs, pkt);
      for (const auto a : lhs)
        for (const auto b : rhs)
          if (detail::apply_compare(e.cmp, a, b)) return true;
      return false;
    }
    case Expr::Kind::kLogic:
      if (e.logic == LogicOp::kAnd)
        return reference_matches(*e.left, pkt) && reference_matches(*e.right, pkt);
      return reference_matches(*e.left, pkt) || reference_matches(*e.right, pkt);
    case Expr::Kind::kNot:
      return !reference_matches(*e.left, pkt);
  }
  return false;
}

}  // namespace streamlab::dissect_test
