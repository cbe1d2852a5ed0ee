#include "filter/evaluator.hpp"

#include "filter/parser.hpp"

namespace streamlab::filter {
namespace {

bool apply_compare(CompareOp op, std::int64_t a, std::int64_t b) {
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

}  // namespace

DisplayFilter::FieldRef DisplayFilter::resolve(const std::string& name) {
  // `udp.port` / `tcp.port` / `ip.addr` match either direction, like Wireshark.
  if (name == "udp.port") return {{FieldId::kUdpSrcPort, FieldId::kUdpDstPort}, 2};
  if (name == "tcp.port") return {{FieldId::kTcpSrcPort, FieldId::kTcpDstPort}, 2};
  if (name == "ip.addr") return {{FieldId::kIpSrc, FieldId::kIpDst}, 2};
  if (const auto id = find_field(name)) return {{*id}, 1};
  return {};
}

std::uint32_t DisplayFilter::lower(const Expr& e) {
  Node node;
  node.kind = e.kind;
  switch (e.kind) {
    case Expr::Kind::kPresence:
      node.layer = find_layer(e.field);
      node.fields = resolve(e.field);
      break;
    case Expr::Kind::kCompare: {
      node.cmp = e.cmp;
      const auto value = [](const Operand& op) {
        Value v;
        v.is_literal = op.kind == Operand::Kind::kLiteral;
        if (v.is_literal) {
          v.literal = op.literal;
        } else {
          v.fields = resolve(op.field);
        }
        return v;
      };
      node.lhs = value(e.lhs);
      node.rhs = value(e.rhs);
      break;
    }
    case Expr::Kind::kLogic:
      node.logic = e.logic;
      node.left = lower(*e.left);
      node.right = lower(*e.right);
      break;
    case Expr::Kind::kNot:
      node.left = lower(*e.left);
      break;
  }
  nodes_.push_back(node);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

bool DisplayFilter::eval(std::uint32_t index, const DissectedPacket& pkt) const {
  const Node& e = nodes_[index];
  switch (e.kind) {
    case Expr::Kind::kPresence: {
      if (e.layer && pkt.has_layer(*e.layer)) return true;
      for (std::uint8_t i = 0; i < e.fields.count; ++i)
        if (pkt.has(e.fields.ids[i])) return true;
      return false;
    }
    case Expr::Kind::kCompare: {
      // Wireshark semantics: a comparison on a multi-valued field is true
      // when ANY combination satisfies it; false when a field is absent.
      const auto values = [&pkt](const Value& v, std::array<std::int64_t, 2>& out) {
        if (v.is_literal) {
          out[0] = v.literal;
          return std::size_t{1};
        }
        std::size_t n = 0;
        for (std::uint8_t i = 0; i < v.fields.count; ++i)
          if (const auto x = pkt.number(v.fields.ids[i])) out[n++] = *x;
        return n;
      };
      std::array<std::int64_t, 2> lhs{}, rhs{};
      const std::size_t nl = values(e.lhs, lhs);
      const std::size_t nr = values(e.rhs, rhs);
      for (std::size_t a = 0; a < nl; ++a)
        for (std::size_t b = 0; b < nr; ++b)
          if (apply_compare(e.cmp, lhs[a], rhs[b])) return true;
      return false;
    }
    case Expr::Kind::kLogic:
      if (e.logic == LogicOp::kAnd) return eval(e.left, pkt) && eval(e.right, pkt);
      return eval(e.left, pkt) || eval(e.right, pkt);
    case Expr::Kind::kNot:
      return !eval(e.left, pkt);
  }
  return false;
}

Expected<DisplayFilter> DisplayFilter::compile(std::string_view expression) {
  auto ast = parse(expression);
  if (!ast) return Unexpected(ast.error());
  DisplayFilter filter{std::string(expression)};
  filter.lower(**ast);
  return filter;
}

bool DisplayFilter::matches(const DissectedPacket& packet) const {
  return !nodes_.empty() && eval(static_cast<std::uint32_t>(nodes_.size() - 1), packet);
}

std::vector<const DissectedPacket*> DisplayFilter::select(
    const std::vector<DissectedPacket>& packets) const {
  std::vector<const DissectedPacket*> out;
  for (const auto& p : packets)
    if (matches(p)) out.push_back(&p);
  return out;
}

}  // namespace streamlab::filter
