// Display-filter evaluation over dissected packets.
//
// compile() parses an expression and resolves every name in it once: a
// field name to its FieldId, a protocol name to its Layer, and the
// Wireshark shorthands `udp.port`, `tcp.port` and `ip.addr` to both fields
// they stand for. A name that is neither a field nor a layer compiles and
// never matches. The result is a flat node array, so matches() reads packet
// values by id and does no string work and no allocation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dissect/dissector.hpp"
#include "filter/ast.hpp"
#include "util/expected.hpp"

namespace streamlab::filter {

/// A compiled display filter. Compile once, match many packets.
class DisplayFilter {
 public:
  /// Compiles an expression; reports lexer/parser errors with positions.
  static Expected<DisplayFilter> compile(std::string_view expression);

  bool matches(const DissectedPacket& packet) const;

  /// Applies to a whole dissected trace.
  std::vector<const DissectedPacket*> select(
      const std::vector<DissectedPacket>& packets) const;

  const std::string& expression() const { return expression_; }

 private:
  /// The fields a name stands for: one id, both ids of a shorthand such as
  /// `udp.port`, or none for a name outside the field table.
  struct FieldRef {
    std::array<FieldId, 2> ids{};
    std::uint8_t count = 0;
  };
  /// A comparison operand: a literal, or the values of the fields it names.
  struct Value {
    FieldRef fields;
    std::int64_t literal = 0;
    bool is_literal = false;
  };
  /// One node of the compiled expression; `left`/`right` index nodes_.
  struct Node {
    Expr::Kind kind = Expr::Kind::kPresence;
    LogicOp logic = LogicOp::kAnd;
    CompareOp cmp = CompareOp::kEq;
    std::optional<Layer> layer;  // kPresence: the name as a protocol layer
    FieldRef fields;             // kPresence: the name as a field
    Value lhs, rhs;              // kCompare
    std::uint32_t left = 0, right = 0;
  };

  explicit DisplayFilter(std::string expression) : expression_(std::move(expression)) {}

  static FieldRef resolve(const std::string& name);
  /// Appends `e`'s subtree to nodes_ children first; returns its index.
  std::uint32_t lower(const Expr& e);
  bool eval(std::uint32_t node, const DissectedPacket& packet) const;

  std::string expression_;
  std::vector<Node> nodes_;  // the root is the last node
};

}  // namespace streamlab::filter
