// Random well-formed display-filter expressions over the dissector's
// field names, shared by the filter fuzz tests and the differential test
// against the reference evaluator.
#pragma once

#include <iterator>
#include <string>

#include "util/rng.hpp"

namespace streamlab::filter_test {

/// Generates a random well-formed filter expression.
class ExprGen {
 public:
  explicit ExprGen(Rng& rng) : rng_(rng) {}

  std::string expr(int depth = 0) {
    const double pick = rng_.uniform();
    if (depth > 3 || pick < 0.35) return comparison();
    if (pick < 0.50) return field();
    if (pick < 0.65) return "!" + wrap(expr(depth + 1));
    const std::string op = rng_.chance(0.5) ? " && " : " || ";
    return wrap(expr(depth + 1)) + op + wrap(expr(depth + 1));
  }

 private:
  std::string wrap(const std::string& e) { return "(" + e + ")"; }

  std::string field() {
    static const char* kFields[] = {"ip.src",       "ip.dst",      "ip.frag_offset",
                                    "ip.ttl",       "udp.srcport", "udp.dstport",
                                    "frame.len",    "udp",         "tcp.seq",
                                    "icmp.type",    "ip.fragment", "eth"};
    return kFields[rng_.uniform_int(0, std::size(kFields) - 1)];
  }

  std::string comparison() {
    static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    const std::string op = kOps[rng_.uniform_int(0, 5)];
    std::string rhs;
    if (rng_.chance(0.2)) {
      rhs = std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255));
    } else if (rng_.chance(0.2)) {
      rhs = field();
    } else {
      rhs = std::to_string(rng_.uniform_int(0, 65535));
    }
    return field() + " " + op + " " + rhs;
  }

  Rng& rng_;
};

}  // namespace streamlab::filter_test
