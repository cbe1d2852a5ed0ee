// Property/fuzz tests for the filter language: random well-formed
// expressions survive the parse -> print -> parse fixpoint; arbitrary byte
// soup never crashes the pipeline.
#include <gtest/gtest.h>

#include "expr_gen.hpp"
#include "filter/evaluator.hpp"
#include "filter/parser.hpp"
#include "util/rng.hpp"

namespace streamlab::filter {
namespace {

using filter_test::ExprGen;

TEST(FilterFuzz, ParsePrintParseFixpoint) {
  Rng rng(2024);
  ExprGen gen(rng);
  for (int i = 0; i < 500; ++i) {
    const std::string source = gen.expr();
    const auto first = parse(source);
    ASSERT_TRUE(first.has_value()) << source << ": " << first.error();
    const std::string printed = (*first)->to_string();
    const auto second = parse(printed);
    ASSERT_TRUE(second.has_value()) << printed;
    EXPECT_EQ((*second)->to_string(), printed) << source;
  }
}

TEST(FilterFuzz, GeneratedFiltersCompileAndEvaluate) {
  Rng rng(77);
  ExprGen gen(rng);
  // A minimal dissected packet to evaluate against.
  DissectedPacket pkt;
  pkt.add_layer("eth");
  pkt.add_layer("ip");
  pkt.add_layer("udp");
  pkt.set("ip.src", FieldValue::of(0x0A000002, "10.0.0.2"));
  pkt.set("ip.frag_offset", FieldValue::of(0));
  pkt.set("udp.srcport", FieldValue::of(7070));
  pkt.set("frame.len", FieldValue::of(542));

  for (int i = 0; i < 500; ++i) {
    const auto f = DisplayFilter::compile(gen.expr());
    ASSERT_TRUE(f.has_value());
    (void)f->matches(pkt);  // must not crash, result is arbitrary
  }
}

TEST(FilterFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const auto len = rng.uniform_int(0, 60);
    for (int c = 0; c < len; ++c)
      soup.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    (void)parse(soup);  // either Expected value or error; never UB
  }
}

TEST(FilterFuzz, DeeplyNestedParensParse) {
  std::string deep = "udp";
  for (int i = 0; i < 200; ++i) deep = "(" + deep + ")";
  const auto e = parse(deep);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ((*e)->to_string(), "udp");
}

}  // namespace
}  // namespace streamlab::filter
