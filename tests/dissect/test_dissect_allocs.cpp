// The dissector and a compiled display filter allocate nothing per packet.
// Every heap allocation in this test binary bumps one relaxed counter
// ([replacement.functions], as in bench_micro), and the tests read it
// around dissect() and matches().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dissect/dissector.hpp"
#include "filter/evaluator.hpp"
#include "net/fragmentation.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::uint64_t alloc_calls() { return g_alloc_calls.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamlab {
namespace {

/// A UDP datagram fragmented on the wire: leading fragment with the UDP
/// header, then trailing fragments.
CaptureTrace fragmented_udp_trace() {
  CaptureTrace trace;
  const auto pkt = make_udp_packet(Endpoint{Ipv4Address(192, 168, 100, 10), 1755},
                                   Endpoint{Ipv4Address(10, 0, 0, 2), 7000},
                                   std::vector<std::uint8_t>(3000, 1), 9);
  double t = 1.0;
  for (const auto& frag : fragment_packet(pkt, kDefaultMtu))
    trace.add_packet(SimTime::from_seconds(t += 0.001), MacAddress::for_nic(1),
                     MacAddress::for_nic(2), frag);
  return trace;
}

TEST(DissectAllocations, DissectAllocatesNothing) {
  const CaptureTrace trace = fragmented_udp_trace();
  std::size_t udp = 0;
  const std::uint64_t before = alloc_calls();
  for (const auto& rec : trace.records()) {
    const DissectedPacket pkt = dissect(rec);
    udp += pkt.has_layer(Layer::kUdp) ? 1 : 0;
  }
  EXPECT_EQ(alloc_calls() - before, 0u);
  EXPECT_EQ(udp, 1u);
}

TEST(DissectAllocations, CompiledFilterMatchesWithoutAllocating) {
  const auto packets = dissect_trace(fragmented_udp_trace());
  const char* const exprs[] = {"udp", "ip.frag_offset > 0", "udp.port == 1755",
                               "ip.addr == 10.0.0.2 && !(ip.frag_offset == 0)",
                               "no.such.field || frame.len >= 1514"};
  for (const char* expr : exprs) {
    const auto f = filter::DisplayFilter::compile(expr);
    ASSERT_TRUE(f.has_value()) << expr;
    std::size_t matched = 0;
    const std::uint64_t before = alloc_calls();
    for (const auto& p : packets) matched += f->matches(p) ? 1 : 0;
    EXPECT_EQ(alloc_calls() - before, 0u) << expr;
    EXPECT_GT(matched, 0u) << expr;
  }
}

}  // namespace
}  // namespace streamlab
