// The packet path allocates nothing per packet once a session is warm.
// Every heap allocation in this test binary bumps one relaxed counter
// ([replacement.functions], as in tests/dissect/test_dissect_allocs.cpp),
// and the test reads it around windows of steady-state streaming: server
// send, eight router hops, client-side fragment reassembly and on_data.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "media/catalog.hpp"
#include "player_test_util.hpp"

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

/// Lands one no-op event in every bucket of the timing wheel's lower six
/// levels (sim/timing_wheel.hpp: 1024-ns ticks, 64 buckets a level, each
/// level 64x wider). A bucket is sized the first time anything lands in
/// it — a one-off cost of the event core, which a timer can first pay
/// minutes into a run — so priming keeps the windows below about the
/// packet path.
void prime_timing_wheel(EventLoop& loop) {
  for (int level = 0; level < 6; ++level) {
    const std::int64_t width = std::int64_t{1} << (10 + 6 * level);
    for (std::int64_t i = 1; i <= 64; ++i)
      loop.post_at(loop.now() + Duration::nanos(width * i), [] {});
  }
}

/// Capacities of the session's append-only logs (one entry per packet,
/// frame or stall). They double as they fill — O(log n) allocations per
/// session, not per packet — so a window in which one grew is skipped.
struct LogCapacities {
  std::size_t packets, frames, stalls, sends;
  bool operator==(const LogCapacities&) const = default;
};

LogCapacities log_capacities(const testutil::Session& s) {
  return {s.client->packets().capacity(), s.client->frame_events().capacity(),
          s.client->stall_intervals().capacity(), s.server->send_log().capacity()};
}

TEST(PacketPathAllocations, SteadyStateMediaSessionOverEightHopsAllocatesNothing) {
  const ClipInfo clip = table1_catalog().front().pair(RateTier::kHigh)->second;
  ASSERT_EQ(clip.id(), "set1/M-h");
  PathConfig path = testutil::fast_path();
  path.hop_count = 8;
  testutil::Session s(clip, path);
  prime_timing_wheel(s.net.loop());
  s.client->start();
  s.net.loop().run_until(SimTime::from_seconds(20.0));  // warm-up

  int checked = 0;
  for (int second = 20; second < 60; ++second) {
    const LogCapacities logs = log_capacities(s);
    const std::size_t packets = s.client->packets().size();
    const std::uint64_t fragments = s.net.client().reassembly_stats().fragments_received;
    const std::uint64_t before = alloc_calls();
    s.net.loop().run_until(SimTime::from_seconds(second + 1.0));
    const std::uint64_t allocs = alloc_calls() - before;
    // Every window streams: datagrams arrive as IP fragments and reach the
    // player.
    ASSERT_GT(s.client->packets().size(), packets) << "second " << second;
    ASSERT_GT(s.net.client().reassembly_stats().fragments_received, fragments)
        << "second " << second;
    if (log_capacities(s) != logs) continue;
    ++checked;
    EXPECT_EQ(allocs, 0u) << "second " << second;
  }
  EXPECT_GE(checked, 30);
}

}  // namespace
}  // namespace streamlab
