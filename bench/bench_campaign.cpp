// Campaign-throughput and packet-path-allocation benchmarks — the proof
// artifacts for the parallel runner and the zero-copy net::Buffer path
// (results recorded in BENCH_CAMPAIGN.json; see scripts/bench.sh).
//
// Two questions, answered separately:
//  1. Trials per second at 1/2/4/8 workers for an end-to-end turbulence
//     campaign. The host's num_cpus in the benchmark context is the ceiling
//     on the achievable speedup — on a 1-CPU box the 4-worker run proves
//     correctness (identical aggregates), not throughput.
//  2. Heap traffic per delivered frame, via a counting operator new hook
//     compiled into this binary, reported for the real packet path and for
//     a reference pipeline reproducing the pre-Buffer copy-per-hop scheme.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenarios.hpp"
#include "net/buffer.hpp"
#include "net/fragmentation.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook. Replacing global operator new/delete in the final
// binary is sanctioned by [replacement.functions]; every heap allocation the
// benchmark performs — simulator internals included — passes through here.
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
};
AllocSnapshot alloc_snapshot() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace streamlab;

/// The catalog's tiny campaign: short clip, two hops, one mid-clip outage,
/// so each trial exercises faults, recovery and fragmentation without
/// dominating wall-clock.
CampaignConfig bench_campaign_config(std::size_t trials, std::size_t workers) {
  CampaignConfig config = tiny_campaign_config(trials, /*base_seed=*/7000);
  config.workers = workers;
  return config;
}

void BM_CampaignTrials(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTrials = 8;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const CampaignResult result =
        run_campaign(bench_campaign_config(kTrials, workers));
    if (result.completed != kTrials) state.SkipWithError("trial quarantined");
    frames = result.aggregate.frames_rendered;
    benchmark::DoNotOptimize(result.aggregate.packets_received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTrials);
  state.counters["trials_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTrials), benchmark::Counter::kIsRate);
  state.counters["frames_per_campaign"] = static_cast<double>(frames);
}
BENCHMARK(BM_CampaignTrials)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

/// Heap traffic of one full turbulence trial, normalised per rendered frame.
/// Single iteration blocks keep the snapshot window tight around the run.
void BM_AllocsPerFrame(benchmark::State& state) {
  const CampaignConfig config = bench_campaign_config(1, 1);
  double allocs_per_frame = 0, bytes_per_frame = 0;
  for (auto _ : state) {
    const AllocSnapshot before = alloc_snapshot();
    const CampaignResult result = run_campaign(config);
    const AllocSnapshot after = alloc_snapshot();
    const double frames =
        static_cast<double>(result.aggregate.frames_rendered ? result.aggregate.frames_rendered : 1);
    allocs_per_frame = static_cast<double>(after.calls - before.calls) / frames;
    bytes_per_frame = static_cast<double>(after.bytes - before.bytes) / frames;
    benchmark::DoNotOptimize(result.completed);
  }
  state.counters["allocs_per_frame"] = allocs_per_frame;
  state.counters["bytes_per_frame"] = bytes_per_frame;
}
BENCHMARK(BM_AllocsPerFrame)->Unit(benchmark::kMillisecond)->Iterations(1);

// ---------------------------------------------------------------------------
// The old-vs-new allocation story, isolated. A datagram is fragmented and
// relayed across kHops forwarding stages; "CopyPerHop" reproduces the
// pre-Buffer scheme (every stage duplicates the payload bytes into a fresh
// vector, exactly what Link enqueue / propagation / Router forward / Host
// delivery used to do), "BufferPerHop" is today's refcount-bump path.
constexpr int kHops = 5;
constexpr std::size_t kDatagramBytes = 9137;  // 7 fragments at the default MTU

std::vector<std::uint8_t> bench_payload() {
  Rng rng(42);
  std::vector<std::uint8_t> v(kDatagramBytes);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

const Endpoint kSrc{Ipv4Address(192, 168, 100, 10), 1755};
const Endpoint kDst{Ipv4Address(10, 0, 0, 2), 7000};

void BM_PacketRelayCopyPerHop(benchmark::State& state) {
  const auto payload = bench_payload();
  const Ipv4Packet datagram = make_udp_packet(kSrc, kDst, payload, 1);
  const auto fragments = fragment_packet(datagram, kDefaultMtu);
  std::uint64_t delivered = 0;
  const AllocSnapshot before = alloc_snapshot();
  for (auto _ : state) {
    for (const auto& frag : fragments) {
      std::vector<std::uint8_t> hop_bytes(frag.payload.begin(), frag.payload.end());
      for (int h = 1; h < kHops; ++h)
        hop_bytes = std::vector<std::uint8_t>(hop_bytes.begin(), hop_bytes.end());
      benchmark::DoNotOptimize(hop_bytes.data());
      ++delivered;
    }
  }
  const AllocSnapshot after = alloc_snapshot();
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["allocs_per_delivered_frame"] =
      static_cast<double>(after.calls - before.calls) / static_cast<double>(delivered);
  state.counters["bytes_per_delivered_frame"] =
      static_cast<double>(after.bytes - before.bytes) / static_cast<double>(delivered);
}
BENCHMARK(BM_PacketRelayCopyPerHop);

void BM_PacketRelayBufferPerHop(benchmark::State& state) {
  const auto payload = bench_payload();
  const Ipv4Packet datagram = make_udp_packet(kSrc, kDst, payload, 1);
  const auto fragments = fragment_packet(datagram, kDefaultMtu);
  std::uint64_t delivered = 0;
  const AllocSnapshot before = alloc_snapshot();
  for (auto _ : state) {
    for (const auto& frag : fragments) {
      net::Buffer hop = frag.payload;
      for (int h = 1; h < kHops; ++h) hop = net::Buffer(hop);
      benchmark::DoNotOptimize(hop.data());
      ++delivered;
    }
  }
  const AllocSnapshot after = alloc_snapshot();
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["allocs_per_delivered_frame"] =
      static_cast<double>(after.calls - before.calls) / static_cast<double>(delivered);
  state.counters["bytes_per_delivered_frame"] =
      static_cast<double>(after.bytes - before.bytes) / static_cast<double>(delivered);
}
BENCHMARK(BM_PacketRelayBufferPerHop);

/// Slab effectiveness over sustained packet construction: after warm-up,
/// every payload block should come from the per-thread free lists.
void BM_BufferSlabRecycling(benchmark::State& state) {
  const auto payload = bench_payload();
  net::Buffer::trim_slab();
  const auto stats_before = net::Buffer::slab_stats();
  for (auto _ : state) {
    const Ipv4Packet datagram = make_udp_packet(kSrc, kDst, payload, 1);
    benchmark::DoNotOptimize(fragment_packet(datagram, kDefaultMtu));
  }
  const auto stats_after = net::Buffer::slab_stats();
  const double fresh =
      static_cast<double>(stats_after.fresh_blocks - stats_before.fresh_blocks);
  const double recycled =
      static_cast<double>(stats_after.recycled_blocks - stats_before.recycled_blocks);
  state.counters["slab_recycle_ratio"] =
      recycled / (fresh + recycled > 0 ? fresh + recycled : 1);
}
BENCHMARK(BM_BufferSlabRecycling);

}  // namespace

BENCHMARK_MAIN();
