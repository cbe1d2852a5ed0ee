#include "host_speed.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>


namespace perfbench {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double run_reference_kernel() {
  const double c0 = thread_cpu_seconds();
  std::uint64_t acc = 0;
  // Allocator churn: blocks of 64..316 bytes, zero-filled, then freed.
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    const std::size_t size = 4 * (16 + i % 64);
    auto* block = static_cast<unsigned char*>(std::malloc(size));
    if (block == nullptr) std::abort();
    std::memset(block, 0, size);
    block[0] = static_cast<unsigned char>(i);
    // Let the block escape, so the compiler cannot elide the malloc/free pair.
    asm volatile("" : : "r"(block) : "memory");
    acc += block[0];
    std::free(block);
  }
  const double elapsed = thread_cpu_seconds() - c0;
  // Keep the result observable so the work cannot be optimised away.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(acc, std::memory_order_relaxed);
  return elapsed;
}

double reference_seconds() {
  const double a = run_reference_kernel();
  const double b = run_reference_kernel();
  const double c = run_reference_kernel();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));  // median of three
}

PinnedSampler::PinnedSampler() {
  samples_.reserve(1 << 14);  // ~13 minutes of samples without regrowth
  const int cpu = sched_getcpu();
  if (cpu >= 0 && sched_getaffinity(0, sizeof caller_mask_, &caller_mask_) == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  // A thread inherits its creator's affinity, so the sampler starts on
  // the caller's CPU when pinning succeeded.
  thread_ = std::thread([this] { sample_loop(); });
}

PinnedSampler::~PinnedSampler() {
  stop_.store(true);
  thread_.join();
  if (pinned_) sched_setaffinity(0, sizeof caller_mask_, &caller_mask_);
}

void PinnedSampler::sample_loop() {
  while (!stop_.load()) {
    const double seconds = run_reference_kernel();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (samples_.size() < samples_.capacity()) samples_.emplace_back(Clock::now(), seconds);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

double PinnedSampler::kernel_seconds(Clock::time_point start, Clock::time_point end) const {
  std::vector<double> inside;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [when, seconds] : samples_)
      if (when >= start && when <= end) inside.push_back(seconds);
  }
  if (inside.empty()) return reference_seconds();
  const auto mid = inside.begin() + static_cast<std::ptrdiff_t>(inside.size() / 2);
  std::nth_element(inside.begin(), mid, inside.end());
  return *mid;
}

}  // namespace perfbench
