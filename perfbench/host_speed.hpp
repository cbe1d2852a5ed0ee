// Host-speed reference for steady timings on a shared host.
//
// The benchmark hosts are shared: a fixed unit of simulation work swings by
// +-30% in wall and CPU time over tens of seconds as co-tenants come and
// go, far more than any bound a regression gate can use. The swing is
// per CPU, so the benchmark measures it where the work runs: right before
// and right after each timed unit, the calling thread runs a fixed
// reference kernel (small-block malloc, zero-fill and free, the
// allocator-heavy work the simulator does, and none of the library's code;
// a few hundred bytes of working set). Of the kernels tried (this one,
// integer mixing, pointer chasing over 8 MiB) it tracked the simulator's
// swings best. The unit's time is scaled by
// kNominalKernelSeconds over the kernel's time: what the unit would take
// on a host where the kernel takes 1 ms. Slowdowns that hit the kernel and
// the simulator alike cancel out.
//
// A unit of many seconds (a 10^5-session fleet run) drifts inside itself,
// so its edges say little. For such units PinnedSampler runs the kernel
// every 50 ms on a second thread pinned to the same CPU as the caller, and
// the unit is scaled by the kernel's median over the unit.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Kernel time on the reference host the scaled figures are quoted for.
inline constexpr double kNominalKernelSeconds = 0.001;

/// One run of the reference kernel; returns its thread CPU seconds.
double run_reference_kernel();

/// Median of three kernel runs on the calling thread, in seconds.
double reference_seconds();

class PinnedSampler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Pins the calling thread to the CPU it is running on and starts the
  /// sampler thread on that CPU.
  PinnedSampler();
  /// Stops and joins the sampler and restores the caller's CPU affinity.
  ~PinnedSampler();
  PinnedSampler(const PinnedSampler&) = delete;
  PinnedSampler& operator=(const PinnedSampler&) = delete;

  /// Median kernel time of the samples taken in [start, end]; a fresh
  /// reference_seconds() when none were.
  double kernel_seconds(Clock::time_point start, Clock::time_point end) const;

 private:
  void sample_loop();

  cpu_set_t caller_mask_{};
  bool pinned_ = false;
  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started once the members it uses exist
};

}  // namespace perfbench
