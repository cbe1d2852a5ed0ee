// Metric math shared by every workload: medians, the tail-percentile rule,
// ratios that keep their base, host-scaled unit times and
// span self time. No clocks or I/O here; unit-tested by test_metrics.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the middle two for even counts); 0 when
/// empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it. q in (0, 1]; 0 when empty.
double percentile(std::vector<double> samples, double q);

struct TailPercentile {
  double q = 0.0;      ///< 0.5, 0.9, 0.99 or 0.999
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
/// it, i.e. n - ceil(q·n) >= 10. nullopt below 20 samples, where not even
/// the median has ten samples above it.
std::optional<TailPercentile> tail_percentile(const std::vector<double>& samples);

/// "p90", "p99", ... for a TailPercentile::q.
std::string percentile_label(double q);

/// A ratio reported together with its base, so 0/0 reads as "no base"
/// rather than as a measured zero.
struct Ratio {
  double numerator = 0.0;
  double base = 0.0;
  double value() const { return base == 0.0 ? 0.0 : numerator / base; }
};

/// Wall and CPU time of each repeated unit of work, scaled to the
/// reference host (see host_speed.hpp). A rate is one repetition's work
/// over the sum, across its units, of each unit's median scaled time.
class UnitTimes {
 public:
  /// Records one run of `unit`; `kernel_s` is the reference kernel's time
  /// around it.
  void add(const std::string& unit, double wall_s, double cpu_s, double kernel_s);
  /// Sums over the units whose name starts with `prefix` of their median
  /// scaled wall / CPU seconds.
  double wall(std::string_view prefix = "") const;
  double cpu(std::string_view prefix = "") const;
  /// Like wall(), unscaled: the time as measured on this host.
  double raw_wall(std::string_view prefix = "") const;
  /// Median reference-kernel time over every unit recorded.
  double median_kernel_seconds() const;

 private:
  struct Samples {
    std::vector<double> wall_s, cpu_s, raw_wall_s, kernel_s;
  };
  double sum(std::string_view prefix, std::vector<double> Samples::*field) const;

  std::vector<std::pair<std::string, Samples>> units_;
};

/// One closed span of the benchmark's own trace.
struct SpanTiming {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< allocations made while the span was open
};

/// Self time of each span (same order as the input): its duration minus
/// the part of its interval covered by its direct children.
std::vector<std::int64_t> self_times(const std::vector<SpanTiming>& spans);

/// Self allocations of each span: its allocations minus its children's.
std::vector<std::uint64_t> self_allocs(const std::vector<SpanTiming>& spans);

}  // namespace perfbench
