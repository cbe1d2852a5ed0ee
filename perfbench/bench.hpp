// Shared vocabulary of the three workloads: options, the report each one
// fills, host measurements (wall, CPU, RSS, allocations), digests, and the
// layer probes every traced run performs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"
#include "pcap/capture.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string exe_path;  ///< this binary, re-executed as a campaign worker
  std::string out_dir;   ///< scratch directory for manifests and span files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< base of a ratio, sample count, or "n/a" reason
};

/// What one workload run hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Digest over the simulated results only (never over host timings): a
  /// speed-only change must leave it unchanged.
  std::uint64_t result_digest = 0;
  std::vector<Metric> end_to_end;  ///< untraced run
  std::vector<Metric> layers;      ///< traced run
  std::vector<std::string> notes;  ///< human-readable lines for the log

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    end_to_end.push_back({name, value, unit, note});
  }
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    layers.push_back({name, value, unit, note});
  }
};

Report run_study(const Options& options, SpanRecorder& spans);
Report run_campaign(const Options& options, SpanRecorder& spans);
Report run_fleet(const Options& options, SpanRecorder& spans);

/// Hidden process-worker mode of the campaign workload.
int campaign_worker_main(int argc, char** argv);

// ---- host measurements --------------------------------------------------

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start);
/// CPU seconds (user + system) of this process; with `children`, plus the
/// CPU of every child process that has been waited for.
double cpu_seconds(bool children);
double peak_rss_mb();

/// Times `setup` `runs` times and returns the median wall seconds, scaled
/// to the reference host. The last run's state is what the workload then
/// measures.
double median_setup_seconds(int runs, const std::function<void()>& setup);

/// Times one unit of work: runs the reference kernel, stamps the wall and
/// CPU clocks; record() stops them, runs the kernel again and adds the
/// unit. `children` adds the CPU of waited-for child processes.
class UnitTimer {
 public:
  explicit UnitTimer(bool children = false);
  void record(UnitTimes& times, const std::string& unit) const;

 private:
  bool children_;
  double kernel_before_;
  double cpu0_;
  Clock::time_point t0_;
};

/// Runs `fn` as one unit of work timed into `times` and returns its result.
template <typename Fn>
auto timed(UnitTimes& times, const std::string& unit, bool children, Fn&& fn) {
  const UnitTimer timer(children);
  auto result = fn();
  timer.record(times, unit);
  return result;
}

/// Runs `rep` at least `min_reps` times, then again while the next
/// repetition, expected to last as long as the latest, would end within
/// `seconds` of the start. Returns the number of repetitions.
std::size_t repeat_for(double seconds, std::size_t min_reps,
                       const std::function<void(std::size_t rep)>& rep);

// ---- digests --------------------------------------------------------------

/// Order-sensitive 64-bit fold (SplitMix64 finaliser).
std::uint64_t mix(std::uint64_t h, std::uint64_t v);
std::uint64_t mix_double(std::uint64_t h, double v);
std::uint64_t hash_bytes(std::string_view bytes);  ///< FNV-1a
std::string hex64(std::uint64_t v);
/// "name  median  [rep1 rep2 ...]" for the log.
std::string rep_line(const std::string& name, const std::vector<double>& per_rep);

// ---- layer probes ----------------------------------------------------------

/// The capture path of the study: pcap write to memory, read back, dissect,
/// and the capture_filter example's filter tour (compiled once, applied to
/// every capture). Each call is wrapped in a span; with `times`, each
/// capture's path is one unit "capture/<index>".
struct CapturePathResult {
  std::uint64_t packets = 0;
  std::uint64_t round_trip_mismatches = 0;  ///< captures whose count/bytes changed
  std::uint64_t filter_errors = 0;
  /// Per capture: `ip.frag_offset > 0` matches.
  std::vector<std::uint64_t> trailing_fragments;
  std::uint64_t digest = 0;  ///< over every filter's match count
};
CapturePathResult run_capture_path(const std::vector<const streamlab::CaptureTrace*>& captures,
                                   SpanRecorder& spans, UnitTimes* times);

/// Inputs the shared probes take from the workload that runs them.
struct ProbeInputs {
  std::uint64_t encode_seed = 1;   ///< seed the workload encodes set1 with
  std::size_t frame_bytes = 0;     ///< set1/M-h median frame size
  /// Packets the workload's own traced capture path processed; 0 makes the
  /// probe run the capture path on one set1-high capture of its own.
  std::uint64_t capture_packets = 0;
  std::uint64_t capture_seed = 1;
};

/// Median encoded frame size of set1/M-h for the given encoder seed.
std::size_t set1_mh_median_frame_bytes(std::uint64_t seed);

/// Adds the probe metrics every traced run reports: EventLoop post+fire at
/// the campaign (10²) and fleet (10⁵) queue depths, fragment_packet and
/// DataHeader::make_packet at the set1/M-h median frame size, encode_clip,
/// and the pcap/dissect/filter per-packet costs from the capture-path spans.
void add_probe_layers(Report& report, const ProbeInputs& inputs, SpanRecorder& spans);

/// Thread-local pool counters of the calling thread (net::Buffer slab and
/// EventLoop EventCtl pool); the difference of two snapshots gives the
/// recycle ratios of the work done in between on this thread.
struct PoolSnapshot {
  std::uint64_t slab_fresh = 0, slab_recycled = 0;
  std::uint64_t ctl_fresh = 0, ctl_recycled = 0;
  static PoolSnapshot take();
};
void add_pool_layers(Report& report, const PoolSnapshot& before, const PoolSnapshot& after);

/// Adds trace.overhead_ratio: median traced over median untraced wall of
/// the same repetition, minus one.
void add_overhead_layer(Report& report, const std::vector<double>& untraced_s,
                        const std::vector<double>& traced_s);

/// Name and unit of every end-to-end and per-layer metric, in output order
/// (BENCHMARK.json lists the same names).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Adds every per-layer metric the workload did not measure, as 0 with the
/// note "n/a": the workload does not run that layer.
void fill_unmeasured_layers(Report& report, const std::string& workload);

/// The span table: calls, total and self time, and allocations per span
/// name, one printable line each.
std::vector<std::string> span_table(const SpanRecorder& spans);

}  // namespace perfbench
