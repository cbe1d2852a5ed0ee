// Workload `study`: the paper reproduction, serial on one thread.
//
// Why: the clean path — no faults, repair or executor. All 13 Table 1 pairs
// (26 clip sessions, every data set and tier) cover the full packet-size
// range, from RealPlayer's small variable packets to MediaPlayer's
// 1514-byte fragment trains, and this is the only workload that runs
// pcap, dissect, filter and analysis: it writes the capture format (NIC
// sniffer + write_pcap) and reads it back.
#include <cstdio>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/figures.hpp"
#include "core/study.hpp"
#include "media/catalog.hpp"

namespace perfbench {

using namespace streamlab;

namespace {

struct PairJob {
  const ClipSet* set = nullptr;
  RateTier tier = RateTier::kLow;
  ExperimentConfig config;
};

/// The study's 13 pair runs, seeded from the benchmark seed exactly the
/// way run_study_subset seeds them from StudyConfig::seed.
std::vector<PairJob> study_jobs(std::uint64_t seed) {
  std::vector<PairJob> jobs;
  for (const ClipSet& set : table1_catalog()) {
    for (const RateTier tier : {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh}) {
      if (!set.pair(tier)) continue;
      PairJob job;
      job.set = &set;
      job.tier = tier;
      job.config.path = path_for_data_set(set.id, seed);
      job.config.seed = seed ^ (static_cast<std::uint64_t>(set.id) << 8) ^
                        static_cast<std::uint64_t>(tier);
      job.config.keep_capture = true;
      jobs.push_back(job);
    }
  }
  return jobs;
}

std::uint64_t fold_series(std::uint64_t h, const std::vector<std::pair<double, double>>& s) {
  for (const auto& [x, y] : s) h = mix_double(mix_double(h, x), y);
  return h;
}

template <typename T>
std::uint64_t fold_indexed(std::uint64_t h, const std::vector<std::pair<double, T>>& s) {
  for (const auto& [x, y] : s) h = mix(mix_double(h, x), static_cast<std::uint64_t>(y));
  return h;
}

std::uint64_t fold_values(std::uint64_t h, const std::vector<double>& v) {
  for (const double x : v) h = mix_double(h, x);
  return h;
}

/// Builds every core/figures series and folds each number into a digest.
std::uint64_t build_figures(const StudyResults& study) {
  std::uint64_t h = 0;
  h = fold_values(h, figures::rtt_samples_ms(study));
  h = fold_values(h, figures::hop_counts(study));
  for (const auto& p : figures::playback_vs_encoding(study))
    h = mix_double(mix_double(h, p.encoding_kbps), p.playback_kbps);
  for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer}) {
    const PolyFit fit = figures::playback_trend(study, player);
    h = mix_double(fold_values(h, fit.coefficients), fit.r_squared);
    h = fold_values(h, figures::normalized_packet_sizes(study, player));
    h = fold_values(h, figures::normalized_interarrivals(study, player));
  }
  for (const auto& p : figures::fragmentation_vs_rate(study))
    h = mix_double(mix_double(h, p.encoded_kbps), p.fragment_percent);
  for (const auto& p : figures::buffering_ratio_vs_rate(study))
    h = mix_double(mix_double(h, p.encoding_kbps), p.ratio);
  const auto enc = figures::framerate_vs_encoding(study);
  const auto bw = figures::framerate_vs_bandwidth(study);
  for (const auto* points : {&enc, &bw}) {
    for (const auto& p : *points) h = mix_double(mix_double(h, p.x), p.fps);
    for (const PlayerKind player : {PlayerKind::kRealPlayer, PlayerKind::kMediaPlayer})
      for (const auto& t : figures::summarize_by_tier(*points, player))
        h = mix_double(mix_double(h, t.mean_fps), t.stderr_fps);
  }
  for (const ClipRunResult* run : study.clips()) {
    h = fold_indexed(h, figures::arrival_window(*run, Duration::seconds(30),
                                                Duration::seconds(1)));
    for (const auto& bin : figures::packet_size_pdf(*run).bins())
      h = mix_double(h, bin.probability);
    h = fold_values(h, figures::clip_interarrivals(*run));
    h = fold_series(h, figures::bandwidth_timeline(*run, study.config.bandwidth_window));
    const auto layers =
        figures::layer_receipt_series(*run, Duration::seconds(32), Duration::seconds(4));
    h = fold_indexed(fold_indexed(h, layers.network), layers.application);
    h = fold_series(h, figures::framerate_timeline(*run));
  }
  return h;
}

bool session_completed(const ClipRunResult& run) {
  const TrackerReport& t = run.tracker;
  return !run.flow.empty() && t.total_packets > 0 && t.frames_rendered > 0 &&
         t.streaming_duration > Duration::seconds(0);
}

}  // namespace

Report run_study(const Options& options, SpanRecorder& spans) {
  Report report;
  std::vector<PairJob> jobs;
  const double setup_s = median_setup_seconds(5, [&] {
    jobs = study_jobs(options.seed);
    // Warm-up unit, discarded: one pair run fills thread-local slabs and pools.
    const PairRunResult warm = run_clip_pair(*jobs.front().set, jobs.front().tier,
                                             jobs.front().config);
    report.check(warm.real.capture.has_value(), "warm-up pair kept no capture");
  });

  UnitTimes times;
  std::vector<double> clips_per_s, capture_pps, pair_ms, untraced_s, traced_s;
  std::uint64_t packets = 0, allocs = 0, capture_packets = 0, traced_capture_packets = 0;
  std::uint64_t figure_digest = 0, capture_digest = 0;
  const PoolSnapshot pools_before = PoolSnapshot::take();
  const auto rep = [&](std::size_t r) {
    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured on the same work.
    if (options.trace) spans.set_enabled(r % 2 == 1);
    const std::uint64_t alloc0 = allocations();
    const auto t0 = Clock::now();
    StudyResults study;
    study.config.seed = options.seed;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      auto s = spans.span("core.run_clip_pair");
      const PairJob& job = jobs[j];
      const auto p0 = Clock::now();
      study.runs.push_back(timed(times, "sim/pair" + std::to_string(j), false, [&] {
        return run_clip_pair(*job.set, job.tier, job.config);
      }));
      pair_ms.push_back(seconds_since(p0) * 1e3);
    }
    const std::uint64_t digest = timed(times, "sim/figures", false, [&] {
      auto s = spans.span("core.figures");
      return build_figures(study);
    });
    const double sim_s = seconds_since(t0);
    std::vector<const CaptureTrace*> captures;
    for (const PairRunResult& pair : study.runs)
      if (pair.real.capture) captures.push_back(&*pair.real.capture);
    const auto c0 = Clock::now();
    const CapturePathResult path = run_capture_path(captures, spans, &times);
    const double capture_s = seconds_since(c0);
    allocs += allocations() - alloc0;

    const std::size_t sessions = 2 * study.runs.size();
    report.attempted += sessions;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < study.runs.size(); ++i) {
      const PairRunResult& pair = study.runs[i];
      const std::string id = pair.media.clip.id();
      for (const ClipRunResult* run : {&pair.real, &pair.media})
        if (!session_completed(*run)) {
          ++report.failed;
          report.check(false, run->clip.id() + " session did not complete");
        }
      report.check(pair.real.capture.has_value(), id + ": no capture kept");
      report.check(pair.real.flow.fragment_count() == 0,
                   pair.real.clip.id() + ": RealPlayer flow has IP fragments");
      if (i < path.trailing_fragments.size())
        report.check(path.trailing_fragments[i] ==
                         pair.real.flow.fragment_count() + pair.media.flow.fragment_count(),
                     id + ": ip.frag_offset > 0 matches differ from FlowTrace fragments");
      if (pair.real.capture) delivered += pair.real.capture->size();
    }
    report.check(path.trailing_fragments.size() == captures.size(),
                 "capture path skipped a capture");
    report.check(path.round_trip_mismatches == 0, "pcap round trip changed a capture");
    report.check(path.filter_errors == 0, "a tour filter failed to compile");
    if (r == 0) {
      figure_digest = digest;
      capture_digest = path.digest;
      packets = delivered;
      capture_packets = path.packets;
    } else {
      report.check(digest == figure_digest, "figure digest differs between repetitions");
      report.check(path.digest == capture_digest,
                   "filter match counts differ between repetitions");
    }
    clips_per_s.push_back(static_cast<double>(sessions) / sim_s);
    capture_pps.push_back(static_cast<double>(path.packets) / capture_s);
    (spans.enabled() ? traced_s : untraced_s).push_back(sim_s + capture_s);
    if (spans.enabled()) traced_capture_packets += path.packets;
  };
  const std::size_t reps = repeat_for(options.seconds, 2, rep);
  const PoolSnapshot pools_after = PoolSnapshot::take();
  spans.set_enabled(options.trace);

  report.result_digest = mix(figure_digest, capture_digest);
  const std::string scaled = "; host-scaled medians over " + std::to_string(reps) + " repetitions";
  report.metric("setup_s", setup_s, "s", "median of 5 set-ups (jobs + warm-up pair)");
  report.metric("units_per_s", static_cast<double>(2 * jobs.size()) / times.wall("sim/"), "1/s",
                "clip sessions per second over simulate + figures" + scaled);
  report.metric("sim_packets_per_cpu_s", static_cast<double>(packets) / times.cpu(), "1/s",
                std::to_string(packets) + " packets at the client NIC per repetition / " +
                    std::to_string(times.cpu()) + " CPU s" + scaled);
  report.metric("allocs_per_packet",
                static_cast<double>(allocs) / static_cast<double>(packets * reps), "count",
                std::to_string(allocs) + " allocations in " + std::to_string(reps) +
                    " repetitions");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes.push_back(rep_line("clips_per_s", clips_per_s));
  report.notes.push_back(rep_line("capture_packets_per_s", capture_pps));
  report.notes.push_back("host-scaled: capture_packets_per_s " +
                         std::to_string(static_cast<double>(capture_packets) / times.wall("capture/")) +
                         "  (reference kernel median " +
                         std::to_string(times.median_kernel_seconds() * 1e3) + " ms)");

  if (options.trace) {
    add_overhead_layer(report, untraced_s, traced_s);
    add_pool_layers(report, pools_before, pools_after);
    report.layer("core.unit_ms.p50", median(pair_ms), "ms",
                 "run_clip_pair wall, " + std::to_string(pair_ms.size()) + " pair runs");
    report.notes.push_back("core.run_clip_pair_ms " +
                           std::to_string(times.raw_wall("sim/pair") * 1e3 /
                                          static_cast<double>(jobs.size())) +
                           " (mean over the pairs of each pair's median)");
    report.notes.push_back("core.figures_ms " + std::to_string(times.raw_wall("sim/figures") * 1e3));
    ProbeInputs probe;
    probe.encode_seed = jobs[1].config.seed;  // set1 high, the pair the probes model
    probe.frame_bytes = set1_mh_median_frame_bytes(probe.encode_seed);
    probe.capture_packets = traced_capture_packets;
    add_probe_layers(report, probe, spans);
  }
  return report;
}

}  // namespace perfbench
