#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "alloc_count.hpp"
#include "host_speed.hpp"
#include "core/experiment.hpp"
#include "core/study.hpp"
#include "filter/evaluator.hpp"
#include "media/catalog.hpp"
#include "media/encoder.hpp"
#include "net/buffer.hpp"
#include "net/fragmentation.hpp"
#include "net/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "players/protocol.hpp"
#include "sim/event_loop.hpp"

namespace perfbench {

using namespace streamlab;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds(bool children) {
  const auto total = [](int who) {
    rusage u{};
    getrusage(who, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  return total(RUSAGE_SELF) + (children ? total(RUSAGE_CHILDREN) : 0.0);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median_setup_seconds(int runs, const std::function<void()>& setup) {
  UnitTimes times;
  for (int i = 0; i < runs; ++i) {
    const UnitTimer timer;
    setup();
    timer.record(times, "setup");
  }
  return times.wall("setup");
}

UnitTimer::UnitTimer(bool children)
    : children_(children),
      kernel_before_(reference_seconds()),
      cpu0_(cpu_seconds(children)),
      t0_(Clock::now()) {}

void UnitTimer::record(UnitTimes& times, const std::string& unit) const {
  const double wall = seconds_since(t0_);
  const double cpu = cpu_seconds(children_) - cpu0_;
  times.add(unit, wall, cpu, 0.5 * (kernel_before_ + reference_seconds()));
}

std::size_t repeat_for(double seconds, std::size_t min_reps,
                       const std::function<void(std::size_t rep)>& rep) {
  const auto t0 = Clock::now();
  double last = 0.0;  // duration of the latest repetition
  std::size_t n = 0;
  // Stop before a repetition that would end past the budget.
  while (n < min_reps || seconds_since(t0) + last <= seconds) {
    const auto r0 = Clock::now();
    rep(n++);
    last = seconds_since(r0);
  }
  return n;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t hash_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string rep_line(const std::string& name, const std::vector<double>& per_rep) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%-24s %12.4f  [", name.c_str(), median(per_rep));
  std::string line = buf;
  for (std::size_t i = 0; i < per_rep.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4g", i ? " " : "", per_rep[i]);
    line += buf;
  }
  return line + "]";
}

// ---- capture path -----------------------------------------------------------

namespace {

/// The capture_filter example's display-filter tour. Index 1 is the
/// fragment census the study's output check compares with FlowTrace.
std::vector<std::string> filter_tour() {
  return {"udp",
          "ip.frag_offset > 0",
          "ip.flags.mf == 1 && ip.frag_offset == 0",
          "frame.len == 1514",
          "frame.len < 600 && udp",
          "udp.port == " + std::to_string(kMediaServerPort),
          "!(ip.fragment == 1)"};
}

}  // namespace

CapturePathResult run_capture_path(const std::vector<const CaptureTrace*>& captures,
                                   SpanRecorder& spans, UnitTimes* times) {
  CapturePathResult out;
  std::vector<filter::DisplayFilter> filters;
  {
    auto s = spans.span("filter.compile");
    for (const std::string& expr : filter_tour()) {
      auto compiled = filter::DisplayFilter::compile(expr);
      if (!compiled) {
        ++out.filter_errors;
        continue;
      }
      filters.push_back(std::move(*compiled));
    }
  }
  for (std::size_t c = 0; c < captures.size(); ++c) {
    const CaptureTrace* capture = captures[c];
    const UnitTimer timer;
    std::ostringstream written;
    {
      auto s = spans.span("pcap.write");
      if (!write_pcap(written, *capture)) ++out.round_trip_mismatches;
    }
    std::istringstream in(std::move(written).str());
    Expected<CaptureTrace> loaded = [&] {
      auto s = spans.span("pcap.read");
      return read_pcap(in);
    }();
    if (!loaded || loaded->size() != capture->size() ||
        loaded->total_bytes() != capture->total_bytes()) {
      ++out.round_trip_mismatches;
      out.trailing_fragments.push_back(0);
      continue;
    }
    out.packets += loaded->size();
    std::vector<DissectedPacket> packets;
    {
      auto s = spans.span("dissect.trace");
      packets = dissect_trace(*loaded);
    }
    auto s = spans.span("filter.select");
    for (std::size_t i = 0; i < filters.size(); ++i) {
      const std::size_t matched = filters[i].select(packets).size();
      out.digest = mix(out.digest, matched);
      if (i == 1) out.trailing_fragments.push_back(matched);
    }
    if (times != nullptr) timer.record(*times, "capture/" + std::to_string(c));
  }
  return out;
}

// ---- probes -------------------------------------------------------------------

namespace {

ClipInfo set1_clip(PlayerKind player) {
  const auto pair = table1_catalog().front().pair(RateTier::kHigh);
  return player == PlayerKind::kMediaPlayer ? pair->second : pair->first;
}

template <typename Fn>
double median_ns_per_op(std::size_t ops, int batches, Fn&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(samples);
}

/// EventLoop post + fire at a steady queue depth: every fired event posts
/// its replacement at a pseudo-random future time, so the pending count
/// stays at `depth` while the loop runs.
double post_fire_ns(std::size_t depth, std::uint64_t seed) {
  struct SteadyLoop {
    EventLoop loop;
    std::uint64_t state;
    std::uint64_t fired = 0;
    Duration next_delay() {
      state = mix(state, fired);
      // Uniform over (0, 200 ms]: the spread of link, playout and timer
      // deadlines in a campaign trial.
      return Duration::nanos(1 + static_cast<std::int64_t>(state % 200'000'000));
    }
    void post() {
      loop.post_in(next_delay(), [this] {
        ++fired;
        post();
      });
    }
  };
  SteadyLoop d{EventLoop{}, seed};
  for (std::size_t i = 0; i < depth; ++i) d.post();
  const std::size_t ops = std::max<std::size_t>(depth, 200'000);
  d.loop.run(ops);  // warm: pools full, wheel levels populated
  return median_ns_per_op(ops, 5, [&] { d.loop.run(ops); });
}

double fragment_ns(std::size_t payload_bytes) {
  const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  const Ipv4Packet packet = make_udp_packet({Ipv4Address(10, 0, 0, 1), kMediaServerPort},
                                            {Ipv4Address(10, 1, 0, 2), 5000}, payload, 7);
  constexpr std::size_t kOps = 100'000;
  std::size_t sink = 0;
  const double ns = median_ns_per_op(kOps, 5, [&] {
    for (std::size_t i = 0; i < kOps; ++i) sink += fragment_packet(packet, 1500).size();
  });
  if (sink == 0) std::fprintf(stderr, "fragment probe produced no fragments\n");
  return ns;
}

double make_packet_ns(std::size_t media_len) {
  constexpr std::size_t kOps = 50'000;
  std::size_t sink = 0;
  DataHeader header;
  const double ns = median_ns_per_op(kOps, 5, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      header.seq = static_cast<std::uint32_t>(i);
      sink += DataHeader::make_packet(header, media_len).size();
    }
  });
  if (sink == 0) std::fprintf(stderr, "make_packet probe produced no bytes\n");
  return ns;
}

double encode_clip_ms(std::uint64_t seed) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const EncodedClip r = encode_clip(set1_clip(PlayerKind::kRealPlayer), seed);
    const EncodedClip m = encode_clip(set1_clip(PlayerKind::kMediaPlayer), seed);
    samples.push_back(seconds_since(t0) * 1e3 / 2.0);
    if (r.frames().empty() || m.frames().empty())
      std::fprintf(stderr, "encode probe produced an empty clip\n");
  }
  return median(samples);
}

/// Sum of self time and call count of one span name.
SpanRecorder::NameTotals totals_of(const std::vector<SpanRecorder::NameTotals>& all,
                                   const std::string& name) {
  for (const auto& t : all)
    if (t.name == name) return t;
  return {};
}

}  // namespace

std::size_t set1_mh_median_frame_bytes(std::uint64_t seed) {
  const EncodedClip clip = encode_clip(set1_clip(PlayerKind::kMediaPlayer), seed);
  std::vector<double> sizes;
  for (const EncodedFrame& f : clip.frames()) sizes.push_back(f.bytes);
  return static_cast<std::size_t>(median(sizes));
}

void add_probe_layers(Report& report, const ProbeInputs& inputs, SpanRecorder& spans) {
  const std::size_t frame = inputs.frame_bytes;
  const std::string at_frame = "at " + std::to_string(frame) + " B (set1/M-h median frame)";
  report.layer("sim.post_fire_ns.depth1e2", post_fire_ns(100, inputs.encode_seed), "ns",
               "EventLoop post+fire, 100 pending");
  report.layer("sim.post_fire_ns.depth1e5", post_fire_ns(100'000, inputs.encode_seed), "ns",
               "EventLoop post+fire, 100000 pending");
  report.layer("net.fragment_ns", fragment_ns(frame), "ns", "fragment_packet " + at_frame);
  report.layer("players.make_packet_ns", make_packet_ns(frame), "ns",
               "DataHeader::make_packet " + at_frame);
  report.layer("media.encode_clip_ms", encode_clip_ms(inputs.encode_seed), "ms",
               "encode_clip per clip, set1 R-h/M-h");

  std::uint64_t packets = inputs.capture_packets;
  if (packets == 0) {
    // This workload has no capture path: run it once on a set1-high pair.
    ExperimentConfig config;
    config.path = path_for_data_set(1, inputs.capture_seed);
    config.seed = inputs.capture_seed;
    config.keep_capture = true;
    const PairRunResult pair =
        run_clip_pair(table1_catalog().front(), RateTier::kHigh, config);
    packets = run_capture_path({&*pair.real.capture}, spans, nullptr).packets;
  }
  const auto totals = spans.totals_by_name();
  const double n = static_cast<double>(std::max<std::uint64_t>(packets, 1));
  const double tour = static_cast<double>(filter_tour().size());
  const std::string base = "over " + std::to_string(packets) + " captured packets";
  const auto total_ns = [&](const char* name) {
    return static_cast<double>(totals_of(totals, name).total_ns);
  };
  report.layer("pcap.write_ns_per_packet", total_ns("pcap.write") / n, "ns", base);
  report.layer("pcap.read_ns_per_packet", total_ns("pcap.read") / n, "ns", base);
  report.layer("dissect.ns_per_packet", total_ns("dissect.trace") / n, "ns", base);
  report.layer("dissect.allocs_per_packet",
               static_cast<double>(totals_of(totals, "dissect.trace").allocs) / n, "count",
               base);
  const auto compile = totals_of(totals, "filter.compile");
  report.layer("filter.compile_us",
               compile.calls == 0
                   ? 0.0
                   : total_ns("filter.compile") / 1e3 / (static_cast<double>(compile.calls) * tour),
               "us", "per expression of the capture_filter tour");
  report.layer("filter.select_ns_per_packet", total_ns("filter.select") / (n * tour), "ns",
               base + ", per expression");
}

PoolSnapshot PoolSnapshot::take() {
  const Buffer::SlabStats slab = Buffer::slab_stats();
  const EventCtl::PoolStats ctl = EventCtl::pool_stats();
  return {slab.fresh_blocks, slab.recycled_blocks, ctl.fresh, ctl.recycled};
}

void add_pool_layers(Report& report, const PoolSnapshot& before, const PoolSnapshot& after) {
  const auto ratio = [](std::uint64_t recycled, std::uint64_t fresh) {
    const Ratio r{static_cast<double>(recycled), static_cast<double>(recycled + fresh)};
    return std::pair{r.value(), "recycled " + std::to_string(recycled) + " of " +
                                    std::to_string(recycled + fresh) + " blocks"};
  };
  const auto [slab, slab_base] = ratio(after.slab_recycled - before.slab_recycled,
                                       after.slab_fresh - before.slab_fresh);
  const auto [ctl, ctl_base] = ratio(after.ctl_recycled - before.ctl_recycled,
                                     after.ctl_fresh - before.ctl_fresh);
  report.layer("net.slab_recycle_ratio", slab, "ratio", slab_base);
  report.layer("sim.eventctl_recycle_ratio", ctl, "ratio", ctl_base);
}

void add_overhead_layer(Report& report, const std::vector<double>& untraced_s,
                        const std::vector<double>& traced_s) {
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  report.layer("trace.overhead_ratio", untraced == 0.0 ? 0.0 : traced / untraced - 1.0,
               "ratio",
               "traced " + std::to_string(traced) + " s vs untraced " +
                   std::to_string(untraced) + " s per repetition (medians of " +
                   std::to_string(traced_s.size()) + "/" +
                   std::to_string(untraced_s.size()) + ")");
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"units_per_s", "1/s"},
      {"sim_packets_per_cpu_s", "1/s"},
      {"allocs_per_packet", "count"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace.overhead_ratio", "ratio"},
      {"core.unit_ms.p50", "ms"},
      {"sim.post_fire_ns.depth1e2", "ns"},
      {"sim.post_fire_ns.depth1e5", "ns"},
      {"net.fragment_ns", "ns"},
      {"players.make_packet_ns", "ns"},
      {"media.encode_clip_ms", "ms"},
      {"pcap.write_ns_per_packet", "ns"},
      {"pcap.read_ns_per_packet", "ns"},
      {"dissect.ns_per_packet", "ns"},
      {"dissect.allocs_per_packet", "count"},
      {"filter.compile_us", "us"},
      {"filter.select_ns_per_packet", "ns"},
      {"net.slab_recycle_ratio", "ratio"},
      {"sim.eventctl_recycle_ratio", "ratio"},
      {"sim.audit_checks_per_event", "ratio"},
      {"sim.events_per_trial", "count"},
      {"sim.events.link_per_trial", "count"},
      {"sim.events.playout_per_trial", "count"},
      {"sim.events.control_per_trial", "count"},
      {"sim.events.fault_per_trial", "count"},
      {"sim.events.timer_per_trial", "count"},
      {"sim.queue_depth.p50", "count"},
      {"sim.queue_depth.max", "count"},
      {"players.repair_useful_ratio", "ratio"},
      {"players.nacks_per_trial", "count"},
      {"players.retx_per_trial", "count"},
      {"players.parity_per_trial", "count"},
      {"players.rebuffers_per_trial", "count"},
      {"core.pool_busy_ratio", "ratio"},
      {"core.manifest_bytes_per_trial", "B"},
      {"campaign.proc_vs_pool_ratio", "ratio"},
      {"campaign.workers_lost", "count"},
      {"campaign.reassigned_trials", "count"},
      {"obs.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

void fill_unmeasured_layers(Report& report, const std::string& workload) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const bool measured = std::any_of(report.layers.begin(), report.layers.end(),
                                      [&](const Metric& m) { return m.name == name; });
    if (!measured) report.layer(name, 0.0, unit, "n/a: " + workload + " does not run this");
  }
}

std::vector<std::string> span_table(const SpanRecorder& spans) {
  std::vector<std::string> lines{"spans (benchmark spans around library calls):"};
  char line[256];
  for (const auto& t : spans.totals_by_name()) {
    std::snprintf(line, sizeof line, "  %-28s calls %6zu  total %10.3f ms  self %10.3f ms  "
                  "allocs %10llu  self allocs %10llu",
                  t.name.c_str(), t.calls, static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6,
                  static_cast<unsigned long long>(t.allocs),
                  static_cast<unsigned long long>(t.self_allocs));
    lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
