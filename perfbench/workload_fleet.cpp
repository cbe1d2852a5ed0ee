// Workload `fleet`: run_fleet with 10^5 sessions and the default config,
// with an audit::Auditor attached (the ROADMAP's "audited fleet sessions/s
// at 10^5").
//
// Why: the queue holds ~10^5 pending events and almost all work is the
// event core — no payload bytes, players, repair or executor. This is the
// depth where the timing wheel beats the heap; an event-core change that
// pays off at campaign depth (~10^2) may cost here, and this workload
// shows it.
#include <optional>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "host_speed.hpp"
#include "core/fleet.hpp"

namespace perfbench {

using namespace streamlab;

namespace {

constexpr std::size_t kSessions = 100'000;
/// The warm-up fleet: a tenth of the measured one, enough to size the
/// thread-local pools without costing a full run per set-up.
constexpr std::size_t kWarmSessions = 10'000;
/// One fleet run takes ~10 s; three give a median. Each run is scaled by
/// the reference kernel sampled on its CPU while it ran (PinnedSampler):
/// over ~10 s the host drifts too much for kernel runs at the edges.
constexpr std::size_t kMinReps = 3;

}  // namespace

Report run_fleet(const Options& options, SpanRecorder& spans) {
  Report report;
  FleetConfig config;
  const double setup_s = median_setup_seconds(5, [&] {
    config = FleetConfig{};
    config.sessions = kWarmSessions;
    config.seed = options.seed;
    audit::Auditor auditor;
    config.auditor = &auditor;
    const FleetResult warm = run_fleet(config);
    report.check(auditor.report().clean() && warm.packets_delivered > 0,
                 "warm-up fleet failed its audit");
    config.auditor = nullptr;
    config.sessions = kSessions;
  });

  UnitTimes times;
  std::vector<double> rate, wall_ms, ns_per_event, untraced_s, traced_s;
  std::uint64_t delivered = 0, allocs = 0, events = 0, checks = 0;
  std::uint64_t first_digest = 0;
  const PoolSnapshot pools_before = PoolSnapshot::take();
  std::optional<PinnedSampler> sampler(std::in_place);
  const auto rep = [&](std::size_t r) {
    if (options.trace) spans.set_enabled(r % 2 == 1);
    audit::Auditor auditor;
    FleetConfig cfg = config;
    cfg.auditor = &auditor;
    const std::uint64_t alloc0 = allocations();
    const double cpu0 = cpu_seconds(false);
    const auto t0 = Clock::now();
    const FleetResult result = [&] {
      auto s = spans.span("core.run_fleet");
      return run_fleet(cfg);
    }();
    const auto t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const double cpu = cpu_seconds(false) - cpu0;
    allocs += allocations() - alloc0;
    times.add("fleet", wall, cpu, sampler->kernel_seconds(t0, t1));

    const audit::AuditReport& audit = auditor.report();
    const bool conserved =
        result.packets_sent == result.packets_delivered + result.packets_lost;
    report.attempted += result.sessions;
    report.failed += audit.total_violations + (conserved ? 0 : 1);
    report.check(result.sessions == kSessions, "fleet ran the wrong number of sessions");
    report.check(audit.clean(), "fleet audit: " + audit.summary());
    report.check(conserved, "fleet packets sent != delivered + lost");
    if (r == 0)
      first_digest = result.digest;
    else
      report.check(result.digest == first_digest, "fleet digest differs between repetitions");

    rate.push_back(static_cast<double>(result.sessions) / wall);
    wall_ms.push_back(wall * 1e3);
    ns_per_event.push_back(wall * 1e9 / static_cast<double>(result.events_executed));
    delivered += result.packets_delivered;
    events += result.events_executed;
    checks += audit.checks_performed;
    (spans.enabled() ? traced_s : untraced_s).push_back(wall);
  };
  const std::size_t reps = repeat_for(options.seconds, kMinReps, rep);
  sampler.reset();
  const PoolSnapshot pools_after = PoolSnapshot::take();
  spans.set_enabled(options.trace);
  report.result_digest = first_digest;

  report.metric("setup_s", setup_s, "s", "median of 5 set-ups (config + 10^4-session fleet)");
  const std::string scaled = "; host-scaled median of " + std::to_string(reps) + " repetitions";
  const double per_rep = static_cast<double>(delivered) / static_cast<double>(reps);
  report.metric("units_per_s", static_cast<double>(kSessions) / times.wall(), "1/s",
                "audited sessions per second at 10^5" + scaled);
  report.metric("sim_packets_per_cpu_s", per_rep / times.cpu(), "1/s",
                std::to_string(per_rep) + " packets delivered per run / " +
                    std::to_string(times.cpu()) + " CPU s" + scaled);
  report.metric("allocs_per_packet",
                static_cast<double>(allocs) / static_cast<double>(delivered), "count",
                std::to_string(allocs) + " allocations");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes.push_back(rep_line("sessions_per_s", rate));
  report.notes.push_back("reference kernel median " +
                         std::to_string(times.median_kernel_seconds() * 1e3) + " ms");

  if (!options.trace) return report;
  add_overhead_layer(report, untraced_s, traced_s);
  add_pool_layers(report, pools_before, pools_after);
  report.layer("core.unit_ms.p50", median(wall_ms), "ms",
               "run_fleet wall, " + std::to_string(wall_ms.size()) + " runs");
  report.layer("sim.audit_checks_per_event",
               Ratio{static_cast<double>(checks), static_cast<double>(events)}.value(), "ratio",
               std::to_string(checks) + " checks / " + std::to_string(events) + " events");
  report.layer("sim.events_per_trial",
               static_cast<double>(events) / static_cast<double>(reps), "count",
               "events per 10^5-session fleet run");
  report.notes.push_back("sim.fleet_ns_per_event " + std::to_string(median(ns_per_event)));

  ProbeInputs probe;
  probe.encode_seed = options.seed;
  probe.frame_bytes = set1_mh_median_frame_bytes(options.seed);
  probe.capture_seed = options.seed;
  add_probe_layers(report, probe, spans);
  return report;
}

}  // namespace perfbench
