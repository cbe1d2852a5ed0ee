// turbulence_lab: the paper's comparison run through *scripted* network
// turbulence. The scenarios and the flag table live in the library
// (core/scenarios.hpp); this example runs the modes and prints them. Any
// usage error (an unknown flag, a missing value, or a malformed or
// out-of-range value) prints the usage generated from the flag table on
// stderr and exits with status 2.
//
// Scenario mode (the default) streams the WM/RM pair of one clip set
// through each catalog scenario of the selected group, prints every
// session's recovery metrics and writes the CSV exports (the export dir
// defaults to streamlab_turbulence in the current directory). By default
// the group is the four link impairments: a short flap the delay buffers
// absorb, a long outage the watchdog must detect, a Gilbert–Elliott
// burst-loss epoch and a congestion dip. --chaos selects router failure
// with a detour reroute and a mirror failover (DESIGN.md §11); --multipath
// selects 2:1 striping through a flapping detour (§16). --fec/--nack add
// the loss-repair layer to every scenario and trial (§12); --trace dumps
// each run's trace and metrics under <dir>/<scenario>/ (§8). A scenario
// that dies mid-flight still flushes the rows of the ones before it.
//
// --campaign N runs N audited trials per player (seeds base..base+N-1) of
// the catalog's campaign scenario — burst loss, or the chaos reroute, or
// the multipath flap — with a resume manifest, quarantine and per-trial
// budgets (§9, §10). --workers runs them on a thread pool, --distributed
// on worker processes that re-exec this binary with the hidden --worker
// flag (§14); the manifest is byte-identical either way. --progress-every
// prints a health line, quarantined trials leave a flight-recorder
// post-mortem (§13), and SIGINT/SIGTERM flushes the committed trials so
// the study resumes. Exits nonzero when any trial was quarantined.
//
// --fleet N runs N audited flyweight sessions through a shared
// Gilbert–Elliott window on one event loop and prints throughput and the
// delivery digest (§15); --verify-determinism replays it and compares.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/distributed.hpp"
#include "campaign/worker.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/fleet.hpp"
#include "core/scenarios.hpp"
#include "core/turbulence.hpp"
#include "obs/export.hpp"

using namespace streamlab;

namespace {

const char* player_name(const ClipInfo& clip) {
  return clip.player == PlayerKind::kMediaPlayer ? "media" : "real";
}

void describe(const char* name, const TurbulenceRunResult& run) {
  std::printf("scenario: %s\n", name);
  for (const auto& rec : run.episodes) {
    std::printf("  episode %-12s %-14s t=%5.1fs +%5.1fs  dropped %llu packets\n",
                to_string(rec.episode.kind), rec.episode.label.c_str(),
                rec.episode.start.to_seconds(), rec.episode.duration.to_seconds(),
                static_cast<unsigned long long>(rec.packets_dropped));
  }
  const auto session = [](const SessionRecoveryMetrics& m) {
    std::printf("  %-5s %-10s attempts=%u%s%s%s", m.clip.id().c_str(),
                m.completed      ? "completed"
                : m.stream_dead  ? "DEAD"
                : m.abandoned    ? "ABANDONED"
                                 : "incomplete",
                m.play_attempts, m.stream_dead ? " (watchdog)" : "",
                m.abandoned ? " (retries exhausted)" : "",
                m.established ? "" : " never-established");
    if (m.time_to_recover)
      std::printf("  recover=%.2fs", m.time_to_recover->to_seconds());
    std::printf("  rebuffers=%u stall=%.1fs frames=%u/%u (during=%u after=%u) lost=%llu dup=%llu",
                m.rebuffer_events, m.stall_time.to_seconds(), m.frames_rendered,
                m.frames_rendered + m.frames_dropped, m.frames_dropped_during_episodes,
                m.frames_dropped_after_episodes,
                static_cast<unsigned long long>(m.packets_lost),
                static_cast<unsigned long long>(m.duplicate_packets));
    if (m.failovers > 0)
      std::printf("  failovers=%u (resume@%llu, %llu unreachables)", m.failovers,
                  static_cast<unsigned long long>(m.resume_offset),
                  static_cast<unsigned long long>(m.icmp_unreachables));
    if (m.stall_during_router_down > Duration::zero())
      std::printf("  router-down-stall=%.1fs",
                  m.stall_during_router_down.to_seconds());
    std::printf("\n");
    if (m.primary_packets + m.detour_packets > 0)
      std::printf(
          "        multipath: primary %llu pkts (loss %.1f%%, %.0f kbps) | "
          "detour %llu pkts (loss %.1f%%, %.0f kbps) | switches %llu | "
          "reorder-p95 %u | nack-suppressed %llu | stalls %u/%u%s\n",
          static_cast<unsigned long long>(m.primary_packets),
          100.0 * m.primary_loss_ratio(), m.primary_goodput_kbps,
          static_cast<unsigned long long>(m.detour_packets),
          100.0 * m.detour_loss_ratio(), m.detour_goodput_kbps,
          static_cast<unsigned long long>(m.path_switches), m.reorder_depth_p95,
          static_cast<unsigned long long>(m.nack_suppressed), m.primary_stalls,
          m.detour_stalls, m.multipath_degraded ? " DEGRADED" : "");
    if (m.packets_recovered > 0 || m.parity_packets > 0 || m.nacks_sent > 0)
      std::printf(
          "        repair: recovered=%llu (fec=%llu retx=%llu) ratio=%.1f%% "
          "latency=%.1f/%.1fms nacks=%llu overhead=%.2f%%\n",
          static_cast<unsigned long long>(m.packets_recovered),
          static_cast<unsigned long long>(m.recovered_by_fec),
          static_cast<unsigned long long>(m.recovered_by_retx),
          100.0 * m.recovery_ratio(), m.repair_latency_mean_ms,
          m.repair_latency_p95_ms, static_cast<unsigned long long>(m.nacks_sent),
          100.0 * m.repair_overhead());
  };
  if (run.real) session(*run.real);
  if (run.media) session(*run.media);
  if (run.reroutes > 0 || run.route_restores > 0)
    std::printf("  route repair: %llu reroutes, %llu restores\n",
                static_cast<unsigned long long>(run.reroutes),
                static_cast<unsigned long long>(run.route_restores));
  std::printf("  sessions failed: %d\n\n", run.sessions_abandoned());
}

/// Campaign mode: N audited trials of the catalog's campaign scenario per
/// player. Returns the process exit code (nonzero when any trial was
/// quarantined).
int run_campaign_mode(const ClipSet& set, const LabOptions& opts, int argc, char** argv) {
  const auto [real_clip, media_clip] = *set.pair(opts.tier);
  const std::size_t trials = opts.campaign;
  // An interrupted study must keep its committed trials: the cooperative
  // cancel flag lets the campaign flush the manifest + aggregate and exit
  // nonzero instead of dying mid-write.
  const std::atomic<bool>* cancel = cancel_on_stop_signals();
  int exit_code = 0;
  for (const ClipInfo* clip : {&real_clip, &media_clip}) {
    CampaignConfig cfg = lab_campaign_config(*clip, opts);
    cfg.workers = opts.workers;
    cfg.cancel = cancel;
    const char* player = player_name(*clip);
    if (!opts.manifest.empty()) cfg.manifest_path = opts.manifest + "." + player;
    if (opts.progress_every > 0) {
      cfg.progress_every = opts.progress_every;
      cfg.progress_hook = [](const CampaignProgress& p) {
        std::printf(
            "  progress: %zu/%zu trials | %.2f trials/sec | eta %.1fs | "
            "quarantine %.1f%% | util %.0f%% | workers %zu\n",
            p.trials_done, p.trials_total, p.trials_per_sec, p.eta_seconds,
            p.trials_done > 0
                ? 100.0 * static_cast<double>(p.quarantined) / static_cast<double>(p.trials_done)
                : 0.0,
            100.0 * p.worker_utilization, p.workers);
      };
    }

    std::printf("campaign: %s  %zu trials  seeds %llu..%llu%s%s\n", clip->id().c_str(),
                trials, static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(opts.seed + trials - 1),
                opts.verify_determinism ? "  (verifying determinism)" : "",
                opts.distributed ? "  (distributed)" : "");
    CampaignResult result;
    const auto wall_start = std::chrono::steady_clock::now();
    try {
      if (opts.distributed) {
        // Workers re-exec this command line: worker mode returns before any
        // coordinator-only flag matters, and every flag that shapes the
        // config digest is carried as given.
        campaign::DistributedOptions distrib;
        distrib.worker_argv.assign(argv, argv + argc);
        char exe[4096];
        const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
        if (n > 0) distrib.worker_argv[0].assign(exe, static_cast<std::size_t>(n));
        distrib.worker_argv.push_back("--worker");
        distrib.worker_argv.push_back(player);
        distrib.workers = opts.workers;
        distrib.max_worker_restarts = opts.max_worker_restarts;
        distrib.kill_worker_after = opts.kill_worker_after;
        // A healthy trial finishes far inside the 120 s wall budget; a
        // worker that sits on one for longer is hung, not slow.
        distrib.trial_deadline = std::chrono::milliseconds(150'000);
        result = campaign::run_distributed_campaign(cfg, distrib);
      } else {
        result = run_campaign(cfg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign %s failed: %s\n", player, e.what());
      return 1;
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    for (const TrialOutcome& t : result.trials) {
      if (t.status == TrialStatus::kQuarantined) {
        std::printf("  trial %3zu seed %llu QUARANTINED: %s\n", t.index,
                    static_cast<unsigned long long>(t.seed), t.reason.c_str());
      } else if (!t.from_manifest) {
        std::printf("  trial %3zu seed %llu completed: %llu events, %llu checks%s\n",
                    t.index, static_cast<unsigned long long>(t.seed),
                    static_cast<unsigned long long>(t.sim_events),
                    static_cast<unsigned long long>(t.checks),
                    t.budget_exhausted ? " (budget exhausted)" : "");
      }
    }
    const CampaignAggregate& agg = result.aggregate;
    std::printf(
        "  %s: %zu completed (%zu resumed), %zu quarantined | sessions %llu/%llu "
        "completed, frames %llu/%llu rendered, %llu packets lost, stall %.1fs\n",
        player, result.completed, result.resumed, result.quarantined,
        static_cast<unsigned long long>(agg.sessions_completed),
        static_cast<unsigned long long>(agg.sessions),
        static_cast<unsigned long long>(agg.frames_rendered),
        static_cast<unsigned long long>(agg.frames_rendered + agg.frames_dropped),
        static_cast<unsigned long long>(agg.packets_lost), agg.stall_time.to_seconds());
    if (opts.chaos)
      std::printf(
          "  self-healing: %llu reroutes, %llu restores, %llu failovers, "
          "router-down stall %.1fs\n",
          static_cast<unsigned long long>(agg.reroutes),
          static_cast<unsigned long long>(agg.route_restores),
          static_cast<unsigned long long>(agg.failovers),
          agg.router_down_stall.to_seconds());
    if (opts.repair().enabled())
      std::printf(
          "  repair: %llu packets recovered, %llu NACKs sent, %llu retx answered, "
          "%llu parity packets\n",
          static_cast<unsigned long long>(agg.packets_recovered),
          static_cast<unsigned long long>(agg.nacks_sent),
          static_cast<unsigned long long>(agg.retransmissions_sent),
          static_cast<unsigned long long>(agg.parity_packets));
    if (opts.multipath)
      std::printf("  multipath: %llu path switches, %llu NACKs suppressed\n",
                  static_cast<unsigned long long>(agg.path_switches),
                  static_cast<unsigned long long>(agg.nack_suppressed));
    const std::size_t ran = result.trials.size() - result.resumed;
    if (ran > 0 && wall_seconds > 0.0) {
      std::printf("  throughput: %zu trials in %.2fs wall = %.2f trials/sec (workers=%zu)\n",
                  ran, wall_seconds, static_cast<double>(ran) / wall_seconds,
                  result.workers);
    }
    if (result.manifest_torn_lines > 0)
      std::printf("  manifest: tolerated %zu torn trailing line(s) from an earlier crash\n",
                  result.manifest_torn_lines);
    if (opts.distributed) {
      std::printf("  fleet: %zu worker(s) lost, %zu restart(s), %zu trial(s) reassigned",
                  result.workers_lost, result.worker_restarts, result.reassigned_trials);
      if (result.reassigned_trials > 0)
        std::printf(" (%.1f ms mean reassignment latency)",
                    static_cast<double>(result.reassignment_latency_ns) / 1e6 /
                        static_cast<double>(result.reassigned_trials));
      if (result.degraded_to_in_process)
        std::printf(" — fleet died, degraded to in-process execution");
      std::printf("\n");
    }
    if (result.interrupted) {
      // The manifest already holds every committed trial (flushed line by
      // line) and the aggregate above folded them; a re-run with the same
      // --manifest resumes exactly where this stopped.
      std::printf("  interrupted: %zu/%zu trials committed; manifest is resume-clean\n",
                  result.trials.size(), trials);
      return 130;
    }
    {
      // Cross-trial distribution digest (deterministic: folded in commit
      // order from integer-count sketches, identical at any worker count;
      // resumed trials re-fold from the manifest, so a fully-resumed run
      // prints the same digest the original did).
      const std::string digest = result.telemetry.summary();
      if (!digest.empty()) {
        std::printf("  telemetry (%llu trials folded):\n",
                    static_cast<unsigned long long>(result.telemetry.trials_folded()));
        std::size_t start = 0;
        while (start < digest.size()) {
          const std::size_t end = digest.find('\n', start);
          std::printf("    %s\n", digest.substr(start, end - start).c_str());
          if (end == std::string::npos) break;
          start = end + 1;
        }
      }
    }
    for (const std::string& path : result.postmortem_paths)
      std::printf("  post-mortem: %s\n", path.c_str());
    if (!result.ok()) {
      exit_code = 1;
      std::printf("  quarantined seeds:");
      for (std::uint64_t seed : result.quarantined_seeds())
        std::printf(" %llu", static_cast<unsigned long long>(seed));
      std::printf("\n");
    }
  }
  return exit_code;
}

// --fleet N: the city-scale flyweight trial. Prints wall-clock throughput
// (the numbers BENCH_FLEET.json records via bench_fleet) plus the turbulence
// statistics; runs fully audited and, with --verify-determinism, twice.
int run_fleet_mode(const LabOptions& opts) {
  FleetConfig config;
  config.sessions = opts.fleet;
  config.seed = opts.seed;

  audit::Auditor auditor;
  config.auditor = &auditor;

  const auto wall_start = std::chrono::steady_clock::now();
  const FleetResult r = run_fleet(config);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf("fleet: %llu sessions, seed=%llu\n",
              static_cast<unsigned long long>(r.sessions),
              static_cast<unsigned long long>(opts.seed));
  std::printf("  sim time      %.2f s   wall %.3f s\n", r.sim_seconds,
              wall_seconds);
  std::printf("  throughput    %.0f sessions/s   %.0f events/s\n",
              wall_seconds > 0 ? static_cast<double>(r.sessions) / wall_seconds : 0.0,
              wall_seconds > 0 ? static_cast<double>(r.events_executed) / wall_seconds
                               : 0.0);
  std::printf("  events        %llu executed\n",
              static_cast<unsigned long long>(r.events_executed));
  std::printf("  packets       %llu sent, %llu delivered, %llu lost (%.2f%% delivered)\n",
              static_cast<unsigned long long>(r.packets_sent),
              static_cast<unsigned long long>(r.packets_delivered),
              static_cast<unsigned long long>(r.packets_lost),
              100.0 * r.delivery_ratio);
  std::printf("  rebuffering   %llu events across %llu sessions\n",
              static_cast<unsigned long long>(r.rebuffer_events),
              static_cast<unsigned long long>(r.sessions_rebuffered));
  std::printf("  table         %llu bytes (%.1f bytes/session)\n",
              static_cast<unsigned long long>(r.table_bytes), r.bytes_per_session);
  std::printf("  digest        %016llx\n",
              static_cast<unsigned long long>(r.digest));

  if (!auditor.report().clean()) {
    std::printf("  AUDIT VIOLATIONS:\n%s\n", auditor.report().summary().c_str());
    return 1;
  }
  std::printf("  audit         clean (%llu checks)\n",
              static_cast<unsigned long long>(auditor.report().checks_performed));

  if (opts.verify_determinism) {
    const FleetResult replay = run_fleet(config);
    if (replay.digest != r.digest || replay.events_executed != r.events_executed) {
      std::printf("  DETERMINISM VIOLATION: replay digest %016llx != %016llx\n",
                  static_cast<unsigned long long>(replay.digest),
                  static_cast<unsigned long long>(r.digest));
      return 1;
    }
    std::printf("  determinism   verified (replay digest matches)\n");
  }
  return 0;
}

/// Scenario mode: every catalog scenario of the selected mode (the link
/// impairments by default, --chaos and/or --multipath otherwise), then the
/// summaries and the CSV exports. A scenario that dies mid-flight still
/// flushes the rows of every scenario finished before it.
int run_scenario_mode(const ClipSet& set, const LabOptions& opts) {
  const auto selected = [&opts](ScenarioGroup group) {
    switch (group) {
      case ScenarioGroup::kImpairment: return !opts.chaos && !opts.multipath;
      case ScenarioGroup::kChaos: return opts.chaos;
      case ScenarioGroup::kMultipath: return opts.multipath;
    }
    return false;
  };
  const auto [real_clip, media_clip] = *set.pair(opts.tier);
  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;
  // One run: the WM/RM pair, or one player's clip when `clip` is set. Each
  // gets its own Obs, since sim time restarts at zero for every run.
  const auto run = [&](std::string name, const ClipInfo* clip, TurbulenceScenarioConfig cfg) {
    std::unique_ptr<obs::Obs> obs;
    if (!opts.trace_dir.empty()) {
      obs = std::make_unique<obs::Obs>();
      cfg.obs = obs.get();
    }
    runs.emplace_back(name, clip ? run_turbulence_clip(*clip, cfg)
                                 : run_turbulence_pair(set, opts.tier, cfg));
    if (obs) {
      const std::string dir = opts.trace_dir + "/" + name;
      const int files = obs::export_trace(*obs, dir);
      std::printf("trace: wrote %d files to %s\n", files, dir.c_str());
    }
  };
  try {
    for (const LabScenario& s : lab_scenarios(opts.repair())) {
      if (!selected(s.group)) continue;
      if (!s.per_player) {
        run(s.name, nullptr, s.config);
        continue;
      }
      for (const ClipInfo* clip : {&real_clip, &media_clip})
        run(std::string(s.name) + "-" + player_name(*clip), clip, s.config);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario failed after %zu completed run(s): %s\n", runs.size(),
                 e.what());
    const int written = export_turbulence(runs, opts.export_dir);
    std::fprintf(stderr, "flushed %d partial CSV file(s) to %s\n", written,
                 opts.export_dir.c_str());
    return 2;
  }
  for (const auto& [name, result] : runs) describe(name.c_str(), result);
  const int written = export_turbulence(runs, opts.export_dir);
  std::printf("wrote %d CSV files to %s\n", written, opts.export_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Expected<LabOptions> parsed = parse_lab_options(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n%s", parsed.error().c_str(), lab_usage().c_str());
    return 2;
  }
  const LabOptions& opts = *parsed;
  // Fleet mode stands alone: no clip catalog, no export dir — one loop,
  // N flyweight sessions.
  if (opts.fleet > 0) return run_fleet_mode(opts);

  const ClipSet& set = table1_catalog()[static_cast<std::size_t>(opts.set - 1)];
  if (!set.pair(opts.tier)) {
    std::fprintf(stderr, "set %d has no %s tier\n", opts.set, to_string(opts.tier).c_str());
    return 1;
  }

  // Hidden worker mode: we are a child of a --distributed coordinator.
  // Build the identical trial config (the hello handshake verifies the
  // digest) and speak the pipe protocol until shutdown.
  if (!opts.worker.empty()) {
    if (opts.campaign == 0) {
      std::fprintf(stderr, "--worker requires --campaign\n");
      return 1;
    }
    const auto [real_clip, media_clip] = *set.pair(opts.tier);
    return campaign::run_campaign_worker(
        lab_campaign_config(opts.worker == "media" ? media_clip : real_clip, opts));
  }

  if (opts.campaign > 0) return run_campaign_mode(set, opts, argc, argv);
  return run_scenario_mode(set, opts);
}
