// Workload `campaign`: turbulence_lab's campaign scenario on set 1 high.
//
// Why: an 8-hop path with a 25 s Gilbert-Elliott burst-loss episode at
// 20 s, FEC k=8 plus NACK, sampled audit, telemetry and a manifest — the
// sim faults, players repair and stall path, the executor, committer,
// manifest and telemetry fold all do real work here and almost none in
// `study`. The event queue is shallow (~10^2 pending). The same seeds run
// three ways — (a) the thread pool writing the manifest, (b) process
// workers, (c) a resume from (a)'s manifest — so the core/campaign executor
// layer is used three ways and a change cannot speed one up while slowing
// another without the benchmark showing it.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "campaign/distributed.hpp"
#include "campaign/worker.hpp"
#include "core/campaign.hpp"
#include "media/catalog.hpp"

namespace perfbench {

using namespace streamlab;

namespace {

/// Trials per player per campaign run.
constexpr std::size_t kTrials = 32;
/// Trials of each player replayed serially, with and without an Obs, by
/// the traced run: indices 0, 8, 16, 24.
constexpr std::size_t kReplayStride = 8;

ClipInfo set1_high(bool media) {
  const auto pair = table1_catalog().front().pair(RateTier::kHigh);
  return media ? pair->second : pair->first;
}

std::uint64_t base_seed_for(std::uint64_t seed) { return seed * 1000 + 1; }

/// turbulence_lab's campaign scenario (`--campaign N --fec 8 --nack`).
/// Coordinator and process workers build it through this one function, so
/// the config digests they exchange agree.
CampaignConfig campaign_config(bool media, std::uint64_t base_seed) {
  CampaignConfig cfg;
  cfg.clip = set1_high(media);
  cfg.trials = kTrials;
  cfg.base_seed = base_seed;
  cfg.scenario.path.hop_count = 8;
  cfg.scenario.path.one_way_propagation = Duration::millis(20);
  cfg.scenario.recovery.inactivity_timeout = Duration::seconds(8);
  cfg.scenario.repair_layer.fec_k = 8;
  cfg.scenario.repair_layer.fec_stride = 4;
  cfg.scenario.repair_layer.nack = true;
  FaultEpisode burst;
  burst.kind = FaultKind::kBurstLoss;
  burst.start = SimTime::from_seconds(20.0);
  burst.duration = Duration::seconds(25);
  burst.gilbert = GilbertElliottConfig{0.05, 0.25, 0.0, 0.6};
  burst.label = "burst-loss";
  cfg.scenario.episodes.push_back(burst);
  cfg.scenario.max_sim_events = 50'000'000;
  cfg.scenario.max_wall_time = std::chrono::seconds(120);
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

bool same_aggregate(const CampaignAggregate& a, const CampaignAggregate& b) {
  return a.trials == b.trials && a.sessions == b.sessions &&
         a.sessions_completed == b.sessions_completed &&
         a.sessions_failed == b.sessions_failed && a.frames_rendered == b.frames_rendered &&
         a.frames_dropped == b.frames_dropped && a.packets_received == b.packets_received &&
         a.packets_lost == b.packets_lost && a.rebuffer_events == b.rebuffer_events &&
         a.stall_time == b.stall_time && a.packets_recovered == b.packets_recovered &&
         a.nacks_sent == b.nacks_sent && a.retransmissions_sent == b.retransmissions_sent &&
         a.parity_packets == b.parity_packets;
}

struct Replay {
  std::uint64_t digest = 0;
  double wall_s = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<double> queue_depths;
};

/// Runs trial `index` of `config` serially, exactly as run_trial does, with
/// an optional Obs attached.
Replay replay_trial(const CampaignConfig& config, std::size_t index, bool with_obs) {
  std::unique_ptr<obs::Obs> obs;
  if (with_obs) obs = std::make_unique<obs::Obs>();
  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  TurbulenceScenarioConfig scenario = config.scenario;
  scenario.seed = config.base_seed + index;
  scenario.auditor = &auditor;
  scenario.probe = &probe;
  scenario.obs = obs.get();
  Replay r;
  const auto t0 = Clock::now();
  run_turbulence_clip(config.clip, scenario);
  r.wall_s = seconds_since(t0);
  r.digest = probe.digest();
  if (obs) {
    r.counters = obs->registry().counters();
    const obs::Tracer& tracer = obs->tracer();
    tracer.for_each([&](const obs::TraceRecord& rec) {
      if (rec.kind == obs::RecordKind::kCounter &&
          tracer.string(rec.name) == "loop.queue_depth")
        r.queue_depths.push_back(rec.value);
    });
  }
  return r;
}

std::uint64_t counter(const Replay& r, const std::string& name) {
  for (const auto& [n, v] : r.counters)
    if (n == name) return v;
  return 0;
}

}  // namespace

int campaign_worker_main(int argc, char** argv) {
  // perfbench --campaign-worker <real|media> <base_seed>
  if (argc != 4) return 2;
  const bool media = std::string(argv[2]) == "media";
  return campaign::run_campaign_worker(
      campaign_config(media, std::strtoull(argv[3], nullptr, 10)));
}

Report run_campaign(const Options& options, SpanRecorder& spans) {
  Report report;
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t base = base_seed_for(options.seed);
  const std::string dir = options.out_dir + "/campaign-seed" + std::to_string(options.seed);
  std::filesystem::create_directories(dir);

  std::vector<CampaignConfig> configs;
  const double setup_s = median_setup_seconds(5, [&] {
    configs = {campaign_config(false, base), campaign_config(true, base)};
    // Warm-up unit, discarded: one serial trial of the scenario.
    CampaignConfig warm = configs.back();
    warm.trials = 1;
    warm.workers = 1;
    report.check(run_campaign(warm).ok(), "warm-up trial was quarantined");
  });

  UnitTimes times;
  std::vector<double> pool_rate, proc_rate, resume_rate, trial_ms, untraced_s, traced_s;
  double pool_busy_ns = 0.0, pool_capacity_ns = 0.0;
  std::uint64_t packets = 0, pool_packets = 0, pool_allocs = 0, manifest_bytes = 0;
  std::uint64_t checks = 0, sim_events = 0, nacks = 0, retx = 0, parity = 0, rebuffers = 0;
  std::uint64_t recovered = 0, pool_trials = 0, workers_lost = 0, reassigned = 0;
  // Rep 0's digests: per player, each pool trial's digest followed by the
  // player's telemetry digest.
  std::vector<std::uint64_t> first_digests;
  const auto rep = [&](std::size_t r) {
    if (options.trace) spans.set_enabled(r % 2 == 1);
    double wall_a = 0.0, wall_b = 0.0, wall_c = 0.0;
    std::vector<std::uint64_t> digests;
    for (const CampaignConfig& shape : configs) {
      const bool media = shape.clip.player == PlayerKind::kMediaPlayer;
      const std::string player = media ? "media" : "real";

      CampaignConfig pool = shape;
      pool.workers = workers;
      pool.manifest_path = dir + "/pool-" + player + ".ndjson";
      std::filesystem::remove(pool.manifest_path);
      const std::uint64_t alloc0 = allocations();
      auto t0 = Clock::now();
      const CampaignResult a = timed(times, "pool/" + player, false, [&] {
        auto s = spans.span("core.run_campaign.pool");
        return run_campaign(pool);
      });
      wall_a += seconds_since(t0);
      pool_allocs += allocations() - alloc0;

      CampaignConfig proc = shape;
      proc.manifest_path = dir + "/proc-" + player + ".ndjson";
      std::filesystem::remove(proc.manifest_path);
      campaign::DistributedOptions opts;
      opts.worker_argv = {options.exe_path, "--campaign-worker", player, std::to_string(base)};
      opts.workers = workers;
      opts.trial_deadline = std::chrono::milliseconds(150'000);
      t0 = Clock::now();
      const CampaignResult b = timed(times, "proc/" + player, true, [&] {
        auto s = spans.span("campaign.run_distributed");
        return campaign::run_distributed_campaign(proc, opts);
      });
      wall_b += seconds_since(t0);

      t0 = Clock::now();
      const CampaignResult c = timed(times, "resume/" + player, false, [&] {
        auto s = spans.span("core.run_campaign.resume");
        return run_campaign(pool);
      });
      wall_c += seconds_since(t0);

      const std::string pool_manifest = read_file(pool.manifest_path);
      report.attempted += 2 * kTrials;
      report.failed += a.quarantined + b.quarantined;
      report.check(a.ok() && a.completed == kTrials, player + ": pool run quarantined trials");
      report.check(b.ok() && b.completed == kTrials,
                   player + ": process run quarantined trials");
      report.check(pool_manifest == read_file(proc.manifest_path),
                   player + ": pool and process manifests differ");
      report.check(a.telemetry.serialize() == b.telemetry.serialize(),
                   player + ": pool and process telemetry differ");
      report.check(c.resumed == kTrials && c.completed == kTrials,
                   player + ": resume did not restore every trial");
      report.check(same_aggregate(a.aggregate, c.aggregate),
                   player + ": resumed aggregate differs from the pool's");

      for (const TrialOutcome& t : a.trials) {
        digests.push_back(t.digest);
        trial_ms.push_back(static_cast<double>(t.wall_ns) / 1e6);
        pool_busy_ns += static_cast<double>(t.wall_ns);
        checks += t.checks;
        sim_events += t.sim_events;
      }
      pool_packets += a.aggregate.packets_received;
      if (r == 0) packets += a.aggregate.packets_received + b.aggregate.packets_received;
      manifest_bytes += pool_manifest.size();
      nacks += a.aggregate.nacks_sent;
      retx += a.aggregate.retransmissions_sent;
      parity += a.aggregate.parity_packets;
      rebuffers += a.aggregate.rebuffer_events;
      recovered += a.aggregate.packets_recovered;
      pool_trials += kTrials;
      workers_lost += b.workers_lost;
      reassigned += b.reassigned_trials;
      digests.push_back(hash_bytes(a.telemetry.serialize()));
    }
    pool_capacity_ns += static_cast<double>(workers) * wall_a * 1e9;
    if (r == 0) {
      first_digests = digests;
    } else {
      report.check(digests == first_digests,
                   "trial or telemetry digests differ between repetitions");
    }
    const double trials = static_cast<double>(2 * kTrials);
    pool_rate.push_back(trials / wall_a);
    proc_rate.push_back(trials / wall_b);
    resume_rate.push_back(trials / wall_c);
    (spans.enabled() ? traced_s : untraced_s).push_back(wall_a + wall_b + wall_c);
  };
  const std::size_t reps = repeat_for(options.seconds, 2, rep);
  spans.set_enabled(options.trace);
  for (const std::uint64_t d : first_digests) report.result_digest = mix(report.result_digest, d);

  const std::string scaled = "; host-scaled medians over " + std::to_string(reps) + " repetitions";
  const double trials = static_cast<double>(2 * kTrials);
  report.metric("setup_s", setup_s, "s", "median of 5 set-ups (configs + one serial trial)");
  report.metric("units_per_s", trials / times.wall("pool/"), "1/s",
                "trials per second on the " + std::to_string(workers) + "-thread pool" + scaled);
  report.metric("sim_packets_per_cpu_s", static_cast<double>(packets) / times.cpu(), "1/s",
                std::to_string(packets) + " packets at client NICs in runs (a)+(b) / " +
                    std::to_string(times.cpu()) + " CPU s of (a)+(b)+(c) incl. worker processes" +
                    scaled);
  report.metric("allocs_per_packet",
                static_cast<double>(pool_allocs) / static_cast<double>(pool_packets), "count",
                "pool run (a): " + std::to_string(pool_allocs) + " allocations");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes.push_back(rep_line("trials_per_s", pool_rate));
  report.notes.push_back(rep_line("proc_trials_per_s", proc_rate));
  report.notes.push_back(rep_line("resume_trials_per_s", resume_rate));
  report.notes.push_back("host-scaled trials/s: pool " +
                         std::to_string(trials / times.wall("pool/")) + "  proc " +
                         std::to_string(trials / times.wall("proc/")) + "  resume " +
                         std::to_string(trials / times.wall("resume/")) +
                         "  (reference kernel median " +
                         std::to_string(times.median_kernel_seconds() * 1e3) + " ms)");

  if (!options.trace) return report;

  add_overhead_layer(report, untraced_s, traced_s);
  const auto tail = tail_percentile(trial_ms);
  report.layer("core.unit_ms.p50", median(trial_ms), "ms",
               "pool trial wall (TrialOutcome::wall_ns), " + std::to_string(trial_ms.size()) +
                   " trials");
  if (tail)
    report.notes.push_back("core.trial_ms." + percentile_label(tail->q) + "     " +
                           std::to_string(tail->value) + " (n=" +
                           std::to_string(tail->samples) + ")");
  const double per_trial = static_cast<double>(std::max<std::uint64_t>(pool_trials, 1));
  report.layer("sim.audit_checks_per_event",
               Ratio{static_cast<double>(checks), static_cast<double>(sim_events)}.value(),
               "ratio", std::to_string(checks) + " checks / " + std::to_string(sim_events) +
                            " events");
  const Ratio useful{static_cast<double>(recovered), static_cast<double>(retx + parity)};
  report.layer("players.repair_useful_ratio", useful.value(), "ratio",
               std::to_string(recovered) + " recovered / " + std::to_string(retx + parity) +
                   " retransmissions + parity");
  report.layer("players.nacks_per_trial", static_cast<double>(nacks) / per_trial, "count");
  report.layer("players.retx_per_trial", static_cast<double>(retx) / per_trial, "count");
  report.layer("players.parity_per_trial", static_cast<double>(parity) / per_trial, "count");
  report.layer("players.rebuffers_per_trial", static_cast<double>(rebuffers) / per_trial,
               "count");
  report.layer("core.pool_busy_ratio", Ratio{pool_busy_ns, pool_capacity_ns}.value(), "ratio",
               "sum of trial wall / (" + std::to_string(workers) + " workers x pool wall)");
  report.layer("core.manifest_bytes_per_trial", static_cast<double>(manifest_bytes) / per_trial,
               "B");
  report.layer("campaign.proc_vs_pool_ratio", median(proc_rate) / median(pool_rate), "ratio",
               "process-worker trials/s over pool trials/s");
  report.layer("campaign.workers_lost", static_cast<double>(workers_lost), "count");
  report.layer("campaign.reassigned_trials", static_cast<double>(reassigned), "count");
  report.notes.push_back("core.resume_us_per_trial " +
                         std::to_string(1e6 / median(resume_rate)));

  // Traced replay: a fixed sample of the seeds, serially, with an Obs.
  const PoolSnapshot pools_before = PoolSnapshot::take();
  std::vector<Replay> traced;
  std::vector<double> obs_wall, plain_wall;
  for (std::size_t p = 0; p < configs.size(); ++p) {
    for (std::size_t i = 0; i < kTrials; i += kReplayStride) {
      Replay with = [&] {
        auto s = spans.span("core.replay_trial.obs");
        return replay_trial(configs[p], i, true);
      }();
      const Replay without = [&] {
        auto s = spans.span("core.replay_trial");
        return replay_trial(configs[p], i, false);
      }();
      const std::uint64_t pool_digest = first_digests[p * (kTrials + 1) + i];
      report.check(with.digest == pool_digest && without.digest == pool_digest,
                   "replay of trial " + std::to_string(i) + " differs from its pool digest");
      obs_wall.push_back(with.wall_s);
      plain_wall.push_back(without.wall_s);
      traced.push_back(std::move(with));
    }
  }
  add_pool_layers(report, pools_before, PoolSnapshot::take());
  report.notes.push_back("core.replay_trial_ms.p50 " + std::to_string(median(plain_wall) * 1e3));
  report.layer("obs.overhead_ratio", median(obs_wall) / median(plain_wall) - 1.0, "ratio",
               "serial replay with Obs vs without, " + std::to_string(plain_wall.size()) +
                   " trials each");
  const double n = static_cast<double>(traced.size());
  const auto mean_counter = [&](const std::string& name) {
    double sum = 0.0;
    for (const Replay& r : traced) sum += static_cast<double>(counter(r, name));
    return sum / n;
  };
  report.layer("sim.events_per_trial", mean_counter("loop.events_fired"), "count",
               "loop.fired over " + std::to_string(traced.size()) + " replayed trials");
  for (const char* category : {"link", "playout", "control", "fault", "timer"})
    report.layer(std::string("sim.events.") + category + "_per_trial",
                 mean_counter(std::string("loop.fired.") + category), "count");
  std::vector<double> depths;
  for (const Replay& r : traced)
    depths.insert(depths.end(), r.queue_depths.begin(), r.queue_depths.end());
  report.layer("sim.queue_depth.p50", median(depths), "count",
               std::to_string(depths.size()) + " loop.queue_depth samples");
  report.layer("sim.queue_depth.max",
               depths.empty() ? 0.0 : *std::max_element(depths.begin(), depths.end()), "count");

  ProbeInputs probe;
  probe.encode_seed = base;  // trial 0's seed: the clip the campaign streams
  probe.frame_bytes = set1_mh_median_frame_bytes(base);
  probe.capture_seed = options.seed;
  add_probe_layers(report, probe, spans);
  return report;
}

}  // namespace perfbench
