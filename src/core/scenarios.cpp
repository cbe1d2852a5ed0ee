#include "core/scenarios.hpp"

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "util/strings.hpp"

namespace streamlab {

TurbulenceScenarioConfig lab_base_config() {
  TurbulenceScenarioConfig cfg;
  cfg.path.hop_count = 8;
  cfg.path.one_way_propagation = Duration::millis(20);
  cfg.seed = 42;
  cfg.recovery.inactivity_timeout = Duration::seconds(8);
  return cfg;
}

std::vector<LabScenario> lab_scenarios(const RepairLayerConfig& repair) {
  const auto at = [](double seconds) { return SimTime::from_seconds(seconds); };
  const auto sec = [](std::int64_t seconds) { return Duration::seconds(seconds); };
  const auto with = [&repair](std::vector<FaultEpisode> episodes) {
    TurbulenceScenarioConfig cfg = lab_base_config();
    cfg.repair_layer = repair;
    cfg.episodes = std::move(episodes);
    return cfg;
  };
  using G = ScenarioGroup;
  std::vector<LabScenario> catalog;

  // A 4 s link flap at t=30s: shorter than the delay buffers, so both
  // players should ride it out and complete playback.
  catalog.push_back({"short-outage", G::kImpairment, false,
                     with({FaultEpisode::outage(at(30.0), sec(4), "short-flap")})});
  // A 30 s outage: longer than the 8 s inactivity window, so the watchdogs
  // must declare both streams dead instead of hanging.
  catalog.push_back({"long-outage", G::kImpairment, false,
                     with({FaultEpisode::outage(at(30.0), sec(30), "long-outage")})});
  // A Gilbert–Elliott burst-loss epoch (congested peering point): pi_bad
  // ~16.7%, mean loss ~10%, mean burst length 4.
  catalog.push_back(
      {"burst-loss", G::kImpairment, false,
       with({FaultEpisode::burst_loss(at(20.0), sec(25),
                                      GilbertElliottConfig{0.05, 0.25, 0.0, 0.6})})});
  // A congestion dip: bottleneck throttled to 200 Kbps, then extra delay.
  catalog.push_back(
      {"congestion-dip", G::kImpairment, false,
       with({FaultEpisode::bandwidth_dip(at(25.0), sec(15), BitRate::kbps(200),
                                         "congestion-dip"),
             FaultEpisode::delay_spike(at(40.0), sec(10), Duration::millis(150),
                                       "delay-spike")})});

  // Router 3 dies mid-stream on a path with a detour bridging span [3,4];
  // the repair plane reroutes within detection delay + hold-down and
  // converges back when the router returns.
  LabScenario reroute{"router-down-reroute", G::kChaos, false,
                      with({FaultEpisode::router_down(at(30.0), sec(10), 3)})};
  reroute.config.path.detour = DetourConfig{3, 4, 2, 10};
  reroute.config.repair = RouteRepairConfig{};
  reroute.config.mirror_server = true;  // dormant backstop; the detour should win
  catalog.push_back(std::move(reroute));

  // The same failure without a detour. The repair plane still withdraws
  // the span's primaries, so the boundary routers answer with Destination
  // Unreachable instead of black-holing; the client fails over to the
  // mirror and resumes once the outage clears.
  LabScenario failover{"router-down-failover", G::kChaos, true,
                       with({FaultEpisode::router_down(at(30.0), sec(20), 3)})};
  failover.config.repair = RouteRepairConfig{};
  failover.config.repair_span_first = 3;
  failover.config.repair_span_last = 4;
  failover.config.mirror_server = true;
  // Enough PLAY budget (exponential backoff from 500 ms) to span the 20 s
  // outage after the ~8 s watchdog triggers the failover.
  failover.config.recovery.max_play_attempts = 8;
  catalog.push_back(std::move(failover));

  // Asymmetric-capacity striping (the chain carries twice the detour's
  // share) while the detour's first router flaps: three down/up cycles the
  // health estimator must ride by draining subflow 1 onto the chain and
  // re-admitting it after each hold-down. The mirror stays dormant: flap
  // survival means zero failovers.
  LabScenario flap{"multipath-flap", G::kMultipath, true,
                   with({FaultEpisode::detour_down(at(25.0), sec(6), 0),
                         FaultEpisode::detour_down(at(37.0), sec(6), 0),
                         FaultEpisode::detour_down(at(49.0), sec(6), 0)})};
  flap.config.path.detour = DetourConfig{3, 4, 2, 10};
  flap.config.repair = RouteRepairConfig{};
  flap.config.mirror_server = true;
  flap.config.multipath.enabled = true;
  flap.config.multipath.primary_weight = 2;
  flap.config.multipath.detour_weight = 1;
  // Striping's intended operating point includes NACK repair: media striped
  // onto the flapping path before each drain is re-requested over the
  // surviving chain (the reorder-tolerance window keeps cross-path skew
  // from spraying spurious NACKs).
  flap.config.repair_layer.nack = true;
  catalog.push_back(std::move(flap));
  return catalog;
}

TurbulenceScenarioConfig lab_scenario(std::string_view name, const RepairLayerConfig& repair) {
  for (LabScenario& s : lab_scenarios(repair))
    if (name == s.name) return std::move(s.config);
  throw std::out_of_range("no lab scenario named " + std::string(name));
}

CampaignConfig tiny_campaign_config(std::size_t trials, std::uint64_t base_seed,
                                    Duration clip_length) {
  CampaignConfig config;
  config.clip.data_set = 1;
  config.clip.content = ContentClass::kNews;
  config.clip.player = PlayerKind::kRealPlayer;
  config.clip.tier = RateTier::kLow;
  config.clip.encoded_rate = BitRate::kbps(33);
  config.clip.advertised_rate = BitRate::kbps(56);
  config.clip.length = clip_length;
  config.trials = trials;
  config.base_seed = base_seed;
  config.scenario.path.hop_count = 2;
  config.scenario.path.one_way_propagation = Duration::millis(5);
  config.scenario.extra_sim_time = Duration::seconds(5);
  config.scenario.episodes.push_back(
      FaultEpisode::outage(SimTime::from_seconds(1.0), Duration::millis(500), "flap"));
  return config;
}

RepairLayerConfig LabOptions::repair() const {
  RepairLayerConfig r;
  if (fec > 0) {
    r.fec_k = static_cast<int>(fec);
    // Interleave depth 4: the burst-loss regime's mean burst length, so a
    // whole burst lands in distinct parity rows and stays recoverable.
    r.fec_stride = 4;
  }
  r.nack = nack;
  return r;
}

namespace {

constexpr std::uint64_t kUnbounded = UINT64_MAX;

/// One row of the flag table. A switch targets a bool; a value flag
/// targets a string or a number, the number range-checked into [min, max].
struct LabFlag {
  const char* name;
  std::variant<bool LabOptions::*, std::string LabOptions::*, std::uint64_t LabOptions::*,
               std::optional<std::uint64_t> LabOptions::*>
      target;
  const char* metavar;  ///< value placeholder in the usage; null for a switch
  const char* help;     ///< null hides the flag from the usage
  std::uint64_t min = 0;
  std::uint64_t max = kUnbounded;
};

const LabFlag kFlags[] = {
    {"--trace", &LabOptions::trace_dir, "<dir>", "per-scenario trace and metrics under <dir>"},
    {"--chaos", &LabOptions::chaos, nullptr, "router-failure reroute and failover scenarios"},
    {"--multipath", &LabOptions::multipath, nullptr, "striping through a flapping detour"},
    {"--fec", &LabOptions::fec, "<k>", "one XOR parity packet per k data packets", 1, 64},
    {"--nack", &LabOptions::nack, nullptr, "retransmit sequence gaps on request"},
    {"--campaign", &LabOptions::campaign, "<N>", "N audited trials per player", 0, 1'000'000},
    {"--workers", &LabOptions::workers, "<N>", "campaign workers, 0 = one per CPU", 0, 256},
    {"--verify-determinism", &LabOptions::verify_determinism, nullptr,
     "run every trial (or the fleet) twice"},
    {"--manifest", &LabOptions::manifest, "<path>", "resume manifest <path>.{real,media}"},
    {"--seed", &LabOptions::seed, "<base>", "first trial's seed, or the fleet seed"},
    {"--progress-every", &LabOptions::progress_every, "<n>",
     "campaign progress line every n trials"},
    {"--plant-quarantine", &LabOptions::plant_quarantine, "<index>",
     "force an audit violation in that trial"},
    {"--distributed", &LabOptions::distributed, nullptr, "campaign trials on worker processes"},
    {"--max-worker-restarts", &LabOptions::max_worker_restarts, "<n>",
     "respawns allowed per worker slot"},
    {"--kill-worker-after", &LabOptions::kill_worker_after, "<n>",
     "SIGKILL worker 0 after n results"},
    {"--fleet", &LabOptions::fleet, "<N>", "N flyweight sessions on one loop", 1, 10'000'000},
    {"--worker", &LabOptions::worker, "<player>", nullptr},
};

std::string range_text(std::uint64_t min, std::uint64_t max) {
  return max == kUnbounded ? "a whole number"
                           : std::to_string(min) + ".." + std::to_string(max);
}

/// All of `text` as a decimal in [min, max].
std::optional<std::uint64_t> parse_in_range(std::string_view text, std::uint64_t min,
                                            std::uint64_t max) {
  const auto value = parse_number<std::uint64_t>(text);
  if (!value || *value < min || *value > max) return std::nullopt;
  return value;
}

/// Applies one flag, consuming its value from argv; returns the usage
/// fault, empty when none.
std::string apply_flag(const LabFlag& flag, LabOptions& options, int argc,
                       const char* const* argv, int& i) {
  return std::visit(
      [&](auto field) -> std::string {
        using T = std::remove_reference_t<decltype(options.*field)>;
        if constexpr (std::is_same_v<T, bool>) {
          options.*field = true;
          return {};
        } else {
          if (i + 1 >= argc) return std::string(flag.name) + " needs a value";
          const std::string_view value = argv[++i];
          if constexpr (std::is_same_v<T, std::string>) {
            options.*field = value;
          } else {
            const auto number = parse_in_range(value, flag.min, flag.max);
            if (!number)
              return std::string(flag.name) + " takes " + range_text(flag.min, flag.max) +
                     ", not '" + std::string(value) + "'";
            options.*field = *number;
          }
          return {};
        }
      },
      flag.target);
}

}  // namespace

Expected<LabOptions> parse_lab_options(int argc, const char* const* argv) {
  LabOptions options;
  std::vector<std::string_view> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional.push_back(arg);
      continue;
    }
    const LabFlag* flag = nullptr;
    for (const LabFlag& f : kFlags)
      if (arg == f.name) flag = &f;
    if (flag == nullptr) return Unexpected("unknown flag " + std::string(arg));
    if (std::string fault = apply_flag(*flag, options, argc, argv, i); !fault.empty())
      return Unexpected(std::move(fault));
  }

  if (positional.size() > 3)
    return Unexpected("unexpected argument '" + std::string(positional[3]) + "'");
  if (positional.size() > 0) {
    const auto set = parse_in_range(positional[0], 1, 6);
    if (!set) return Unexpected("set must be 1..6, not '" + std::string(positional[0]) + "'");
    options.set = static_cast<int>(*set);
  }
  if (positional.size() > 1) {
    const RateTier tiers[] = {RateTier::kLow, RateTier::kHigh, RateTier::kVeryHigh};
    const RateTier* tier = std::find_if(std::begin(tiers), std::end(tiers), [&](RateTier t) {
      return positional[1] == to_string(t);
    });
    if (tier == std::end(tiers))
      return Unexpected("tier must be low, high or very-high, not '" +
                        std::string(positional[1]) + "'");
    options.tier = *tier;
  }
  if (positional.size() > 2) options.export_dir = positional[2];
  if (!options.worker.empty() && options.worker != "media" && options.worker != "real")
    return Unexpected("--worker takes media or real, not '" + options.worker + "'");
  return options;
}

std::string lab_usage() {
  std::string usage =
      "usage: turbulence_lab [set 1-6] [low|high|very-high] [export-dir] [flags]\n";
  for (const LabFlag& flag : kFlags) {
    if (flag.help == nullptr) continue;
    std::string left = std::string("  ") + flag.name;
    if (flag.metavar != nullptr) left += std::string(" ") + flag.metavar;
    usage += pad_right(left, 30) + flag.help;
    if (flag.max != kUnbounded)
      usage += " (" + range_text(flag.min, flag.max) + ")";
    usage += '\n';
  }
  return usage;
}

CampaignConfig lab_campaign_config(const ClipInfo& clip, const LabOptions& options) {
  CampaignConfig cfg;
  cfg.clip = clip;
  cfg.trials = options.campaign;
  cfg.base_seed = options.seed;
  cfg.verify_determinism = options.verify_determinism;
  // Multipath trials take precedence over chaos trials.
  cfg.scenario = lab_scenario(options.multipath ? "multipath-flap"
                              : options.chaos   ? "router-down-reroute"
                                                : "burst-loss",
                              options.repair());
  // Budgets: generous enough that healthy trials never hit them, tight
  // enough that a runaway trial is truncated instead of hanging the lab.
  cfg.scenario.max_sim_events = 50'000'000;
  cfg.scenario.max_wall_time = std::chrono::seconds(120);
  if (options.plant_quarantine) {
    cfg.fault_hook = [planted = *options.plant_quarantine](
                         audit::Auditor& auditor, std::size_t index, std::uint64_t) {
      if (index == planted) auditor.force_violation("planted by --plant-quarantine");
    };
  }
  return cfg;
}

namespace {

/// SIGINT/SIGTERM set it; std::atomic<bool> is lock-free here, so the
/// handler is async-signal-safe.
std::atomic<bool> g_stop_requested{false};

extern "C" void request_stop(int) { g_stop_requested.store(true); }

}  // namespace

const std::atomic<bool>* cancel_on_stop_signals() {
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  return &g_stop_requested;
}

}  // namespace streamlab
