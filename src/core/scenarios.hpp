// The turbulence lab's scenario catalog and command line.
//
// Every scripted-turbulence scenario the lab runs is defined here once: the
// base path (8 hops of 20 ms one way, seed 42, an 8 s inactivity watchdog),
// the four link-impairment scenarios, the three self-healing ones and the
// campaign trial scenario, plus the tiny campaign the campaign tests and
// benches run. turbulence_lab, the integration tests and the benches all
// build from this table; a test whose subject is a different config states
// its differences as overrides on lab_base_config().
//
// turbulence_lab's flags are one table too: it drives parse_lab_options()
// and prints lab_usage(). Every number is parsed over the whole token with
// a range check, so a malformed or out-of-range value is a usage error, not
// a silent 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/turbulence.hpp"
#include "util/expected.hpp"

namespace streamlab {

/// The lab's path and session: 8 hops of 20 ms one way, seed 42, an 8 s
/// inactivity watchdog. No episodes, no repair layer.
TurbulenceScenarioConfig lab_base_config();

/// The lab mode that runs a catalog scenario.
enum class ScenarioGroup {
  kImpairment,  ///< default: link impairments on the bottleneck
  kChaos,       ///< --chaos: router failure, reroute and mirror failover
  kMultipath,   ///< --multipath: striping through a flapping detour
};

struct LabScenario {
  const char* name;
  ScenarioGroup group;
  /// Runs once per player, each on its own server (mirror and multipath
  /// sessions are single-server), named `<name>-real` / `<name>-media`;
  /// otherwise runs as the WM/RM pair.
  bool per_player;
  TurbulenceScenarioConfig config;
};

/// The catalog in run order, with `repair` as every scenario's loss-repair
/// layer (the multipath flap adds NACK on top).
std::vector<LabScenario> lab_scenarios(const RepairLayerConfig& repair = {});

/// One catalog scenario by name. Throws std::out_of_range for a name the
/// catalog lacks.
TurbulenceScenarioConfig lab_scenario(std::string_view name,
                                      const RepairLayerConfig& repair = {});

/// The tiny campaign the campaign tests and benches share: a RealPlayer
/// news clip of `clip_length` at 33 Kbps over 2 hops of 5 ms, with one
/// 500 ms outage at t=1s, so each trial exercises faults, recovery and
/// fragmentation in milliseconds of CPU.
CampaignConfig tiny_campaign_config(std::size_t trials, std::uint64_t base_seed,
                                    Duration clip_length = Duration::seconds(5));

/// turbulence_lab's command line: three positionals, then the flags of the
/// table lab_usage() prints.
struct LabOptions {
  int set = 1;
  RateTier tier = RateTier::kLow;
  std::string export_dir = "streamlab_turbulence";

  std::string trace_dir;
  bool chaos = false;
  bool multipath = false;
  std::uint64_t fec = 0;  ///< data packets per parity packet; 0 = no FEC
  bool nack = false;
  std::uint64_t campaign = 0;  ///< trials per player; 0 = scenario mode
  std::uint64_t workers = 0;   ///< 0 = one per hardware thread
  bool verify_determinism = false;
  std::string manifest;
  std::uint64_t seed = 1;
  std::uint64_t progress_every = 0;
  std::optional<std::uint64_t> plant_quarantine;
  bool distributed = false;
  std::uint64_t max_worker_restarts = 2;
  std::uint64_t kill_worker_after = 0;
  std::uint64_t fleet = 0;  ///< flyweight sessions; 0 = no fleet
  std::string worker;       ///< hidden: "media" or "real" in a worker child

  /// The loss-repair layer --fec/--nack select.
  RepairLayerConfig repair() const;
};

/// Parses turbulence_lab's argv. The error is one line naming the usage
/// fault: an unknown flag, a missing value, a malformed or out-of-range
/// value, or a surplus or invalid positional.
Expected<LabOptions> parse_lab_options(int argc, const char* const* argv);

/// The usage text, one line per flag of the table.
std::string lab_usage();

/// The campaign trial config for one clip: the multipath flap under
/// --multipath, else the chaos reroute under --chaos, else the burst-loss
/// epoch, with per-trial budgets. The coordinator and every re-exec'd
/// --worker child build it here, so their config digests agree.
CampaignConfig lab_campaign_config(const ClipInfo& clip, const LabOptions& options);

/// Installs SIGINT/SIGTERM handlers that set one process-wide flag and
/// returns it, for CampaignConfig::cancel.
const std::atomic<bool>* cancel_on_stop_signals();

}  // namespace streamlab
