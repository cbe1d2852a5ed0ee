// Turbulence scenario harness: the paper's comparison methodology run under
// *scripted* network turbulence instead of a stationary path. A scenario
// streams a clip (or a WM-vs-RM pair, Section 2.A) while a FaultScheduler
// plays impairment episodes — link flaps, burst-loss epochs, congestion
// (bandwidth) dips, delay spikes — onto the bottleneck link, then reports
// how each player's session machinery (delay buffer, PLAY retries,
// inactivity watchdog) survived: recovery time, rebuffering, frames lost
// during vs. after the episode, and sessions abandoned.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "players/multipath.hpp"
#include "players/repair.hpp"
#include "sim/audit.hpp"
#include "sim/faults.hpp"
#include "sim/repair.hpp"

namespace streamlab {

struct TurbulenceScenarioConfig {
  PathConfig path;
  std::uint64_t seed = 1;
  /// Optional observability context; when set it is attached to the run's
  /// network before any session is constructed, so metric handles and trace
  /// tracks cover the whole timeline. One Obs per run — SimTime restarts at
  /// zero for every scenario.
  obs::Obs* obs = nullptr;
  /// Optional invariant auditor (sim/audit.hpp): attached to the run's loop
  /// and links before any session starts, fed the trial-end conservation
  /// ledgers after the loop drains. One fresh Auditor per scenario run; when
  /// `obs` is also set the audit counters are registered on it.
  audit::Auditor* auditor = nullptr;
  /// Optional determinism probe, folded over every packet reaching a client
  /// NIC. Two runs of the same seed must produce equal digests.
  audit::DeterminismProbe* probe = nullptr;
  /// Per-trial sim-event budget; 0 = unlimited. A trial that exhausts it
  /// stops where it stands (TurbulenceRunResult::budget_exhausted) — the
  /// collected metrics cover the truncated timeline, and link conservation
  /// still balances because the ledger counts queued and in-flight packets.
  std::uint64_t max_sim_events = 0;
  /// Per-trial wall-clock budget; zero = unlimited. Checked between event
  /// chunks, so overrun is bounded by one chunk's execution time.
  std::chrono::milliseconds max_wall_time{0};
  WmBehavior wm;
  RmBehavior rm;
  /// Client-side session recovery knobs. The scenario default (unlike the
  /// plain experiment default) arms the inactivity watchdog, since dead
  /// sessions are precisely what turbulence runs must detect.
  SessionRecoveryConfig recovery{true, Duration::millis(500), 2.0, 5,
                                 Duration::seconds(8)};
  /// Longest single playout stall (StreamClient::Config::max_stall). The
  /// scenario plays with the products' stall behaviour (Section 3.F), so the
  /// delay buffer's protection during an episode is visible as stall time,
  /// and a frame whose data was lost to an episode (never retransmitted) is
  /// skipped after a short freeze. Zero plays drop-late instead.
  Duration max_stall = Duration::seconds(2);
  /// Episode script, applied to the path's bottleneck link in start order.
  /// kRouterDown episodes target `FaultEpisode::router_index` instead.
  std::vector<FaultEpisode> episodes;
  /// Run-off after the nominal clip length.
  Duration extra_sim_time = Duration::seconds(90);

  // --- Self-healing knobs (router-down turbulence) ---
  /// Deterministic route-repair control plane (sim/repair.hpp). When set, a
  /// RouteRepair protects the path's detour span (if `path.detour` is
  /// configured) and/or the explicit span below, withdrawing the primaries
  /// through downed routers after a detection delay and restoring them
  /// after hold-down. nullopt = no control plane (silent black hole).
  std::optional<RouteRepairConfig> repair;
  /// Chain-router span [first, last] to protect when the path has no detour
  /// (the withdraw then produces Destination Unreachable — the failover
  /// fast-fail signal). Negative = protect only the detour span.
  int repair_span_first = -1;
  int repair_span_last = -1;
  /// Stand up a mirror server beside the primary and hand its endpoint to
  /// the client, which fails over to it (resuming at the contiguous media
  /// position) when the primary path dies. Clip runs only; the paired
  /// comparison harness ignores this.
  bool mirror_server = false;
  /// Consecutive Destination Unreachable packets that fast-fail the client
  /// onto the mirror (see FailoverConfig).
  int icmp_unreachable_threshold = 3;

  // --- Loss repair layer (players/repair.hpp) ---
  /// FEC + NACK policy applied to every server (mirror included) and client
  /// of the scenario. The default leaves repair off, preserving the
  /// unrepaired baseline byte for byte.
  RepairLayerConfig repair_layer;

  // --- Multipath striping (players/multipath.hpp) ---
  /// When enabled and the path has a detour, the primary server stripes the
  /// stream across the chain and the detour branch under health-driven
  /// weights; the client reassembles global order through a bounded join
  /// buffer. The mirror (if any) stays single-path — a failover epoch is
  /// already a degraded state. Default off: the single-path baseline is
  /// byte-identical to previous behaviour.
  MultipathConfig multipath;
};

/// How one player session fared through the scripted turbulence.
struct SessionRecoveryMetrics {
  ClipInfo clip;

  // Session outcome.
  bool established = false;       ///< server ever answered
  bool abandoned = false;         ///< PLAY retries exhausted
  bool stream_dead = false;       ///< inactivity watchdog fired mid-stream
  bool completed = false;         ///< playback ran to the final frame
  std::uint32_t play_attempts = 0;

  // Recovery behaviour.
  /// Gap from the end of the first episode to the next data packet
  /// delivered afterwards; unset when no data ever followed the episode.
  std::optional<Duration> time_to_recover;
  std::uint32_t rebuffer_events = 0;
  Duration stall_time;

  // Frame accounting, split around the episode windows.
  std::uint32_t frames_rendered = 0;
  std::uint32_t frames_dropped = 0;
  std::uint32_t frames_dropped_during_episodes = 0;  ///< decode deadline inside a window
  std::uint32_t frames_dropped_after_episodes = 0;   ///< after the last covering window

  // Datagram accounting.
  std::uint64_t packets_received = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t duplicate_packets = 0;

  // Self-healing behaviour.
  std::uint32_t failovers = 0;            ///< mirror failovers committed
  std::uint64_t icmp_unreachables = 0;    ///< Destination Unreachable observed
  std::uint64_t resume_offset = 0;        ///< media position of the last failover PLAY
  /// Stall time overlapping a kRouterDown episode window — the rebuffering
  /// attributable to router failure rather than ambient turbulence.
  Duration stall_during_router_down;

  // Loss repair behaviour (all zero when repair_layer is disabled).
  std::uint64_t packets_recovered = 0;   ///< FEC + retransmission repairs
  std::uint64_t recovered_by_fec = 0;
  std::uint64_t recovered_by_retx = 0;
  std::uint64_t nacks_sent = 0;          ///< client NACK messages
  std::uint64_t parity_packets = 0;      ///< parity packets received
  std::uint64_t repair_wire_bytes = 0;   ///< parity + retransmission wire bytes
  std::uint64_t total_wire_bytes = 0;    ///< all wire bytes (media + repair)
  double repair_latency_mean_ms = 0.0;   ///< gap notice -> repair delivery
  double repair_latency_p95_ms = 0.0;
  std::uint64_t retransmissions_sent = 0;   ///< server-side retx answered
  std::uint64_t retx_suppressed_pacer = 0;  ///< server retx dropped by pacer

  // Multipath striping behaviour (all zero when multipath is disabled).
  std::uint64_t path_switches = 0;     ///< healthy<->draining transitions
  std::uint64_t primary_packets = 0;   ///< subflow-0 datagrams delivered
  std::uint64_t detour_packets = 0;    ///< subflow-1 datagrams delivered
  std::uint64_t primary_lost = 0;      ///< subflow-0 sequence holes
  std::uint64_t detour_lost = 0;       ///< subflow-1 sequence holes
  double primary_goodput_kbps = 0.0;   ///< subflow-0 media rate over the stream
  double detour_goodput_kbps = 0.0;    ///< subflow-1 media rate over the stream
  std::uint32_t reorder_depth_p95 = 0; ///< join-buffer occupancy p95
  std::uint64_t nack_suppressed = 0;   ///< NACKs deferred by reorder tolerance
  std::uint32_t primary_stalls = 0;    ///< stalls attributed to subflow 0
  std::uint32_t detour_stalls = 0;     ///< stalls attributed to subflow 1
  std::uint64_t join_duplicates = 0;   ///< cross-subflow duplicates dropped
  std::uint64_t join_forced = 0;       ///< join-buffer hold-expiry releases
  bool multipath_degraded = false;     ///< every subflow draining at run end

  /// Per-subflow loss ratio: holes / (holes + delivered).
  double subflow_loss_ratio(std::uint64_t lost, std::uint64_t received) const {
    const std::uint64_t denom = lost + received;
    return denom == 0 ? 0.0
                      : static_cast<double>(lost) / static_cast<double>(denom);
  }
  double primary_loss_ratio() const {
    return subflow_loss_ratio(primary_lost, primary_packets);
  }
  double detour_loss_ratio() const {
    return subflow_loss_ratio(detour_lost, detour_packets);
  }
  /// Rebuffering exposure: stall time per nominal clip second.
  double rebuffer_ratio() const {
    const double len = clip.length.to_seconds();
    return len <= 0.0 ? 0.0 : stall_time.to_seconds() / len;
  }

  /// abandoned or declared dead: the session did not survive the turbulence.
  bool session_failed() const { return abandoned || stream_dead; }

  /// Fraction of the packets the network lost that the repair layer
  /// delivered anyway: recovered / (recovered + still-lost).
  double recovery_ratio() const {
    const std::uint64_t denom = packets_recovered + packets_lost;
    return denom == 0 ? 0.0 : static_cast<double>(packets_recovered) /
                                  static_cast<double>(denom);
  }
  /// Repair bandwidth overhead: repair wire bytes per media wire byte.
  double repair_overhead() const {
    const std::uint64_t media = total_wire_bytes - repair_wire_bytes;
    return media == 0 ? 0.0
                      : static_cast<double>(repair_wire_bytes) / static_cast<double>(media);
  }
};

/// One scenario run: per-player metrics plus the episode ledger.
struct TurbulenceRunResult {
  std::optional<SessionRecoveryMetrics> real;
  std::optional<SessionRecoveryMetrics> media;
  std::vector<FaultScheduler::EpisodeRecord> episodes;
  /// Events executed by this run's loop.
  std::uint64_t sim_events = 0;
  /// The run was truncated by max_sim_events / max_wall_time.
  bool budget_exhausted = false;
  /// Route-repair control-plane transitions (zero without `repair`).
  std::uint64_t reroutes = 0;
  std::uint64_t route_restores = 0;

  int sessions_abandoned() const {
    return (real && real->session_failed() ? 1 : 0) +
           (media && media->session_failed() ? 1 : 0);
  }
};

/// Streams one clip over a fresh faulted network.
TurbulenceRunResult run_turbulence_clip(const ClipInfo& clip,
                                        const TurbulenceScenarioConfig& config);

/// The paired form: both formats of one clip set streamed simultaneously
/// through the same scripted turbulence (the paper's side-by-side setup).
TurbulenceRunResult run_turbulence_pair(const ClipSet& set, RateTier tier,
                                        const TurbulenceScenarioConfig& config);

}  // namespace streamlab
