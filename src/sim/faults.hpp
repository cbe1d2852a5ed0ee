// Fault injection: scripted, time-varying link impairments.
//
// The paper's subject is *network turbulence*, but a LinkConfig is
// stationary — it cannot express the loss bursts, outages and congestion
// epochs that streaming delay buffers exist to survive (Sections 3.F, VI).
// This layer scripts impairment *episodes* onto a Link: a FaultScheduler
// applies each episode at its start time and restores the baseline when it
// ends, recording per-episode drop counts so experiments can attribute
// damage to a specific event. Loss draws go through the link's seeded Rng,
// so faulted runs replay bit-for-bit like everything else in streamlab.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/link.hpp"

namespace streamlab {

class Network;

/// Two-state Markov (Gilbert–Elliott) packet-loss model: a GOOD state with
/// near-zero loss and a BAD state with heavy loss, with per-packet
/// transition probabilities. Unlike independent Bernoulli loss at the same
/// average rate, losses arrive in *bursts* whose mean length is
/// 1 / p_bad_to_good packets — the loss pattern real congestion produces.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.02;  ///< per-packet P(enter burst)
  double p_bad_to_good = 0.25;  ///< per-packet P(leave burst)
  double loss_good = 0.0;       ///< drop probability while GOOD
  double loss_bad = 0.75;       ///< drop probability while BAD

  /// Long-run fraction of packets spent in the BAD state.
  double stationary_bad() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    return denom > 0.0 ? p_good_to_bad / denom : 0.0;
  }
  /// Long-run average drop probability.
  double mean_loss() const {
    const double pi_bad = stationary_bad();
    return pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
  }
};

/// The chain itself; one instance per impaired link direction-pair. The
/// state advances once per packet reaching the wire.
class GilbertElliottLoss {
 public:
  explicit GilbertElliottLoss(GilbertElliottConfig config) : config_(config) {}

  /// Advances the chain one packet and returns whether to drop it.
  bool drop(Rng& rng);
  bool in_bad_state() const { return bad_; }
  const GilbertElliottConfig& config() const { return config_; }

 private:
  GilbertElliottConfig config_;
  bool bad_ = false;
};

enum class FaultKind {
  kOutage,      ///< link flap: nothing gets through
  kBandwidth,   ///< serialization-rate reduction (congestion epoch)
  kExtraDelay,  ///< added one-way delay (route change / bufferbloat)
  kBurstLoss,   ///< Gilbert–Elliott two-state burst loss
  kRandomLoss,  ///< independent loss override
  kRouterDown,  ///< chain router fully offline: no forwarding, no ICMP
};

const char* to_string(FaultKind kind);

/// One scripted impairment episode on a link's timeline.
struct FaultEpisode {
  FaultKind kind = FaultKind::kOutage;
  SimTime start;                      ///< absolute sim time the episode begins
  Duration duration;                  ///< episode length
  BitRate bandwidth;                  ///< kBandwidth: reduced rate
  Duration extra_delay;               ///< kExtraDelay: added one-way delay
  double loss_probability = 0.0;      ///< kRandomLoss: Bernoulli override
  GilbertElliottConfig gilbert;       ///< kBurstLoss: chain parameters
  int router_index = -1;              ///< kRouterDown: chain router to down
  /// kRouterDown: `router_index` names a detour-branch router
  /// (Network::detour_router) instead of a chain router — what lets one
  /// scenario script true flap schedules on the bypass path itself.
  bool detour = false;
  std::string label;                  ///< free-form tag for reports

  SimTime end() const { return start + duration; }
  /// True when `t` falls inside [start, end).
  bool covers(SimTime t) const { return t >= start && t < end(); }

  // Constructors for each episode shape. Times are exact SimTime/Duration
  // values, so a script built from them carries no rounding.
  static FaultEpisode outage(SimTime start, Duration duration, std::string label = "outage");
  static FaultEpisode bandwidth_dip(SimTime start, Duration duration, BitRate bandwidth,
                                    std::string label = "bandwidth");
  static FaultEpisode delay_spike(SimTime start, Duration duration, Duration extra_delay,
                                  std::string label = "delay");
  static FaultEpisode burst_loss(SimTime start, Duration duration, GilbertElliottConfig config,
                                 std::string label = "burst-loss");
  static FaultEpisode random_loss(SimTime start, Duration duration, double probability,
                                  std::string label = "random-loss");
  /// Takes chain router `router_index` (Network::router) offline; needs a
  /// FaultScheduler with a Network attached. Overlapping episodes on one
  /// router nest: it returns online only when the last one ends.
  static FaultEpisode router_down(SimTime start, Duration duration, int router_index,
                                  std::string label = "router-down");
  /// Like router_down, but `detour_index` names a router on the detour
  /// branch (Network::detour_router). Chain and detour episodes on the same
  /// index are independent.
  static FaultEpisode detour_down(SimTime start, Duration duration, int detour_index,
                                  std::string label = "detour-down");
};

/// Applies a scripted sequence of FaultEpisodes to one Link. Episodes are
/// sorted by start time when armed; applying an episode replaces any active
/// impairment and the episode's end restores the unimpaired baseline (so
/// overlapping episodes truncate their predecessors rather than stacking).
class FaultScheduler {
 public:
  struct EpisodeRecord {
    FaultEpisode episode;
    bool applied = false;
    bool cleared = false;
    /// Packets dropped by this episode's own mechanism (outage, burst chain
    /// or loss override) while it was the active impairment. Bandwidth and
    /// extra-delay episodes attribute nothing here: baseline random loss
    /// occurring during them is not the episode's doing.
    std::uint64_t packets_dropped = 0;
  };

  FaultScheduler(EventLoop& loop, Link& link) : loop_(loop), link_(link) {}
  /// With a Network attached, FaultKind::kRouterDown episodes can take chain
  /// routers offline. Router-down episodes run *in parallel* with the single
  /// link-impairment slot: a router failure neither pre-empts nor is
  /// pre-empted by a concurrent link episode.
  FaultScheduler(EventLoop& loop, Link& link, Network& network)
      : loop_(loop), link_(link), network_(&network) {}
  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;
  ~FaultScheduler();

  /// Adds one episode (see the FaultEpisode constructors); call before arm().
  void add(FaultEpisode episode);

  /// Schedules every added episode on the event loop. Call exactly once,
  /// before the experiment runs past the first episode start.
  void arm();

  /// Closes out an episode still active when the trial horizon ends (budget
  /// truncation, or a script whose last episode outlives the run): settles
  /// its drop accounting, ends its obs span so Chrome traces of truncated
  /// trials show no dangling spans, and restores the unimpaired baseline.
  /// Idempotent; also invoked by the destructor.
  void finish();

  const std::vector<EpisodeRecord>& records() const { return records_; }
  /// Index of the episode currently impairing the link, -1 when none.
  int active_episode() const { return active_; }
  /// Total packets dropped across all recorded episodes.
  std::uint64_t total_episode_drops() const;

 private:
  /// Bookkeeping for one in-flight router-down episode (keyed by record
  /// index): the network-wide offline-drop count at apply time plus its obs
  /// span. Lives until clear_router() or finish() settles it.
  struct RouterDownState {
    std::uint64_t baseline = 0;
    std::uint64_t span = 0;
  };

  void apply(std::size_t index);
  void clear(std::size_t index);
  void close_accounting(std::size_t index);
  void apply_router(std::size_t index);
  void clear_router(std::size_t index);
  void settle_router(std::size_t index, const RouterDownState& state);
  /// Current drop count on the counter `kind` is accountable for (the link's
  /// direction counters; for kRouterDown the network-wide offline drops).
  std::uint64_t drops_for_kind(FaultKind kind) const;

  EventLoop& loop_;
  Link& link_;
  Network* network_ = nullptr;
  std::vector<EpisodeRecord> records_;
  std::vector<EventHandle> handles_;
  /// Chains outlive the closures that capture them (episodes may be queried
  /// after the run), hence shared ownership.
  std::vector<std::shared_ptr<GilbertElliottLoss>> chains_;
  bool armed_ = false;
  int active_ = -1;
  std::uint64_t drops_at_apply_ = 0;
  /// Trace span of the active episode (0 when none / tracing off).
  std::uint64_t active_span_ = 0;
  std::map<std::size_t, RouterDownState> open_router_downs_;
  /// Concurrent router-down episodes per router; the router comes back
  /// online when its depth returns to zero. Chain routers key by index,
  /// detour routers by -(index + 1), so episodes on the two branches never
  /// alias.
  std::map<int, int> router_down_depth_;
};

}  // namespace streamlab
