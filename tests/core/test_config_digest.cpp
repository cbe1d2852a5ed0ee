// campaign_config_digest covers every CampaignConfig field that shapes a
// trial's result and none that does not. Each row below perturbs one field
// of CampaignConfig or a config nested in it; a new config field needs a row.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace streamlab {
namespace {

struct Perturbation {
  const char* field;
  std::function<void(CampaignConfig&)> change;
};

/// A config with every optional part present and enabled, so that each
/// nested field is live.
CampaignConfig full_config() {
  CampaignConfig c;
  c.clip.data_set = 1;
  c.clip.encoded_rate = BitRate::kbps(33);
  c.clip.advertised_rate = BitRate::kbps(56);
  c.clip.length = Duration::seconds(5);
  c.trials = 3;
  c.scenario.path.detour = DetourConfig{};
  c.scenario.repair = RouteRepairConfig{};
  c.scenario.repair_layer.fec_k = 8;
  c.scenario.repair_layer.nack = true;
  c.scenario.multipath.enabled = true;
  FaultEpisode e;
  e.kind = FaultKind::kBurstLoss;
  e.start = SimTime::from_seconds(1.0);
  e.duration = Duration::seconds(2);
  e.bandwidth = BitRate::kbps(100);
  e.extra_delay = Duration::millis(10);
  e.loss_probability = 0.1;
  e.router_index = 2;
  e.label = "burst";
  c.scenario.episodes.push_back(e);
  return c;
}

const std::vector<Perturbation>& result_shaping() {
  static const std::vector<Perturbation> rows = {
      // CampaignConfig
      {"trials", [](CampaignConfig& c) { c.trials += 1; }},
      {"base_seed", [](CampaignConfig& c) { c.base_seed += 1; }},
      {"verify_determinism", [](CampaignConfig& c) { c.verify_determinism = true; }},
      {"verify_seed_skew", [](CampaignConfig& c) { c.verify_seed_skew = 1; }},
      // ClipInfo
      {"clip.data_set", [](CampaignConfig& c) { c.clip.data_set = 2; }},
      {"clip.content", [](CampaignConfig& c) { c.clip.content = ContentClass::kMovie; }},
      {"clip.player", [](CampaignConfig& c) { c.clip.player = PlayerKind::kMediaPlayer; }},
      {"clip.tier", [](CampaignConfig& c) { c.clip.tier = RateTier::kHigh; }},
      {"clip.encoded_rate", [](CampaignConfig& c) { c.clip.encoded_rate = BitRate::kbps(34); }},
      {"clip.advertised_rate",
       [](CampaignConfig& c) { c.clip.advertised_rate = BitRate::kbps(57); }},
      {"clip.length", [](CampaignConfig& c) { c.clip.length = Duration::seconds(6); }},
      // PathConfig and DetourConfig
      {"path.hop_count", [](CampaignConfig& c) { c.scenario.path.hop_count += 1; }},
      {"path.access_bandwidth",
       [](CampaignConfig& c) { c.scenario.path.access_bandwidth = BitRate::mbps(11); }},
      {"path.backbone_bandwidth",
       [](CampaignConfig& c) { c.scenario.path.backbone_bandwidth = BitRate::mbps(101); }},
      {"path.bottleneck_bandwidth",
       [](CampaignConfig& c) { c.scenario.path.bottleneck_bandwidth = BitRate::mbps(11); }},
      {"path.one_way_propagation",
       [](CampaignConfig& c) { c.scenario.path.one_way_propagation += Duration::nanos(1); }},
      {"path.jitter_stddev",
       [](CampaignConfig& c) { c.scenario.path.jitter_stddev += Duration::nanos(1); }},
      {"path.loss_probability", [](CampaignConfig& c) { c.scenario.path.loss_probability = 0.01; }},
      {"path.queue_limit_bytes", [](CampaignConfig& c) { c.scenario.path.queue_limit_bytes += 1; }},
      {"path.detour (presence)", [](CampaignConfig& c) { c.scenario.path.detour.reset(); }},
      {"path.detour.span_first", [](CampaignConfig& c) { c.scenario.path.detour->span_first += 1; }},
      {"path.detour.span_last", [](CampaignConfig& c) { c.scenario.path.detour->span_last += 1; }},
      {"path.detour.hops", [](CampaignConfig& c) { c.scenario.path.detour->hops += 1; }},
      {"path.detour.metric", [](CampaignConfig& c) { c.scenario.path.detour->metric += 1; }},
      // Scenario budgets and playout
      {"max_sim_events", [](CampaignConfig& c) { c.scenario.max_sim_events = 1000; }},
      {"max_wall_time",
       [](CampaignConfig& c) { c.scenario.max_wall_time = std::chrono::milliseconds(5); }},
      {"max_stall (drop-late)", [](CampaignConfig& c) { c.scenario.max_stall = Duration::zero(); }},
      {"max_stall", [](CampaignConfig& c) { c.scenario.max_stall += Duration::nanos(1); }},
      {"extra_sim_time", [](CampaignConfig& c) { c.scenario.extra_sim_time += Duration::nanos(1); }},
      // WmBehavior
      {"wm.frame_interval",
       [](CampaignConfig& c) { c.scenario.wm.frame_interval += Duration::nanos(1); }},
      {"wm.min_media_per_datagram",
       [](CampaignConfig& c) { c.scenario.wm.min_media_per_datagram += 1; }},
      {"wm.preroll", [](CampaignConfig& c) { c.scenario.wm.preroll += Duration::nanos(1); }},
      {"wm.app_batch_interval",
       [](CampaignConfig& c) { c.scenario.wm.app_batch_interval += Duration::nanos(1); }},
      // RmBehavior
      {"rm.ratio_at_low", [](CampaignConfig& c) { c.scenario.rm.ratio_at_low += 0.125; }},
      {"rm.ratio_exponent", [](CampaignConfig& c) { c.scenario.rm.ratio_exponent += 0.125; }},
      {"rm.ratio_floor", [](CampaignConfig& c) { c.scenario.rm.ratio_floor += 0.125; }},
      {"rm.burst_at_low", [](CampaignConfig& c) { c.scenario.rm.burst_at_low += Duration::nanos(1); }},
      {"rm.burst_at_high",
       [](CampaignConfig& c) { c.scenario.rm.burst_at_high += Duration::nanos(1); }},
      {"rm.burst_max_fraction_of_clip",
       [](CampaignConfig& c) { c.scenario.rm.burst_max_fraction_of_clip += 0.125; }},
      {"rm.preroll", [](CampaignConfig& c) { c.scenario.rm.preroll += Duration::nanos(1); }},
      {"rm.size_cv", [](CampaignConfig& c) { c.scenario.rm.size_cv += 0.125; }},
      {"rm.size_spread_min", [](CampaignConfig& c) { c.scenario.rm.size_spread_min += 0.125; }},
      {"rm.size_spread_max", [](CampaignConfig& c) { c.scenario.rm.size_spread_max += 0.125; }},
      {"rm.max_media_per_datagram",
       [](CampaignConfig& c) { c.scenario.rm.max_media_per_datagram += 1; }},
      {"rm.min_media_per_datagram",
       [](CampaignConfig& c) { c.scenario.rm.min_media_per_datagram += 1; }},
      {"rm.interarrival_cv", [](CampaignConfig& c) { c.scenario.rm.interarrival_cv += 0.125; }},
      // SessionRecoveryConfig
      {"recovery.play_retry", [](CampaignConfig& c) { c.scenario.recovery.play_retry = false; }},
      {"recovery.play_timeout",
       [](CampaignConfig& c) { c.scenario.recovery.play_timeout += Duration::nanos(1); }},
      {"recovery.backoff", [](CampaignConfig& c) { c.scenario.recovery.backoff += 0.125; }},
      {"recovery.max_play_attempts",
       [](CampaignConfig& c) { c.scenario.recovery.max_play_attempts += 1; }},
      {"recovery.inactivity_timeout",
       [](CampaignConfig& c) { c.scenario.recovery.inactivity_timeout += Duration::nanos(1); }},
      // FaultEpisode
      {"episodes (count)",
       [](CampaignConfig& c) { c.scenario.episodes.push_back(c.scenario.episodes[0]); }},
      {"episode.kind",
       [](CampaignConfig& c) { c.scenario.episodes[0].kind = FaultKind::kRandomLoss; }},
      {"episode.start",
       [](CampaignConfig& c) { c.scenario.episodes[0].start += Duration::nanos(1); }},
      {"episode.duration",
       [](CampaignConfig& c) { c.scenario.episodes[0].duration += Duration::nanos(1); }},
      {"episode.bandwidth",
       [](CampaignConfig& c) { c.scenario.episodes[0].bandwidth = BitRate::kbps(101); }},
      {"episode.extra_delay",
       [](CampaignConfig& c) { c.scenario.episodes[0].extra_delay += Duration::nanos(1); }},
      {"episode.loss_probability",
       [](CampaignConfig& c) { c.scenario.episodes[0].loss_probability += 0.125; }},
      {"episode.gilbert.p_good_to_bad",
       [](CampaignConfig& c) { c.scenario.episodes[0].gilbert.p_good_to_bad += 0.125; }},
      {"episode.gilbert.p_bad_to_good",
       [](CampaignConfig& c) { c.scenario.episodes[0].gilbert.p_bad_to_good += 0.125; }},
      {"episode.gilbert.loss_good",
       [](CampaignConfig& c) { c.scenario.episodes[0].gilbert.loss_good += 0.125; }},
      {"episode.gilbert.loss_bad",
       [](CampaignConfig& c) { c.scenario.episodes[0].gilbert.loss_bad += 0.125; }},
      {"episode.router_index", [](CampaignConfig& c) { c.scenario.episodes[0].router_index += 1; }},
      {"episode.detour", [](CampaignConfig& c) { c.scenario.episodes[0].detour = true; }},
      // Route repair and mirror failover
      {"repair (presence)", [](CampaignConfig& c) { c.scenario.repair.reset(); }},
      {"repair.detection_delay",
       [](CampaignConfig& c) { c.scenario.repair->detection_delay += Duration::nanos(1); }},
      {"repair.hold_down",
       [](CampaignConfig& c) { c.scenario.repair->hold_down += Duration::nanos(1); }},
      {"repair_span_first", [](CampaignConfig& c) { c.scenario.repair_span_first = 2; }},
      {"repair_span_last", [](CampaignConfig& c) { c.scenario.repair_span_last = 3; }},
      {"mirror_server", [](CampaignConfig& c) { c.scenario.mirror_server = true; }},
      {"icmp_unreachable_threshold",
       [](CampaignConfig& c) { c.scenario.icmp_unreachable_threshold += 1; }},
      // RepairLayerConfig
      {"repair_layer.fec_k", [](CampaignConfig& c) { c.scenario.repair_layer.fec_k += 1; }},
      {"repair_layer.fec_stride", [](CampaignConfig& c) { c.scenario.repair_layer.fec_stride += 1; }},
      {"repair_layer.nack", [](CampaignConfig& c) { c.scenario.repair_layer.nack = false; }},
      {"repair_layer.nack_rtt_multiplier",
       [](CampaignConfig& c) { c.scenario.repair_layer.nack_rtt_multiplier += 0.125; }},
      {"repair_layer.nack_min_delay",
       [](CampaignConfig& c) { c.scenario.repair_layer.nack_min_delay += Duration::nanos(1); }},
      {"repair_layer.nack_max_delay",
       [](CampaignConfig& c) { c.scenario.repair_layer.nack_max_delay += Duration::nanos(1); }},
      {"repair_layer.nack_max_retries",
       [](CampaignConfig& c) { c.scenario.repair_layer.nack_max_retries += 1; }},
      {"repair_layer.nack_reorder_tolerance",
       [](CampaignConfig& c) { c.scenario.repair_layer.nack_reorder_tolerance += 1; }},
      {"repair_layer.retx_buffer_packets",
       [](CampaignConfig& c) { c.scenario.repair_layer.retx_buffer_packets += 1; }},
      {"repair_layer.pacer_rate_fraction",
       [](CampaignConfig& c) { c.scenario.repair_layer.pacer_rate_fraction += 0.125; }},
      {"repair_layer.pacer_burst_bytes",
       [](CampaignConfig& c) { c.scenario.repair_layer.pacer_burst_bytes += 1; }},
      // MultipathConfig policy
      {"multipath.enabled", [](CampaignConfig& c) { c.scenario.multipath.enabled = false; }},
      {"multipath.primary_weight",
       [](CampaignConfig& c) { c.scenario.multipath.primary_weight += 1; }},
      {"multipath.detour_weight", [](CampaignConfig& c) { c.scenario.multipath.detour_weight += 1; }},
      {"multipath.loss_unhealthy",
       [](CampaignConfig& c) { c.scenario.multipath.loss_unhealthy += 0.125; }},
      {"multipath.loss_healthy",
       [](CampaignConfig& c) { c.scenario.multipath.loss_healthy += 0.125; }},
      {"multipath.ewma_alpha", [](CampaignConfig& c) { c.scenario.multipath.ewma_alpha += 0.125; }},
      {"multipath.strike_limit", [](CampaignConfig& c) { c.scenario.multipath.strike_limit += 1; }},
      {"multipath.report_interval",
       [](CampaignConfig& c) { c.scenario.multipath.report_interval += Duration::nanos(1); }},
      {"multipath.hold_down",
       [](CampaignConfig& c) { c.scenario.multipath.hold_down += Duration::nanos(1); }},
      {"multipath.join_buffer_packets",
       [](CampaignConfig& c) { c.scenario.multipath.join_buffer_packets += 1; }},
      {"multipath.join_hold",
       [](CampaignConfig& c) { c.scenario.multipath.join_hold += Duration::nanos(1); }},
      {"multipath.nack_reorder_tolerance",
       [](CampaignConfig& c) { c.scenario.multipath.nack_reorder_tolerance += 1; }},
  };
  return rows;
}

/// Fields that cannot change a trial's simulated result: execution and
/// reporting knobs, report tags, and values each run overwrites.
const std::vector<Perturbation>& result_neutral() {
  static std::atomic<bool> cancel{false};
  static obs::Obs obs;
  static audit::Auditor auditor;
  static audit::DeterminismProbe probe;
  static const std::vector<Perturbation> rows = {
      {"workers", [](CampaignConfig& c) { c.workers = 7; }},
      {"manifest_path", [](CampaignConfig& c) { c.manifest_path = "elsewhere.ndjson"; }},
      {"fault_hook", [](CampaignConfig& c) {
         c.fault_hook = [](audit::Auditor&, std::size_t, std::uint64_t) {};
       }},
      {"collect_telemetry", [](CampaignConfig& c) { c.collect_telemetry = false; }},
      {"flight_recorder_records", [](CampaignConfig& c) { c.flight_recorder_records = 9; }},
      {"postmortem_prefix", [](CampaignConfig& c) { c.postmortem_prefix = "pm-"; }},
      {"progress_every", [](CampaignConfig& c) { c.progress_every = 2; }},
      {"progress_hook", [](CampaignConfig& c) { c.progress_hook = [](const CampaignProgress&) {}; }},
      {"cancel", [](CampaignConfig& c) { c.cancel = &cancel; }},
      {"episode.label", [](CampaignConfig& c) { c.scenario.episodes[0].label = "renamed"; }},
      // Overwritten per trial by run_trial / run_turbulence_clip.
      {"scenario.seed", [](CampaignConfig& c) { c.scenario.seed = 99; }},
      {"path.seed", [](CampaignConfig& c) { c.scenario.path.seed = 99; }},
      {"scenario.obs", [](CampaignConfig& c) { c.scenario.obs = &obs; }},
      {"scenario.auditor", [](CampaignConfig& c) { c.scenario.auditor = &auditor; }},
      {"scenario.probe", [](CampaignConfig& c) { c.scenario.probe = &probe; }},
      {"multipath.client_alias",
       [](CampaignConfig& c) { c.scenario.multipath.client_alias = Ipv4Address(10, 9, 9, 9); }},
      {"multipath.server_alias",
       [](CampaignConfig& c) { c.scenario.multipath.server_alias = Ipv4Address(10, 9, 9, 8); }},
  };
  return rows;
}

TEST(ConfigDigest, EveryResultShapingFieldChangesTheDigest) {
  const std::uint64_t base = campaign_config_digest(full_config());
  EXPECT_EQ(campaign_config_digest(full_config()), base);
  for (const Perturbation& p : result_shaping()) {
    CampaignConfig changed = full_config();
    p.change(changed);
    EXPECT_NE(campaign_config_digest(changed), base) << p.field;
  }
}

TEST(ConfigDigest, ResultNeutralFieldsLeaveTheDigestAlone) {
  const std::uint64_t base = campaign_config_digest(full_config());
  for (const Perturbation& p : result_neutral()) {
    CampaignConfig changed = full_config();
    p.change(changed);
    EXPECT_EQ(campaign_config_digest(changed), base) << p.field;
  }
}

TEST(ConfigDigest, DisabledPartsDoNotSplitStudies) {
  // Multipath policy knobs only shape trials that stripe.
  CampaignConfig off = full_config();
  off.scenario.multipath.enabled = false;
  CampaignConfig off_tuned = off;
  off_tuned.scenario.multipath.primary_weight = 5;
  EXPECT_EQ(campaign_config_digest(off_tuned), campaign_config_digest(off));
}

}  // namespace
}  // namespace streamlab
