// The lab's scenario catalog and its command-line table: the catalog builds
// exactly the campaign configs the recorded golden manifests were written
// under, and every usage fault — unknown flag, missing value, malformed or
// out-of-range value, bad positional — is rejected rather than read as 0.
#include "core/scenarios.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "media/catalog.hpp"

namespace streamlab {
namespace {

Expected<LabOptions> parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"turbulence_lab"};
  argv.insert(argv.end(), args);
  return parse_lab_options(static_cast<int>(argv.size()), argv.data());
}

/// The usage fault `args` produce; empty when they parse.
std::string fault(std::initializer_list<const char*> args) {
  const Expected<LabOptions> options = parse(args);
  return options ? "" : options.error();
}

/// The "config" value of a golden manifest's first line.
std::string golden_config_hex(const std::string& name) {
  std::ifstream in(std::string(STREAMLAB_GOLDEN_DIR) + "/" + name);
  std::string line;
  std::getline(in, line);
  const std::string key = "\"config\":\"";
  const std::size_t at = line.find(key);
  return at == std::string::npos ? "" : line.substr(at + key.size(), 16);
}

TEST(LabScenarios, CatalogRunsOnTheBasePathInOrder) {
  using G = ScenarioGroup;
  const std::vector<std::pair<std::string, G>> want = {
      {"short-outage", G::kImpairment},    {"long-outage", G::kImpairment},
      {"burst-loss", G::kImpairment},      {"congestion-dip", G::kImpairment},
      {"router-down-reroute", G::kChaos},  {"router-down-failover", G::kChaos},
      {"multipath-flap", G::kMultipath}};
  RepairLayerConfig repair;
  repair.fec_k = 8;
  std::vector<std::pair<std::string, G>> got;
  for (const LabScenario& s : lab_scenarios(repair)) {
    got.emplace_back(s.name, s.group);
    EXPECT_EQ(s.config.path.hop_count, 8) << s.name;
    EXPECT_EQ(s.config.path.one_way_propagation, Duration::millis(20)) << s.name;
    EXPECT_EQ(s.config.seed, 42u) << s.name;
    EXPECT_EQ(s.config.recovery.inactivity_timeout, Duration::seconds(8)) << s.name;
    EXPECT_EQ(s.config.repair_layer.fec_k, 8) << s.name;
    EXPECT_FALSE(s.config.episodes.empty()) << s.name;
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(lab_base_config().episodes.empty());
  EXPECT_EQ(lab_scenario("router-down-failover").recovery.max_play_attempts, 8);
  EXPECT_THROW(lab_scenario("no-such-scenario"), std::out_of_range);
}

TEST(LabScenarios, CampaignConfigsMatchTheGoldenManifests) {
  const auto [real_clip, media_clip] = *table1_catalog()[0].pair(RateTier::kLow);
  const std::pair<const char*, Expected<LabOptions>> cases[] = {
      {"campaign_repair_fec8_nack", parse({"--fec", "8", "--nack", "--campaign", "5"})},
      {"campaign_multipath_chaos", parse({"--multipath", "--chaos", "--campaign", "3"})},
  };
  for (const auto& [golden, options] : cases) {
    ASSERT_TRUE(options) << options.error();
    for (const ClipInfo* clip : {&real_clip, &media_clip}) {
      const std::string name =
          std::string(golden) + (clip == &real_clip ? ".real" : ".media");
      const std::string want = golden_config_hex(name);
      ASSERT_EQ(want.size(), 16u) << name;
      EXPECT_EQ(campaign_detail::config_hex(lab_campaign_config(*clip, *options)), want)
          << name;
    }
  }
}

TEST(LabScenarios, CampaignScenarioFollowsTheMode) {
  const ClipInfo clip = table1_catalog()[0].pair(RateTier::kLow)->first;
  LabOptions options;
  options.campaign = 2;
  EXPECT_EQ(lab_campaign_config(clip, options).scenario.episodes[0].kind,
            FaultKind::kBurstLoss);
  EXPECT_FALSE(lab_campaign_config(clip, options).fault_hook);
  options.chaos = true;
  EXPECT_TRUE(lab_campaign_config(clip, options).scenario.path.detour.has_value());
  EXPECT_FALSE(lab_campaign_config(clip, options).scenario.multipath.enabled);
  options.multipath = true;
  EXPECT_TRUE(lab_campaign_config(clip, options).scenario.multipath.enabled);
  options.plant_quarantine = 1;
  EXPECT_TRUE(lab_campaign_config(clip, options).fault_hook);
}

TEST(LabOptions, EveryFlagAndPositionalReachesItsField) {
  const Expected<LabOptions> defaults = parse({});
  ASSERT_TRUE(defaults);
  EXPECT_EQ(defaults->export_dir, "streamlab_turbulence");
  EXPECT_FALSE(defaults->plant_quarantine.has_value());
  EXPECT_FALSE(defaults->repair().enabled());

  const Expected<LabOptions> options =
      parse({"6", "very-high", "out", "--trace", "tr", "--chaos", "--multipath", "--fec", "8",
             "--nack", "--campaign", "5", "--workers", "3", "--verify-determinism",
             "--manifest", "m", "--seed", "18446744073709551615", "--progress-every", "2",
             "--plant-quarantine", "0", "--distributed", "--max-worker-restarts", "7",
             "--kill-worker-after", "4", "--fleet", "1000", "--worker", "media"});
  ASSERT_TRUE(options) << options.error();
  const LabOptions& o = *options;
  EXPECT_EQ(o.set, 6);
  EXPECT_EQ(o.tier, RateTier::kVeryHigh);
  EXPECT_EQ(o.export_dir, "out");
  EXPECT_EQ(o.trace_dir, "tr");
  EXPECT_TRUE(o.chaos && o.multipath && o.nack && o.verify_determinism && o.distributed);
  EXPECT_EQ(o.campaign, 5u);
  EXPECT_EQ(o.workers, 3u);
  EXPECT_EQ(o.manifest, "m");
  EXPECT_EQ(o.seed, 18446744073709551615u);
  EXPECT_EQ(o.progress_every, 2u);
  EXPECT_EQ(o.plant_quarantine.value_or(99), 0u);
  EXPECT_EQ(o.max_worker_restarts, 7u);
  EXPECT_EQ(o.kill_worker_after, 4u);
  EXPECT_EQ(o.fleet, 1000u);
  EXPECT_EQ(o.worker, "media");
  EXPECT_EQ(o.repair().fec_k, 8);
  EXPECT_EQ(o.repair().fec_stride, 4);
  EXPECT_TRUE(o.repair().nack);
}

TEST(LabOptions, UnknownFlagIsAUsageError) {
  EXPECT_EQ(fault({"--fleet", "10000", "--scheduler", "heap"}), "unknown flag --scheduler");
}

TEST(LabOptions, MissingValueIsAUsageError) {
  EXPECT_EQ(fault({"1", "low", "d", "--campaign"}), "--campaign needs a value");
}

TEST(LabOptions, MalformedNumberIsAUsageError) {
  for (const char* flag : {"--campaign", "--workers", "--seed", "--progress-every",
                           "--plant-quarantine", "--max-worker-restarts",
                           "--kill-worker-after", "--fec", "--fleet"})
    for (const char* value : {"-1", "abc", "8x", "", "+5", " 5", "0x10", "1e3"})
      EXPECT_NE(fault({flag, value}), "") << flag << " '" << value << "'";
  EXPECT_EQ(fault({"--plant-quarantine", "abc"}),
            "--plant-quarantine takes a whole number, not 'abc'");
  EXPECT_EQ(fault({"--campaign", "-1"}), "--campaign takes 0..1000000, not '-1'");
}

TEST(LabOptions, OutOfRangeNumberIsAUsageError) {
  EXPECT_EQ(fault({"--fec", "65"}), "--fec takes 1..64, not '65'");
  EXPECT_NE(fault({"--fec", "0"}), "");
  EXPECT_NE(fault({"--campaign", "1000001"}), "");
  EXPECT_NE(fault({"--workers", "257"}), "");
  EXPECT_NE(fault({"--fleet", "0"}), "");
  EXPECT_NE(fault({"--seed", "18446744073709551616"}), "");
  EXPECT_EQ(fault({"--fec", "64", "--fleet", "1", "--workers", "256"}), "");
}

TEST(LabOptions, BadPositionalIsAUsageError) {
  EXPECT_EQ(fault({"7"}), "set must be 1..6, not '7'");
  EXPECT_NE(fault({"0"}), "");
  EXPECT_NE(fault({"1x"}), "");
  EXPECT_EQ(fault({"1", "lo"}), "tier must be low, high or very-high, not 'lo'");
  EXPECT_EQ(fault({"1", "low", "d", "extra"}), "unexpected argument 'extra'");
  EXPECT_EQ(fault({"--worker", "both"}), "--worker takes media or real, not 'both'");
  EXPECT_EQ(fault({"3", "high", "d"}), "");
}

TEST(LabOptions, UsageListsEveryVisibleFlagWithItsRange) {
  const std::string usage = lab_usage();
  for (const char* flag :
       {"--trace <dir>", "--chaos ", "--multipath ", "--fec <k>", "--nack ", "--campaign <N>",
        "--workers <N>", "--verify-determinism ", "--manifest <path>", "--seed <base>",
        "--progress-every <n>", "--plant-quarantine <index>", "--distributed ",
        "--max-worker-restarts <n>", "--kill-worker-after <n>", "--fleet <N>"})
    EXPECT_NE(usage.find(std::string("\n  ") + flag), std::string::npos) << flag;
  EXPECT_EQ(usage.find("--worker "), std::string::npos);
  EXPECT_NE(usage.find("(1..64)"), std::string::npos);
}

}  // namespace
}  // namespace streamlab
