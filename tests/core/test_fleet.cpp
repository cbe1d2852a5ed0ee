// Fleet scenario tests: determinism, metric sanity, audit cleanliness — plus
// the campaign-level determinism check on the event loop: chaos and repair
// campaigns must produce byte-identical manifests and equal digests serially
// and on 4 workers.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/fleet.hpp"
#include "../campaign/tiny_campaign.hpp"

namespace streamlab {
namespace {

FleetConfig small_fleet(std::size_t sessions, std::uint64_t seed = 7) {
  FleetConfig config;
  config.sessions = sessions;
  config.seed = seed;
  config.episode = Duration::seconds(8);
  config.turbulence_start = Duration::seconds(2);
  config.turbulence_duration = Duration::seconds(3);
  return config;
}

TEST(Fleet, RunsAndAccounts) {
  const FleetConfig config = small_fleet(200);
  const FleetResult r = run_fleet(config);
  EXPECT_EQ(r.sessions, 200u);
  EXPECT_GT(r.packets_sent, 0u);
  EXPECT_EQ(r.packets_sent, r.packets_delivered + r.packets_lost);
  EXPECT_GT(r.packets_lost, 0u);  // the shared turbulence window bites
  EXPECT_GT(r.delivery_ratio, 0.5);
  EXPECT_LT(r.delivery_ratio, 1.0);
  EXPECT_GT(r.events_executed, r.packets_sent);  // sends + deliveries
  EXPECT_GT(r.sim_seconds, 7.0);
  EXPECT_GT(r.table_bytes, 0u);
  // The flyweight contract: tens of bytes per session, not hundreds.
  EXPECT_LT(r.bytes_per_session, 64.0);
}

TEST(Fleet, DeterministicAcrossRuns) {
  const FleetResult a = run_fleet(small_fleet(300));
  const FleetResult b = run_fleet(small_fleet(300));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.events_executed, b.events_executed);

  const FleetResult other = run_fleet(small_fleet(300, /*seed=*/8));
  EXPECT_NE(other.digest, a.digest) << "digest insensitive to seed";
}

TEST(Fleet, AuditCleanAndProbeFolded) {
  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  FleetConfig config = small_fleet(100);
  config.auditor = &auditor;
  config.probe = &probe;
  const FleetResult r = run_fleet(config);
  EXPECT_TRUE(auditor.report().clean())
      << auditor.report().summary();
  EXPECT_GT(auditor.report().checks_performed, 0u);
  EXPECT_EQ(probe.events(), r.packets_delivered);
}

// --- Campaign determinism: serial vs 4 workers on chaos + repair scenarios ---

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_manifest(const std::string& name) {
  std::string path = ::testing::TempDir() + "sched_diff_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

// The tiny campaign reshaped into the self-healing chaos scenario: a router
// dies mid-clip on a detour-bridged path and the repair plane reroutes.
CampaignConfig tiny_chaos_campaign(std::size_t trials) {
  CampaignConfig config = campaign_test::tiny_campaign(trials);
  config.scenario.path.hop_count = 8;
  config.scenario.path.detour = DetourConfig{3, 4, 2, 10};
  config.scenario.repair = RouteRepairConfig{};
  config.scenario.mirror_server = true;
  config.scenario.episodes.clear();
  config.scenario.episodes.push_back(
      FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::millis(1500), 3));
  return config;
}

// The tiny campaign with burst loss and the FEC+NACK repair layer active.
CampaignConfig tiny_repair_campaign(std::size_t trials) {
  CampaignConfig config = campaign_test::tiny_campaign(trials);
  config.scenario.repair_layer.fec_k = 8;
  config.scenario.repair_layer.nack = true;
  config.scenario.episodes.push_back(FaultEpisode::burst_loss(
      SimTime::from_seconds(1.5), Duration::seconds(2), GilbertElliottConfig{}, "burst"));
  return config;
}

struct CampaignFingerprint {
  std::string manifest;
  std::vector<std::uint64_t> digests;
  std::uint64_t telemetry_hash = 0;
};

CampaignFingerprint run_fingerprint(CampaignConfig config, std::size_t workers,
                                    const std::string& name) {
  config.workers = workers;
  config.verify_determinism = true;
  config.manifest_path = temp_manifest(name);
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.ok());
  CampaignFingerprint fp;
  fp.manifest = read_file(config.manifest_path);
  for (const TrialOutcome& t : result.trials) fp.digests.push_back(t.digest);
  std::hash<std::string> h;
  fp.telemetry_hash = h(result.telemetry.serialize());
  return fp;
}

void expect_serial_matches_workers(const CampaignConfig& config, const char* tag) {
  const auto serial = run_fingerprint(config, 1, std::string(tag) + "_serial");
  const auto workers4 = run_fingerprint(config, 4, std::string(tag) + "_workers4");
  ASSERT_FALSE(serial.manifest.empty());
  EXPECT_EQ(workers4.digests, serial.digests) << tag << ": trial digests diverged";
  EXPECT_EQ(workers4.manifest, serial.manifest)
      << tag << ": 4-worker manifest differs from serial";
  EXPECT_EQ(workers4.telemetry_hash, serial.telemetry_hash);
}

TEST(SchedulerCampaignDifferential, ChaosCampaignByteIdentical) {
  expect_serial_matches_workers(tiny_chaos_campaign(3), "chaos");
}

TEST(SchedulerCampaignDifferential, RepairCampaignByteIdentical) {
  expect_serial_matches_workers(tiny_repair_campaign(3), "repair");
}

}  // namespace
}  // namespace streamlab
