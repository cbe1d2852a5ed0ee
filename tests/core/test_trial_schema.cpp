// The trial-metric schema (trial_metric_fields) and the resume-manifest codec
// built on it: every row survives manifest_line -> parse_manifest_line, the
// aggregate fold sums every row, the per-session salvage maps each row to its
// session metric, numbers are parsed strictly, and the recorded campaign
// manifests re-serialize byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/campaign.hpp"

namespace streamlab {
namespace {

using campaign_detail::manifest_line;
using campaign_detail::parse_manifest_line;

const std::string kHex = "0123456789abcdef";

/// An outcome with a distinct nonzero value in every schema row and every
/// other serialized field set, including the quarantine evidence.
TrialOutcome full_outcome(std::int64_t base) {
  TrialOutcome t;
  std::int64_t v = base;
  for (const TrialMetricField& f : trial_metric_fields()) f.add(t, v += 7);
  t.index = 3;
  t.seed = 0xfedcba9876543210ull;
  t.status = TrialStatus::kQuarantined;
  t.reason = "audit: \"quoted\"\\ tab\t line\n end";
  t.checks = 11;
  t.violations = 2;
  t.sim_events = 123456;
  t.budget_exhausted = true;
  t.digest = 0x00ab00cd00ef0012ull;
  t.divergence = 98765;
  t.attempts = 4;
  t.worker_exit_status = 137;
  t.stderr_tail = "killed\nby \"signal\" 9";
  obs::TrialTelemetry telemetry;
  telemetry.set_sample("trial.stall_ms", 1234.5);
  telemetry.set_tally("trial.packets_lost", 17);
  telemetry.add_counter("loop.events_fired", 999);
  t.telemetry = telemetry;
  return t;
}

TEST(TrialSchema, RowsCoverEveryTrialMetricOnce) {
  // Every TrialMetrics member is 8 bytes; one row per member, no member or
  // key named twice.
  const auto fields = trial_metric_fields();
  EXPECT_EQ(sizeof(TrialMetrics), fields.size() * sizeof(std::uint64_t));
  std::set<std::string> keys;
  std::set<const void*> members;
  const TrialMetrics m;
  for (const TrialMetricField& f : fields) {
    EXPECT_TRUE(keys.insert(f.key).second) << f.key;
    EXPECT_NE(f.count == nullptr, f.span == nullptr) << f.key;
    const void* at = f.count != nullptr ? static_cast<const void*>(&(m.*f.count))
                                        : static_cast<const void*>(&(m.*f.span));
    EXPECT_TRUE(members.insert(at).second) << f.key;
    EXPECT_EQ(std::string(f.key).ends_with("_ns"), f.span != nullptr) << f.key;
  }
}

TEST(TrialSchema, EveryFieldSurvivesTheManifestRoundTrip) {
  const TrialOutcome t = full_outcome(1000);
  const std::string line = manifest_line(t, kHex);
  for (const TrialMetricField& f : trial_metric_fields())
    EXPECT_EQ(line.find("\"" + std::string(f.key) + "\":"),
              line.rfind("\"" + std::string(f.key) + "\":"))
        << f.key << " appears more than once";

  const TrialOutcome back = parse_manifest_line(line, kHex, 1);
  for (const TrialMetricField& f : trial_metric_fields())
    EXPECT_EQ(f.get(back), f.get(t)) << f.key;
  // The rows no earlier test round-tripped, by name.
  EXPECT_EQ(back.route_restores, t.route_restores);
  EXPECT_EQ(back.failovers, t.failovers);
  EXPECT_EQ(back.path_switches, t.path_switches);
  EXPECT_EQ(back.router_down_stall, t.router_down_stall);

  EXPECT_TRUE(back.from_manifest);
  EXPECT_EQ(back.index, t.index);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.status, t.status);
  EXPECT_EQ(back.reason, t.reason);
  EXPECT_EQ(back.checks, t.checks);
  EXPECT_EQ(back.violations, t.violations);
  EXPECT_EQ(back.sim_events, t.sim_events);
  EXPECT_EQ(back.budget_exhausted, t.budget_exhausted);
  EXPECT_EQ(back.digest, t.digest);
  EXPECT_EQ(back.divergence, t.divergence);
  EXPECT_EQ(back.attempts, t.attempts);
  EXPECT_EQ(back.worker_exit_status, t.worker_exit_status);
  EXPECT_EQ(back.stderr_tail, t.stderr_tail);
  ASSERT_TRUE(back.telemetry.has_value());
  EXPECT_EQ(back.telemetry->serialize(), t.telemetry->serialize());
  EXPECT_EQ(manifest_line(back, kHex), line);
}

TEST(TrialSchema, CompletedLineCarriesNoWorkerEvidence) {
  TrialOutcome t = full_outcome(5);
  t.status = TrialStatus::kCompleted;
  t.reason.clear();
  t.divergence.reset();
  t.telemetry.reset();
  const std::string line = manifest_line(t, kHex);
  EXPECT_EQ(line.find("attempts"), std::string::npos);
  EXPECT_EQ(line.find("telemetry"), std::string::npos);
  EXPECT_NE(line.find("\"divergence\":-1,"), std::string::npos);
  const TrialOutcome back = parse_manifest_line(line, kHex, 1);
  EXPECT_EQ(back.attempts, 0u);
  EXPECT_FALSE(back.divergence.has_value());
  EXPECT_FALSE(back.telemetry.has_value());
  EXPECT_EQ(manifest_line(back, kHex), line);
}

TEST(TrialSchema, FoldSumsEveryRow) {
  const TrialOutcome a = full_outcome(1000);
  const TrialOutcome b = full_outcome(50000);
  CampaignAggregate agg;
  agg.fold(a);
  agg.fold(b);
  EXPECT_EQ(agg.trials, 2u);
  for (const TrialMetricField& f : trial_metric_fields())
    EXPECT_EQ(f.get(agg), f.get(a) + f.get(b)) << f.key;
}

TEST(TrialSchema, SalvageSumsEachRowFromItsSessionMetric) {
  CampaignConfig config;
  config.clip.data_set = 1;
  config.clip.player = PlayerKind::kMediaPlayer;
  config.clip.encoded_rate = BitRate::kbps(33);
  config.clip.advertised_rate = BitRate::kbps(56);
  config.clip.length = Duration::seconds(5);
  config.scenario.path.hop_count = 2;
  config.scenario.extra_sim_time = Duration::seconds(5);
  config.scenario.episodes.push_back(
      FaultEpisode::burst_loss(SimTime::from_seconds(0.2), Duration::seconds(4),
                               GilbertElliottConfig{0.3, 0.25, 0.1, 0.6}));
  config.scenario.repair_layer.fec_k = 4;
  config.scenario.repair_layer.nack = true;
  const TrialOutcome t =
      campaign_detail::TrialRunner(config, campaign_detail::config_hex(config)).run(0);
  ASSERT_EQ(t.status, TrialStatus::kCompleted) << t.reason;
  ASSERT_TRUE(t.result.has_value());

  // Sums written out by hand, independent of the schema's session mapping.
  using S = SessionRecoveryMetrics;
  const auto sum = [&](auto member) {
    std::int64_t total = 0;
    for (const auto* m : {&t.result->real, &t.result->media}) {
      if (!*m) continue;
      const auto v = std::invoke(member, **m);
      if constexpr (std::is_same_v<decltype(v), const Duration>) total += v.ns();
      else total += static_cast<std::int64_t>(v);
    }
    return total;
  };
  const auto count = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  EXPECT_EQ(t.sessions, 1u);
  EXPECT_EQ(count(t.sessions_completed), sum(&S::completed));
  EXPECT_EQ(count(t.sessions_failed), sum(&S::session_failed));
  EXPECT_EQ(count(t.frames_rendered), sum(&S::frames_rendered));
  EXPECT_EQ(count(t.frames_dropped), sum(&S::frames_dropped));
  EXPECT_EQ(count(t.packets_received), sum(&S::packets_received));
  EXPECT_EQ(count(t.packets_lost), sum(&S::packets_lost));
  EXPECT_EQ(count(t.rebuffer_events), sum(&S::rebuffer_events));
  EXPECT_EQ(t.stall_time.ns(), sum(&S::stall_time));
  EXPECT_EQ(t.reroutes, t.result->reroutes);
  EXPECT_EQ(t.route_restores, t.result->route_restores);
  EXPECT_EQ(count(t.failovers), sum(&S::failovers));
  EXPECT_EQ(t.router_down_stall.ns(), sum(&S::stall_during_router_down));
  EXPECT_EQ(count(t.packets_recovered), sum(&S::packets_recovered));
  EXPECT_EQ(count(t.nacks_sent), sum(&S::nacks_sent));
  EXPECT_EQ(count(t.retransmissions_sent), sum(&S::retransmissions_sent));
  EXPECT_EQ(count(t.parity_packets), sum(&S::parity_packets));
  EXPECT_EQ(count(t.path_switches), sum(&S::path_switches));
  EXPECT_EQ(count(t.nack_suppressed), sum(&S::nack_suppressed));
  EXPECT_GT(t.frames_rendered, 0u);
  EXPECT_GT(t.parity_packets, 0u);
}

// --- Strict numbers: each malformed shape is a runtime_error naming the line.

/// A valid completed line with the value of `key` replaced by `value`.
std::string line_with(const std::string& key, const std::string& value) {
  TrialOutcome t = full_outcome(10);
  t.status = TrialStatus::kCompleted;
  std::string line = manifest_line(t, kHex);
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle) + needle.size();
  line.replace(at, line.find_first_of(",}", at) - at, value);
  return line;
}

void expect_rejected(const std::string& line, const std::string& what) {
  try {
    parse_manifest_line(line, kHex, 7);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("resume manifest line 7: ", 0), 0u) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  } catch (...) {
    ADD_FAILURE() << "threw something other than std::runtime_error";
  }
}

TEST(ManifestStrictNumbers, RejectsNonNumericSeed) {
  expect_rejected(line_with("seed", "x"), "\"seed\"");
}

TEST(ManifestStrictNumbers, RejectsNegativeUnsigned) {
  expect_rejected(line_with("seed", "-1"), "\"seed\"");
}

TEST(ManifestStrictNumbers, RejectsTrailingGarbage) {
  expect_rejected(line_with("packets_lost", "12abc"), "\"packets_lost\"");
}

TEST(ManifestStrictNumbers, RejectsOverlongNumber) {
  expect_rejected(line_with("seed", "184467440737095516150"), "\"seed\"");
}

TEST(ManifestStrictNumbers, RejectsMissingKeyAndBadLineThroughTheReader) {
  std::string line = line_with("stall_ns", "0");
  line.erase(line.find(",\"stall_ns\":0"), std::string(",\"stall_ns\":0").size());
  expect_rejected(line, "missing \"stall_ns\"");

  // A malformed line that is not the last one is corruption, not a torn
  // write: read_resume_manifest lets the runtime_error through.
  const std::string path = ::testing::TempDir() + "strict_numbers.ndjson";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << line_with("seed", "x") << '\n' << line_with("seed", "5") << '\n';
  }
  EXPECT_THROW(campaign_detail::read_resume_manifest(path, kHex, 10, false),
               std::runtime_error);
}

// --- The recorded campaign manifests still parse and re-serialize exactly.

TEST(ManifestGoldens, EveryGoldenLineReserializesByteForByte) {
  std::size_t lines = 0;
  for (const char* name : {"campaign_repair_fec8_nack.real", "campaign_repair_fec8_nack.media",
                           "campaign_multipath_chaos.real", "campaign_multipath_chaos.media"}) {
    std::ifstream in(std::string(STREAMLAB_GOLDEN_DIR) + "/" + name);
    ASSERT_TRUE(in) << name;
    std::string line;
    for (std::size_t n = 1; std::getline(in, line); ++n) {
      const std::string key = "\"config\":\"";
      const std::size_t at = line.find(key);
      ASSERT_NE(at, std::string::npos) << name << ":" << n;
      const std::string hex = line.substr(at + key.size(), 16);
      const TrialOutcome t = parse_manifest_line(line, hex, n);
      EXPECT_EQ(manifest_line(t, hex), line) << name << ":" << n;
      ++lines;
    }
  }
  EXPECT_EQ(lines, 16u);
}

}  // namespace
}  // namespace streamlab
