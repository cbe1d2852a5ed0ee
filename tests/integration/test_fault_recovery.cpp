// Acceptance tests for the fault-injection + session-recovery stack: a
// mid-stream link outage shorter than the delay buffer is survived, an
// outage longer than the inactivity window is detected by the watchdog
// (with the event loop draining, not hanging), and both runs replay
// bit-identically under the same seed. Both are turbulence_lab's catalog
// scenarios (core/scenarios.hpp).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/scenarios.hpp"
#include "core/turbulence.hpp"

namespace streamlab {
namespace {

const ClipSet& study_set() { return table1_catalog()[0]; }

void expect_identical(const SessionRecoveryMetrics& a, const SessionRecoveryMetrics& b) {
  EXPECT_EQ(a.established, b.established);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.stream_dead, b.stream_dead);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.play_attempts, b.play_attempts);
  ASSERT_EQ(a.time_to_recover.has_value(), b.time_to_recover.has_value());
  if (a.time_to_recover)
    EXPECT_EQ(a.time_to_recover->ns(), b.time_to_recover->ns());
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.stall_time.ns(), b.stall_time.ns());
  EXPECT_EQ(a.frames_rendered, b.frames_rendered);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.frames_dropped_during_episodes, b.frames_dropped_during_episodes);
  EXPECT_EQ(a.frames_dropped_after_episodes, b.frames_dropped_after_episodes);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.duplicate_packets, b.duplicate_packets);
}

TEST(FaultRecovery, ShortOutageSurvivedWithZeroAbandonedSessions) {
  const auto run =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("short-outage"));

  ASSERT_TRUE(run.real.has_value());
  ASSERT_TRUE(run.media.has_value());
  EXPECT_EQ(run.sessions_abandoned(), 0);
  for (const auto* m : {&*run.real, &*run.media}) {
    EXPECT_TRUE(m->established);
    EXPECT_FALSE(m->abandoned);
    EXPECT_FALSE(m->stream_dead);
    EXPECT_TRUE(m->completed) << m->clip.id();
    // The flap really bit: packets were lost, and data flowed again after.
    EXPECT_GT(m->packets_lost, 0u);
    ASSERT_TRUE(m->time_to_recover.has_value());
    EXPECT_LT(m->time_to_recover->to_seconds(), 8.0);
  }
  ASSERT_EQ(run.episodes.size(), 1u);
  EXPECT_TRUE(run.episodes[0].applied);
  EXPECT_TRUE(run.episodes[0].cleared);
  EXPECT_GT(run.episodes[0].packets_dropped, 0u);
}

TEST(FaultRecovery, LongOutageTerminatedByWatchdogNotHang) {
  // This test completing at all is the no-hung-event-loop assertion: the
  // runner's final loop.run() only returns once every timer has drained.
  const auto run =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("long-outage"));

  ASSERT_TRUE(run.real.has_value());
  ASSERT_TRUE(run.media.has_value());
  EXPECT_EQ(run.sessions_abandoned(), 2);
  for (const auto* m : {&*run.real, &*run.media}) {
    EXPECT_TRUE(m->established);       // the handshake had long succeeded
    EXPECT_TRUE(m->stream_dead);       // ...then the watchdog declared death
    EXPECT_FALSE(m->abandoned);        // not a handshake failure
    EXPECT_FALSE(m->completed);
    EXPECT_TRUE(m->session_failed());
    EXPECT_GT(m->frames_dropped, 0u);
  }
}

TEST(FaultRecovery, DeterministicAcrossRunsWithSameSeed) {
  const auto short_a =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("short-outage"));
  const auto short_b =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("short-outage"));
  ASSERT_TRUE(short_a.real && short_b.real && short_a.media && short_b.media);
  expect_identical(*short_a.real, *short_b.real);
  expect_identical(*short_a.media, *short_b.media);
  ASSERT_EQ(short_a.episodes.size(), short_b.episodes.size());
  for (std::size_t i = 0; i < short_a.episodes.size(); ++i)
    EXPECT_EQ(short_a.episodes[i].packets_dropped, short_b.episodes[i].packets_dropped);

  const auto long_a =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("long-outage"));
  const auto long_b =
      run_turbulence_pair(study_set(), RateTier::kLow, lab_scenario("long-outage"));
  ASSERT_TRUE(long_a.real && long_b.real && long_a.media && long_b.media);
  expect_identical(*long_a.real, *long_b.real);
  expect_identical(*long_a.media, *long_b.media);
}

TEST(FaultRecovery, CsvExportCarriesScenarioRows) {
  std::vector<std::pair<std::string, TurbulenceRunResult>> runs;
  runs.emplace_back("short-outage", run_turbulence_pair(study_set(), RateTier::kLow,
                                                        lab_scenario("short-outage")));
  const std::string csv = turbulence_csv(runs);
  EXPECT_NE(csv.find("scenario,clip_id,player"), std::string::npos);
  EXPECT_NE(csv.find("short-outage"), std::string::npos);
  const std::string episodes = turbulence_episodes_csv(runs);
  EXPECT_NE(episodes.find("short-flap"), std::string::npos);
}

}  // namespace
}  // namespace streamlab
