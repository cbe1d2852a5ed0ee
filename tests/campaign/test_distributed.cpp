// Crash-tolerance integration tests for the distributed campaign
// coordinator. Every test spawns real campaign_worker_testbed child
// processes (path baked in via STREAMLAB_WORKER_TESTBED) and exercises one
// leg of the failure plane with deterministic fault injection; the
// byte-parity tests assert the headline guarantee — the distributed
// manifest is identical to the serial one even across worker deaths.
#include "campaign/distributed.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tiny_campaign.hpp"

namespace streamlab::campaign {
namespace {

using campaign_test::tiny_campaign;

std::string temp_manifest(const char* name) {
  std::string path = ::testing::TempDir() + "distrib_" + name + ".ndjson";
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Worker command line for a given trial count (must match the config the
/// coordinator runs, or the hello handshake rejects the worker).
std::vector<std::string> testbed_argv(std::size_t trials) {
  return {STREAMLAB_WORKER_TESTBED, std::to_string(trials)};
}

DistributedOptions fast_options(std::size_t trials, std::size_t workers) {
  DistributedOptions opts;
  opts.worker_argv = testbed_argv(trials);
  opts.workers = workers;
  opts.heartbeat_timeout = std::chrono::milliseconds(5000);
  opts.trial_deadline = std::chrono::milliseconds(30000);
  opts.reassign_backoff = std::chrono::milliseconds(10);
  opts.restart_backoff = std::chrono::milliseconds(20);
  return opts;
}

TEST(Distributed, ManifestBytesIdenticalToSerial) {
  CampaignConfig serial_cfg = tiny_campaign(6);
  serial_cfg.workers = 1;
  serial_cfg.manifest_path = temp_manifest("serial_base");
  const CampaignResult serial = run_campaign(serial_cfg);
  ASSERT_EQ(serial.completed, 6u);

  CampaignConfig cfg = tiny_campaign(6);
  cfg.manifest_path = temp_manifest("distrib_base");
  const CampaignResult distributed =
      run_distributed_campaign(cfg, fast_options(6, 4));
  EXPECT_EQ(distributed.completed, 6u);
  EXPECT_EQ(distributed.quarantined, 0u);
  EXPECT_EQ(distributed.workers_lost, 0u);
  EXPECT_FALSE(distributed.degraded_to_in_process);

  EXPECT_EQ(slurp(cfg.manifest_path), slurp(serial_cfg.manifest_path));
  EXPECT_EQ(distributed.aggregate.frames_rendered, serial.aggregate.frames_rendered);
  EXPECT_EQ(distributed.aggregate.packets_lost, serial.aggregate.packets_lost);
  EXPECT_EQ(distributed.telemetry.summary(), serial.telemetry.summary());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(distributed.trials[i].digest, serial.trials[i].digest) << i;
    EXPECT_EQ(distributed.trials[i].seed, serial.trials[i].seed) << i;
  }
}

// The acceptance-criteria test: a worker crashes while holding a trial; the
// trial is reassigned to a healthy worker and the campaign completes with
// zero lost trials and a manifest byte-identical to the unkilled serial run.
TEST(Distributed, KilledWorkerTrialReassignedByteIdentical) {
  CampaignConfig serial_cfg = tiny_campaign(6);
  serial_cfg.workers = 1;
  serial_cfg.manifest_path = temp_manifest("serial_kill");
  const CampaignResult serial = run_campaign(serial_cfg);
  ASSERT_EQ(serial.completed, 6u);

  CampaignConfig cfg = tiny_campaign(6);
  cfg.manifest_path = temp_manifest("distrib_kill");
  DistributedOptions opts = fast_options(6, 2);
  // The coordinator SIGKILLs worker 0 once two results have landed and it
  // holds a trial, and declares it dead on the spot. At least three trials
  // are unfinished then, and worker 1 takes no new one while worker 0 is
  // still starting, so worker 0 is sure to hold one; that trial is
  // reassigned even if the worker wrote its result just before the kill.
  opts.kill_worker_after = 2;
  opts.max_trial_attempts = 4;
  opts.max_worker_restarts = 1;
  const CampaignResult result = run_distributed_campaign(cfg, opts);

  EXPECT_EQ(result.completed, 6u);
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_GE(result.reassigned_trials, 1u);
  EXPECT_GT(result.reassignment_latency_ns, 0u);
  EXPECT_FALSE(result.degraded_to_in_process);

  // Zero lost trials, byte-identical results: same manifest bytes, same
  // per-trial replay digests, same campaign telemetry digest.
  EXPECT_EQ(slurp(cfg.manifest_path), slurp(serial_cfg.manifest_path));
  EXPECT_EQ(result.telemetry.summary(), serial.telemetry.summary());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(result.trials[i].digest, serial.trials[i].digest) << i;
}

TEST(Distributed, PoisonTrialQuarantinedWithWorkerEvidence) {
  CampaignConfig cfg = tiny_campaign(3);
  cfg.manifest_path = temp_manifest("poison");
  DistributedOptions opts = fast_options(3, 2);
  // Every worker crashes on trial 1, so it can never complete; after
  // max_trial_attempts it must be quarantined poison instead of
  // livelocking the fleet.
  opts.worker_env = {{"STREAMLAB_WORKER_FAULT=abort-on-trial:1"},
                     {"STREAMLAB_WORKER_FAULT=abort-on-trial:1"}};
  opts.max_trial_attempts = 2;
  opts.max_worker_restarts = 3;
  const CampaignResult result = run_distributed_campaign(cfg, opts);

  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.quarantined, 1u);
  ASSERT_EQ(result.trials.size(), 3u);
  const TrialOutcome& poison = result.trials[1];
  EXPECT_EQ(poison.status, TrialStatus::kQuarantined);
  EXPECT_EQ(poison.attempts, 2u);
  EXPECT_EQ(poison.worker_exit_status, 42);
  EXPECT_NE(poison.stderr_tail.find("injected abort"), std::string::npos);
  EXPECT_NE(poison.reason.find("poison"), std::string::npos);

  // The manifest records the worker evidence and survives a resume parse.
  const std::string manifest = slurp(cfg.manifest_path);
  EXPECT_NE(manifest.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(manifest.find("\"worker_exit_status\":42"), std::string::npos);
  EXPECT_NE(manifest.find("injected abort"), std::string::npos);
  CampaignConfig resume = tiny_campaign(3);
  resume.manifest_path = cfg.manifest_path;
  resume.workers = 1;
  const CampaignResult resumed = run_campaign(resume);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.trials[1].attempts, 2u);
  EXPECT_EQ(resumed.trials[1].worker_exit_status, 42);

  // The flight-recorder post-mortem distinguishes "worker died".
  ASSERT_EQ(result.postmortem_paths.size(), 1u);
  const std::string postmortem = slurp(result.postmortem_paths[0]);
  EXPECT_NE(postmortem.find("\"record\":\"worker\""), std::string::npos);
  EXPECT_NE(postmortem.find("\"exit_status\":42"), std::string::npos);
}

TEST(Distributed, AllWorkersDeadDegradesToInProcess) {
  CampaignConfig serial_cfg = tiny_campaign(4);
  serial_cfg.workers = 1;
  serial_cfg.manifest_path = temp_manifest("serial_degrade");
  const CampaignResult serial = run_campaign(serial_cfg);

  CampaignConfig cfg = tiny_campaign(4);
  cfg.manifest_path = temp_manifest("degrade");
  DistributedOptions opts = fast_options(4, 2);
  // A fleet that can never produce a worker: exec fails instantly (exit
  // 127) every spawn. Once restarts are exhausted the campaign must finish
  // in-process, not abort.
  opts.worker_argv = {"/nonexistent/streamlab_worker_binary"};
  opts.max_worker_restarts = 1;
  const CampaignResult result = run_distributed_campaign(cfg, opts);

  EXPECT_TRUE(result.degraded_to_in_process);
  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_TRUE(result.ok());
  // The degraded path re-serializes with the same codec: still identical.
  EXPECT_EQ(slurp(cfg.manifest_path), slurp(serial_cfg.manifest_path));
  EXPECT_EQ(result.telemetry.summary(), serial.telemetry.summary());
}

// A degraded run is the in-thread backend: each trial commits (manifest
// line flushed, progress hook fired) before the next one starts, so a crash
// while degraded loses at most the trial in hand.
TEST(Distributed, DegradedRunCommitsEachTrialBeforeTheNext) {
  CampaignConfig cfg = tiny_campaign(4);
  cfg.manifest_path = temp_manifest("degrade_order");
  std::vector<std::string> log;
  cfg.fault_hook = [&log](audit::Auditor&, std::size_t index, std::uint64_t) {
    log.push_back("run " + std::to_string(index));
  };
  cfg.progress_every = 1;
  cfg.progress_hook = [&log](const CampaignProgress& p) {
    log.push_back("commit " + std::to_string(p.trials_done - 1));
  };
  DistributedOptions opts = fast_options(4, 2);
  opts.worker_argv = {"/nonexistent/streamlab_worker_binary"};
  opts.max_worker_restarts = 1;
  const CampaignResult result = run_distributed_campaign(cfg, opts);

  EXPECT_TRUE(result.degraded_to_in_process);
  EXPECT_EQ(result.completed, 4u);
  const std::vector<std::string> expected = {"run 0", "commit 0", "run 1", "commit 1",
                                             "run 2", "commit 2", "run 3", "commit 3"};
  EXPECT_EQ(log, expected);
}

// Latency runs from a worker's failure to the trial's restart, wherever it
// restarts: here the only worker hangs on trial 0, cannot respawn, and the
// trial restarts in-thread.
TEST(Distributed, ReassignmentLatencyCountsTrialsRestartedInThread) {
  CampaignConfig cfg = tiny_campaign(3);
  DistributedOptions opts = fast_options(3, 1);
  opts.worker_env = {{"STREAMLAB_WORKER_FAULT=hang-on-trial:0"}};
  opts.trial_deadline = std::chrono::milliseconds(400);
  opts.max_worker_restarts = 0;
  const CampaignResult result = run_distributed_campaign(cfg, opts);
  EXPECT_TRUE(result.degraded_to_in_process);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.reassigned_trials, 1u);
  EXPECT_GT(result.reassignment_latency_ns, 0u);
}

TEST(Distributed, HungTrialHitsDeadlineAndIsReassigned) {
  CampaignConfig cfg = tiny_campaign(3);
  DistributedOptions opts = fast_options(3, 2);
  // Whichever worker draws trial 0 hangs forever with heartbeats still
  // flowing: the generous heartbeat timeout must NOT fire — the per-trial
  // deadline is what detects this failure mode. Trial 0 burns through both
  // worker lives (restarts disabled), then finishes in the degraded
  // in-process pool; the default attempt cap keeps it short of poison.
  opts.worker_env = {{"STREAMLAB_WORKER_FAULT=hang-on-trial:0"},
                     {"STREAMLAB_WORKER_FAULT=hang-on-trial:0"}};
  opts.heartbeat_timeout = std::chrono::milliseconds(60000);
  opts.trial_deadline = std::chrono::milliseconds(400);
  opts.max_worker_restarts = 0;
  const CampaignResult result = run_distributed_campaign(cfg, opts);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_GE(result.reassigned_trials, 1u);
}

TEST(Distributed, MuteWorkerCaughtByHeartbeatTimeout) {
  CampaignConfig cfg = tiny_campaign(3);
  DistributedOptions opts = fast_options(3, 2);
  // Whichever worker draws trial 0 goes silent — no heartbeats, no result,
  // no exit. Only the heartbeat timeout can catch this one.
  opts.worker_env = {{"STREAMLAB_WORKER_FAULT=mute-on-trial:0",
                      "STREAMLAB_WORKER_HEARTBEAT_MS=50"},
                     {"STREAMLAB_WORKER_FAULT=mute-on-trial:0",
                      "STREAMLAB_WORKER_HEARTBEAT_MS=50"}};
  opts.heartbeat_timeout = std::chrono::milliseconds(500);
  opts.trial_deadline = std::chrono::milliseconds(0);  // disabled
  opts.max_worker_restarts = 0;
  const CampaignResult result = run_distributed_campaign(cfg, opts);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_GE(result.reassigned_trials, 1u);
}

TEST(Distributed, GarbageOutputWorkerIsFailed) {
  CampaignConfig cfg = tiny_campaign(3);
  DistributedOptions opts = fast_options(3, 2);
  // Whichever worker draws trial 0 writes non-protocol bytes: the frame
  // stream turns corrupt and the worker is treated as dead.
  opts.worker_env = {{"STREAMLAB_WORKER_FAULT=garbage-on-trial:0"},
                     {"STREAMLAB_WORKER_FAULT=garbage-on-trial:0"}};
  opts.max_worker_restarts = 0;
  const CampaignResult result = run_distributed_campaign(cfg, opts);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.workers_lost, 1u);
}

TEST(Distributed, ConfigDigestMismatchBansWorkerAndDegrades) {
  CampaignConfig cfg = tiny_campaign(3);
  DistributedOptions opts = fast_options(3, 2);
  // Workers built for a 4-trial study: their hello digest differs, they are
  // banned (a respawn cannot fix a wrong binary), and the fleet being
  // unusable degrades to in-process execution.
  opts.worker_argv = testbed_argv(4);
  const CampaignResult result = run_distributed_campaign(cfg, opts);
  EXPECT_TRUE(result.degraded_to_in_process);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.workers_lost, 2u);
}

TEST(Distributed, ResumeSkipsCommittedTrialsAcrossModes) {
  // A serial run that stopped after 2 of 5 trials (manifest cut at the
  // second line, as an interrupted study would leave it): the distributed
  // run must resume those two and only execute the remaining three.
  CampaignConfig full = tiny_campaign(5);
  full.workers = 1;
  full.manifest_path = temp_manifest("resume_full");
  run_campaign(full);
  const std::string full_manifest = slurp(full.manifest_path);

  std::size_t second_newline = full_manifest.find('\n');
  ASSERT_NE(second_newline, std::string::npos);
  second_newline = full_manifest.find('\n', second_newline + 1);
  ASSERT_NE(second_newline, std::string::npos);
  CampaignConfig cfg = tiny_campaign(5);
  cfg.manifest_path = temp_manifest("resume_mixed");
  {
    std::ofstream out(cfg.manifest_path, std::ios::binary);
    out << full_manifest.substr(0, second_newline + 1);
  }

  const CampaignResult result = run_distributed_campaign(cfg, fast_options(5, 2));
  EXPECT_EQ(result.resumed, 2u);
  EXPECT_EQ(result.completed, 5u);
  EXPECT_TRUE(result.ok());
  // And the re-grown manifest equals the uninterrupted serial run's.
  EXPECT_EQ(slurp(cfg.manifest_path), full_manifest);
}

// `workers` means what it means for the thread pool: never more workers
// than pending trials.
TEST(Distributed, WorkerCountCappedAtPendingTrials) {
  CampaignConfig full = tiny_campaign(3);
  full.workers = 1;
  full.manifest_path = temp_manifest("cap_full");
  run_campaign(full);
  const std::string full_manifest = slurp(full.manifest_path);

  CampaignConfig cfg = tiny_campaign(3);
  cfg.manifest_path = temp_manifest("cap_resume");
  {
    std::ofstream out(cfg.manifest_path, std::ios::binary);
    out << full_manifest.substr(0, full_manifest.rfind('\n', full_manifest.size() - 2) + 1);
  }
  std::vector<std::size_t> workers_seen;
  cfg.progress_every = 1;
  cfg.progress_hook = [&workers_seen](const CampaignProgress& p) {
    workers_seen.push_back(p.workers);
  };
  const CampaignResult result = run_distributed_campaign(cfg, fast_options(3, 4));
  EXPECT_EQ(result.resumed, 2u);
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(workers_seen, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(result.workers, 1u);
  EXPECT_EQ(slurp(cfg.manifest_path), full_manifest);
}

TEST(Distributed, ProgressReportsWorkerUtilization) {
  // Trials that come back from a worker process count their wall time as
  // busy time, as pool threads' trials do.
  CampaignConfig cfg = tiny_campaign(4);
  double utilization = 0.0;
  cfg.progress_every = 4;
  cfg.progress_hook = [&utilization](const CampaignProgress& p) {
    utilization = p.worker_utilization;
  };
  const CampaignResult result = run_distributed_campaign(cfg, fast_options(4, 2));
  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.workers, 2u);
  EXPECT_GT(utilization, 0.0);
}

TEST(Distributed, EmptyWorkerArgvThrows) {
  CampaignConfig cfg = tiny_campaign(1);
  DistributedOptions opts;
  EXPECT_THROW(run_distributed_campaign(cfg, opts), std::runtime_error);
}

}  // namespace
}  // namespace streamlab::campaign
