// Distributed campaign coordinator: the process backend of the campaign
// executor (campaign_detail::Executor, core/campaign.hpp).
//
// The executor owns everything order-sensitive — the resume manifest, the
// pending list, the ordered commit, the aggregate folds — exactly as for the
// in-thread and thread backends, so results are byte-identical with the
// serial path at any worker count. This backend only runs trials: each
// worker is a child process (see worker.hpp) fed assignments over the
// length-prefixed pipe protocol (protocol.hpp) and answering with its own
// serialized manifest line, which the executor writes verbatim.
//
// The failure plane (DESIGN.md §14):
//   detect    pipe EOF (fast death), heartbeat timeout (stuck process),
//             per-trial deadline (hung trial, heartbeats still flowing),
//             frame-stream corruption (garbage output), hello digest
//             mismatch (wrong binary/flags)
//   reassign  a failed worker's in-flight trial goes back to the pending
//             queue with capped attempts and exponential backoff
//   poison    a trial that has consumed max_trial_attempts worker
//             attempts is quarantined with worker evidence (attempts,
//             exit status, stderr tail) instead of livelocking the fleet
//   restart   dead worker slots respawn with exponential backoff up to
//             max_worker_restarts times each
//   degrade   a fully-dead fleet with restarts exhausted hands the
//             remaining trials to the in-thread backend, which commits
//             each before running the next — the study completes, it
//             does not abort
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace streamlab::campaign {

struct DistributedOptions {
  /// Command line exec'd for each worker; argv[0] is the binary path. The
  /// worker must call run_campaign_worker() with an identically-shaped
  /// CampaignConfig (the hello handshake verifies the config digest).
  std::vector<std::string> worker_argv;

  /// Worker process count, resolved as CampaignConfig::workers is: 0 = one
  /// per hardware thread, and never more than the trials still pending.
  std::size_t workers = 4;

  /// Worker attempts a trial may consume before it is quarantined poison.
  std::uint32_t max_trial_attempts = 3;

  /// Respawns allowed per worker slot after its first spawn.
  std::size_t max_worker_restarts = 2;

  /// No heartbeat (or hello) for this long marks the worker dead.
  std::chrono::milliseconds heartbeat_timeout{2000};

  /// Wall-clock ceiling for one assignment; 0 disables. Catches hung
  /// trials on workers whose heartbeats still flow.
  std::chrono::milliseconds trial_deadline{0};

  /// Base of the exponential backoff before a failed trial is reassigned
  /// (doubles per consumed attempt).
  std::chrono::milliseconds reassign_backoff{25};

  /// Base of the exponential backoff before a dead slot respawns.
  std::chrono::milliseconds restart_backoff{50};

  /// Fault injection: SIGKILL worker slot 0 once this many results have
  /// been received fleet-wide and it holds a trial (0 = off); that trial
  /// is reassigned. Drives the --kill-worker-after CLI flag and the CI
  /// reassignment-determinism smoke.
  std::size_t kill_worker_after = 0;

  /// Extra environment ("NAME=value") per worker slot, e.g. planting
  /// STREAMLAB_WORKER_FAULT on one slot. Slots beyond the vector get none.
  std::vector<std::vector<std::string>> worker_env;
};

/// Runs the campaign across worker processes. Honors config.manifest_path
/// (resume + ordered append), config.cancel, progress hooks — the full
/// run_campaign() contract — and fills the CampaignResult failure-plane
/// fields (workers_lost, worker_restarts, reassigned_trials,
/// reassignment_latency_ns, degraded_to_in_process).
CampaignResult run_distributed_campaign(const CampaignConfig& config,
                                        const DistributedOptions& options);

}  // namespace streamlab::campaign
