// Distributed campaign worker: the child-process half of the coordinator/
// worker split. run_campaign_worker() speaks the campaign::protocol over
// stdin/stdout — hello handshake, assignment loop, heartbeats — and runs
// each assigned trial with the campaign_detail::TrialRunner every backend
// uses, serializing the outcome with the same manifest codec. The coordinator writes those
// bytes verbatim, which is what keeps a distributed campaign's manifest
// byte-identical with the serial path.
//
// Deterministic fault injection (CI-testable failure plane) is driven by
// the STREAMLAB_WORKER_FAULT environment variable:
//   abort-on-trial:N    write a stderr line and _exit(42) when trial N is
//                       assigned (crash-before-result)
//   hang-on-trial:N     never finish trial N but keep heartbeating
//                       (caught by the per-trial deadline)
//   mute-on-trial:N     stop heartbeats and hang on trial N
//                       (caught by the heartbeat timeout)
//   garbage-on-trial:N  write non-protocol bytes to stdout on trial N
//                       (caught by frame-stream corruption)
//   abort-after:N       _exit(42) after sending N results
// STREAMLAB_WORKER_HEARTBEAT_MS overrides the heartbeat period (default
// 100 ms).
#pragma once

#include "core/campaign.hpp"

namespace streamlab::campaign {

/// Runs the worker protocol loop over stdin(0)/stdout(1) until shutdown or
/// EOF. `config` must be built from the same parameters as the
/// coordinator's (the hello handshake verifies the config digest).
/// Coordinator-only fields (manifest_path, progress_hook, cancel, workers)
/// are ignored. Returns the process exit code.
int run_campaign_worker(const CampaignConfig& config);

}  // namespace streamlab::campaign
