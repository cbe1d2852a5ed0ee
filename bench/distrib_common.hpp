// Shared campaign config for the distributed-execution benchmarks: the
// coordinator (bench_distrib.cpp) and the worker child binary
// (bench_distrib_worker.cpp) must build byte-identical configs or the
// hello digest handshake rejects the fleet.
//
// The catalog's tiny campaign, as in bench_campaign / bench_telemetry — two
// hops, one mid-clip outage flap — but on the paper-scale 60 s clip:
// distribution exists for minute-scale IMC trials, and on the 5 s stress
// clip the per-fleet spawn cost would drown the signal being measured.
#pragma once

#include <cstddef>

#include "core/scenarios.hpp"

namespace streamlab::bench_distrib {

inline CampaignConfig campaign_config(std::size_t trials) {
  CampaignConfig config =
      tiny_campaign_config(trials, /*base_seed=*/9000, Duration::seconds(60));
  config.workers = 1;
  return config;
}

}  // namespace streamlab::bench_distrib
