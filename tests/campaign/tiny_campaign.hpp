// The tiny campaign of the campaign tests and the campaign_worker_testbed
// binary. Coordinator (test process) and worker (child process) must build
// byte-for-byte the same CampaignConfig — the hello handshake compares
// config digests — so both take it from the scenario catalog here.
#pragma once

#include <cstddef>

#include "core/scenarios.hpp"

namespace streamlab::campaign_test {

inline CampaignConfig tiny_campaign(std::size_t trials) {
  return tiny_campaign_config(trials, /*base_seed=*/100);
}

}  // namespace streamlab::campaign_test
