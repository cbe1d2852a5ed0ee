// Counting global operator new, compiled into the benchmark binary only.
//
// Every heap allocation the benchmark process makes — simulator internals
// and campaign pool threads included — bumps a counter owned by the
// allocating thread. Each thread writes only its own counter, so the hot
// path is an uncontended relaxed store; readers sum all threads' counters.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far by every thread of this process.
std::uint64_t allocations();

}  // namespace perfbench
