// Heap-traffic counters for the allocation test binaries.
//
// alloc_counter.cpp replaces global operator new/delete with counting
// versions, so only a binary that links it (test_sim_alloc,
// test_obs_alloc) counts; the other suites keep the stock allocator.
// gtest and the runtime allocate freely around a measured region, so
// tests read the deltas across it.
#pragma once

#include <cstdint>

namespace express::test {

/// Calls to operator new since the process started.
[[nodiscard]] std::uint64_t allocation_count();
/// Bytes requested from operator new since the process started.
[[nodiscard]] std::uint64_t allocated_bytes();

}  // namespace express::test
