// Counting allocator for the benches that gate on heap allocations.
// Linking counting_alloc.cc replaces the global operator new/delete.
// The counts are per-thread, so worker threads (analyzer shards) can't
// pollute a measurement loop on the calling thread.
#pragma once

#include <cstdint>

namespace zpm::bench {

/// operator new calls made by this thread so far.
std::uint64_t thread_allocs();
/// Bytes requested through operator new by this thread so far.
std::uint64_t thread_alloc_bytes();

}  // namespace zpm::bench
