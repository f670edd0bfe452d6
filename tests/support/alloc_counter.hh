/**
 * @file
 * Heap accounting for footprint tests. Linking alloc_counter.cc into a
 * test binary replaces global operator new/delete there with counting
 * malloc/free wrappers; link it only into binaries whose tests read
 * these counters, so unrelated suites keep the stock allocator.
 */

#ifndef DBSIM_TESTS_SUPPORT_ALLOC_COUNTER_HH
#define DBSIM_TESTS_SUPPORT_ALLOC_COUNTER_HH

#include <cstdint>

namespace dbsim::test {

/** Calls to operator new since process start. */
std::uint64_t heapAllocs();

/** Bytes requested from operator new since process start. */
std::uint64_t heapBytes();

} // namespace dbsim::test

#endif // DBSIM_TESTS_SUPPORT_ALLOC_COUNTER_HH
