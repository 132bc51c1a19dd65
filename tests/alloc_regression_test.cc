/// \file
/// Allocation regression guard for the zero-allocation hot path (PR "per-
/// worker arenas, inline access sets, batched timestamps"). Global operator
/// new is replaced with a counting shim, transactions run inline on the
/// test thread, and the steady-state YCSB read-only path must perform
/// exactly zero heap allocations under SILO and MVTO.
///
/// This file is its own test binary (see tests/CMakeLists.txt): replacing
/// operator new is binary-global, and the main suite should not run under
/// the shim.

#include <gtest/gtest.h>

#include "counting_allocator.h"
#include "workload/ycsb.h"

namespace next700 {
namespace {

uint64_t SteadyStateAllocations(CcScheme scheme) {
  EngineOptions options;
  options.cc_scheme = scheme;
  options.max_threads = 1;
  Engine engine(options);
  YcsbOptions ycsb;
  ycsb.num_records = 1 << 12;
  ycsb.ops_per_txn = 16;
  ycsb.write_fraction = 0.0;  // Read-only: the acceptance path.
  YcsbWorkload workload(ycsb);
  workload.Load(&engine);

  Rng rng(7);
  // Warm-up grows the arena, the version pools, and the thread-local
  // workload scratch to their steady-state footprint.
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(workload.RunNextTxn(&engine, 0, &rng).ok());
  }
  const uint64_t before = counting_allocator::AllocationCount();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(workload.RunNextTxn(&engine, 0, &rng).ok());
  }
  return counting_allocator::AllocationCount() - before;
}

TEST(AllocRegressionTest, SiloReadOnlyHotPathIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(CcScheme::kOcc), 0u);
}

TEST(AllocRegressionTest, MvtoReadOnlyHotPathIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(CcScheme::kMvto), 0u);
}

// Sanity-check the shim itself: a vector growth must be visible, otherwise
// the two tests above would pass vacuously.
TEST(AllocRegressionTest, ShimCountsAllocations) {
  const uint64_t before = counting_allocator::AllocationCount();
  std::vector<uint64_t>* v = new std::vector<uint64_t>();
  v->resize(1024);
  delete v;
  EXPECT_GE(counting_allocator::AllocationCount() - before, 2u);
}

}  // namespace
}  // namespace next700
