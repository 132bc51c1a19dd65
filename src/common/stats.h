#ifndef NEXT700_COMMON_STATS_H_
#define NEXT700_COMMON_STATS_H_

/// \file
/// Per-thread execution counters and their aggregation. Workers mutate
/// their own (cache-aligned) slot with plain stores; the driver aggregates
/// after the measurement barrier, so no atomics are needed on the hot path.

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/macros.h"

namespace next700 {

/// Counters one worker accumulates during a run.
struct NEXT700_CACHE_ALIGNED ThreadStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;          // CC-induced aborts (retried by the driver).
  uint64_t user_aborts = 0;     // Logic aborts, e.g. TPC-C 1% rollbacks.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t inserts = 0;
  uint64_t scans = 0;
  uint64_t log_bytes = 0;
  uint64_t lock_waits = 0;      // Times a lock request had to wait.
  uint64_t validation_fails = 0;
  Histogram commit_latency_ns;  // Latency of *successful* transactions.

  void Reset() {
    commits = aborts = user_aborts = reads = writes = inserts = scans = 0;
    log_bytes = lock_waits = validation_fails = 0;
    commit_latency_ns.Reset();
  }
};

/// Aggregate over all workers plus wall-clock context.
struct RunStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t user_aborts = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t inserts = 0;
  uint64_t scans = 0;
  uint64_t log_bytes = 0;
  uint64_t lock_waits = 0;
  uint64_t validation_fails = 0;
  double elapsed_seconds = 0;
  Histogram commit_latency_ns;

  void Add(const ThreadStats& t);

  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(commits) / elapsed_seconds
                               : 0.0;
  }

  /// aborts / (commits + aborts); 0 when idle.
  double AbortRatio() const {
    const uint64_t attempts = commits + aborts;
    return attempts == 0
               ? 0.0
               : static_cast<double>(aborts) / static_cast<double>(attempts);
  }

  std::string ToString() const;
};

/// Monotonic wall clock in nanoseconds.
uint64_t NowNanos();

/// Names the calling thread (Linux truncates to 15 bytes), so per-thread
/// CPU in /proc/<pid>/task/*/{comm,stat} reads by role: n7-loop<i>,
/// n7-worker<i>, n7-flush, n7-ckpt, n7-rloop<i>, n7-apply.
void SetThreadName(const std::string& name);

}  // namespace next700

#endif  // NEXT700_COMMON_STATS_H_
