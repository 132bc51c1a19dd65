#include "common/stats.h"

#include <pthread.h>

#include <ctime>

namespace next700 {

void RunStats::Add(const ThreadStats& t) {
  commits += t.commits;
  aborts += t.aborts;
  user_aborts += t.user_aborts;
  reads += t.reads;
  writes += t.writes;
  inserts += t.inserts;
  scans += t.scans;
  log_bytes += t.log_bytes;
  lock_waits += t.lock_waits;
  validation_fails += t.validation_fails;
  commit_latency_ns.Merge(t.commit_latency_ns);
}

std::string RunStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "commits=%llu aborts=%llu abort_ratio=%.3f tput=%.0f txn/s",
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(aborts), AbortRatio(),
                Throughput());
  return buf;
}

uint64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SetThreadName(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace next700
