/// F8 (table) — Logging overhead across the composition space: no logging
/// vs value logging vs command logging, each under the three durability
/// barriers (none = page-cache only, fdatasync after each group-commit
/// flush, O_DSYNC segments), on TPC-C with synchronous group commit.
/// Earlier revisions modelled the device with a sleep
/// (log_device_latency_us); the sync-policy axis replaces that with real
/// barriers — see EXPERIMENTS.md for the old simulated numbers. Expected
/// shape [Aether; H-Store]: command logs are a fraction of value-log
/// bytes; group commit amortizes the barrier across concurrent commits so
/// throughput stays usable even with fdatasync on every flush.

#include "bench_common.h"

using namespace next700;
using namespace next700::bench;

int main(int argc, char** argv) {
  JsonOutput json(argc, argv);
  json.SetExperiment(
      "F8", "logging overhead: kind x sync policy (TPC-C, sync commit)");
  PrintHeader("F8",
              "logging overhead: kind x sync policy (TPC-C, sync commit)",
              "logging,sync,throughput_txn_s,log_mb,mb_per_ktxn,flushes,"
              "barriers");
  const uint32_t warehouses = QuickMode() ? 1 : 2;
  for (LoggingKind kind :
       {LoggingKind::kNone, LoggingKind::kValue, LoggingKind::kCommand}) {
    for (LogSyncPolicy sync :
         {LogSyncPolicy::kNone, LogSyncPolicy::kFdatasync,
          LogSyncPolicy::kODsync}) {
      if (kind == LoggingKind::kNone && sync != LogSyncPolicy::kNone) {
        continue;
      }
      EngineOptions eng;
      eng.cc_scheme = CcScheme::kNoWait;
      eng.max_threads = static_cast<int>(warehouses);
      eng.num_partitions = warehouses;
      eng.logging = kind;
      eng.log_sync = sync;
      eng.sync_commit = true;
      char dir[128];
      std::snprintf(dir, sizeof(dir), "/tmp/next700_f8_%s_%s.logd",
                    LoggingKindName(kind), LogSyncPolicyName(sync));
      RemoveLogDir(dir);
      eng.log_dir = dir;
      Engine engine(eng);
      TpccWorkload workload(BenchTpcc(warehouses));
      workload.Load(&engine);
      DriverOptions driver;
      driver.num_threads = static_cast<int>(warehouses);
      driver.warmup_seconds = WarmupSeconds();
      driver.measure_seconds = MeasureSeconds();
      const RunStats stats = Driver::Run(&engine, &workload, driver);
      const double log_mb =
          static_cast<double>(stats.log_bytes) / (1024.0 * 1024.0);
      const double mb_per_ktxn =
          stats.commits == 0
              ? 0.0
              : log_mb / (static_cast<double>(stats.commits) / 1000.0);
      const uint64_t flushes =
          engine.log_manager() != nullptr ? engine.log_manager()->flush_count()
                                          : 0;
      const uint64_t barriers =
          engine.log_manager() != nullptr ? engine.log_manager()->sync_count()
                                          : 0;
      std::printf("%s,%s,%.0f,%.2f,%.3f,%llu,%llu\n", LoggingKindName(kind),
                  LogSyncPolicyName(sync), stats.Throughput(), log_mb,
                  mb_per_ktxn, static_cast<unsigned long long>(flushes),
                  static_cast<unsigned long long>(barriers));
      std::fflush(stdout);
      json.AddPoint(
          {{"logging", JsonOutput::Str(LoggingKindName(kind))},
           {"sync", JsonOutput::Str(LogSyncPolicyName(sync))},
           {"throughput_txn_s", JsonOutput::Num(stats.Throughput())},
           {"log_mb", JsonOutput::Num(log_mb)},
           {"mb_per_ktxn", JsonOutput::Num(mb_per_ktxn)},
           {"flushes", JsonOutput::Num(static_cast<double>(flushes))},
           {"barriers", JsonOutput::Num(static_cast<double>(barriers))}});
      RemoveLogDir(dir);
    }
  }
  return 0;
}
