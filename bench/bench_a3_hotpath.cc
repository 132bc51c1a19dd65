/// \file
/// Experiment A3: is the transaction hot path allocation-free?
///
/// Replaces global operator new with a counting shim, then runs YCSB
/// transactions inline on the calling thread (no driver threads, so every
/// counted allocation is attributable to the measured loop) and reports
/// allocations/txn and ns/txn per scheme and mix. After warm-up the
/// read-only path must report 0.0 allocations per transaction under both
/// SILO and MVTO — the per-worker arenas, inline access-set small-vectors,
/// version pools, and batched timestamps exist to make that number zero.
///
/// Columns: scheme, mix, txns, allocs_per_txn, ns_per_txn.

#include "bench_common.h"
#include "common/stats.h"
#include "counting_allocator.h"

namespace next700 {
namespace bench {
namespace {

struct Mix {
  const char* name;
  double write_fraction;
  bool read_modify_write;
};

struct Point {
  double allocs_per_txn;
  double ns_per_txn;
  uint64_t txns;
};

Point RunInline(CcScheme scheme, const Mix& mix) {
  YcsbOptions ycsb;
  ycsb.num_records = QuickMode() ? (uint64_t{1} << 13) : (uint64_t{1} << 16);
  ycsb.ops_per_txn = 16;  // Matches the read/write-set inline capacity.
  ycsb.write_fraction = mix.write_fraction;
  ycsb.read_modify_write = mix.read_modify_write;
  YcsbSetup setup = MakeYcsb(scheme, ycsb, /*max_threads=*/1);

  Rng rng(42);
  const uint64_t warmup = QuickMode() ? 2000 : 20000;
  const uint64_t measured = QuickMode() ? 5000 : 100000;
  // Warm-up: grows the per-worker arena, spills, version-pool freelists,
  // and thread-local workload scratch to their steady-state sizes.
  for (uint64_t i = 0; i < warmup; ++i) {
    NEXT700_CHECK(
        setup.workload->RunNextTxn(setup.engine.get(), 0, &rng).ok());
  }
  const uint64_t allocs_before = counting_allocator::AllocationCount();
  const uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < measured; ++i) {
    NEXT700_CHECK(
        setup.workload->RunNextTxn(setup.engine.get(), 0, &rng).ok());
  }
  const uint64_t t1 = NowNanos();
  const uint64_t allocs_after = counting_allocator::AllocationCount();

  Point point;
  point.txns = measured;
  point.allocs_per_txn =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(measured);
  point.ns_per_txn =
      static_cast<double>(t1 - t0) / static_cast<double>(measured);
  return point;
}

int Main(int argc, char** argv) {
  JsonOutput json(argc, argv);
  json.SetExperiment(
      "A3", "Does the steady-state transaction hot path heap-allocate?");
  PrintHeader("A3",
              "Does the steady-state transaction hot path heap-allocate?",
              "scheme,mix,txns,allocs_per_txn,ns_per_txn");

  const Mix mixes[] = {
      {"read_only", 0.0, false},
      {"rmw_50", 0.5, true},
  };
  int failures = 0;
  for (CcScheme scheme : {CcScheme::kOcc, CcScheme::kMvto}) {
    for (const Mix& mix : mixes) {
      const Point p = RunInline(scheme, mix);
      std::printf("%s,%s,%llu,%.4f,%.1f\n", CcSchemeName(scheme), mix.name,
                  static_cast<unsigned long long>(p.txns), p.allocs_per_txn,
                  p.ns_per_txn);
      json.AddPoint({{"scheme", JsonOutput::Str(CcSchemeName(scheme))},
                     {"mix", JsonOutput::Str(mix.name)},
                     {"txns", JsonOutput::Num(static_cast<double>(p.txns))},
                     {"allocs_per_txn", JsonOutput::Num(p.allocs_per_txn)},
                     {"ns_per_txn", JsonOutput::Num(p.ns_per_txn)}});
      // The headline acceptance bar: zero steady-state allocations on the
      // read-only path. Surfaced as a nonzero exit so CI smoke catches a
      // regression without parsing the JSON.
      if (mix.write_fraction == 0.0 && p.allocs_per_txn != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s read_only allocates %.4f times per txn\n",
                     CcSchemeName(scheme), p.allocs_per_txn);
        ++failures;
      }
    }
  }
  if (!json.Write()) return 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace next700

int main(int argc, char** argv) { return next700::bench::Main(argc, argv); }
