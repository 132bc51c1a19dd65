#include "txn/engine.h"

#include <gtest/gtest.h>

#include <thread>

#include "workload/driver.h"
#include "workload/ycsb.h"

namespace next700 {
namespace {

TEST(EngineTest, SchemeNamesRoundTrip) {
  for (CcScheme scheme : AllCcSchemes()) {
    EXPECT_EQ(CcSchemeFromName(CcSchemeName(scheme)), scheme);
  }
  EXPECT_EQ(CcSchemeFromName("silo"), CcScheme::kOcc);
  EXPECT_EQ(CcSchemeFromName("occ"), CcScheme::kOcc);
  EXPECT_EQ(CcSchemeFromName("no_wait"), CcScheme::kNoWait);
}

TEST(EngineTest, CatalogResolvesTablesAndIndexes) {
  EngineOptions options;
  Engine engine(options);
  Schema schema;
  schema.AddUint64("v");
  Table* table = engine.CreateTable("t", std::move(schema));
  Index* index = engine.CreateIndex("t_pk", table, IndexKind::kHash, 16);
  EXPECT_EQ(engine.catalog()->GetTable("t"), table);
  EXPECT_EQ(engine.catalog()->GetTable(table->id()), table);
  EXPECT_EQ(engine.catalog()->GetIndex("t_pk"), index);
  EXPECT_EQ(engine.catalog()->PrimaryIndex(table), index);
  EXPECT_EQ(engine.catalog()->GetTable("missing"), nullptr);
}

TEST(EngineTest, ProcedureRegistryDispatches) {
  EngineOptions options;
  Engine engine(options);
  Schema schema;
  schema.AddUint64("v");
  Table* table = engine.CreateTable("t", std::move(schema));
  Index* index = engine.CreateIndex("t_pk", table, IndexKind::kHash, 16);
  uint8_t zero[8] = {};
  Row* row = engine.LoadRow(table, 0, 1, zero);
  ASSERT_TRUE(index->Insert(1, row).ok());

  engine.RegisterProcedure(
      7, [&](Engine* e, TxnContext* txn, const uint8_t* args,
             size_t len) -> Status {
        NEXT700_CHECK(len == 8);
        uint64_t delta;
        std::memcpy(&delta, args, 8);
        uint8_t buf[8];
        NEXT700_RETURN_IF_ERROR(e->Read(txn, index, 1, buf));
        table->schema().SetUint64(buf, 0,
                                  table->schema().GetUint64(buf, 0) + delta);
        return e->Update(txn, index, 1, buf);
      });
  const uint64_t delta = 5;
  ASSERT_TRUE(engine.RunProcedure(7, 0, &delta, sizeof(delta)).ok());
  ASSERT_TRUE(engine.RunProcedure(7, 0, &delta, sizeof(delta)).ok());
  EXPECT_EQ(table->schema().GetUint64(engine.RawImage(row), 0), 10u);
}

/// The "next 700 engines" smoke test: every CC scheme x index kind x
/// logging mode composition loads and runs a small workload correctly.
struct Composition {
  CcScheme cc;
  IndexKind index;
  LoggingKind logging;
};

class DesignSpaceTest : public ::testing::TestWithParam<Composition> {};

TEST_P(DesignSpaceTest, CompositionRunsCorrectly) {
  const Composition& comp = GetParam();
  EngineOptions options;
  options.cc_scheme = comp.cc;
  options.max_threads = 2;
  options.num_partitions = 2;
  options.logging = comp.logging;
  if (comp.logging != LoggingKind::kNone) {
    options.log_dir = std::string(::testing::TempDir()) + "/design_" +
                      CcSchemeName(comp.cc) + IndexKindName(comp.index) +
                      LoggingKindName(comp.logging) + ".logd";
    RemoveLogDir(options.log_dir);  // Logs accumulate across runs.
  }
  Engine engine(options);
  YcsbOptions ycsb;
  ycsb.num_records = 512;
  ycsb.ops_per_txn = 4;
  ycsb.write_fraction = 0.5;
  ycsb.index_kind = comp.index;
  ycsb.partitioned = comp.cc == CcScheme::kHstore;
  YcsbWorkload workload(ycsb);
  workload.Load(&engine);
  DriverOptions driver;
  driver.num_threads = 2;
  driver.txns_per_thread = 50;
  const RunStats stats = Driver::Run(&engine, &workload, driver);
  EXPECT_EQ(stats.commits, 100u);
  if (comp.logging != LoggingKind::kNone) {
    EXPECT_GT(stats.log_bytes, 0u);
  }
}

std::vector<Composition> AllCompositions() {
  std::vector<Composition> out;
  for (CcScheme cc : AllCcSchemes()) {
    for (IndexKind index : {IndexKind::kHash, IndexKind::kBTree}) {
      for (LoggingKind logging :
           {LoggingKind::kNone, LoggingKind::kValue, LoggingKind::kCommand}) {
        out.push_back(Composition{cc, index, logging});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllCompositions, DesignSpaceTest, ::testing::ValuesIn(AllCompositions()),
    [](const ::testing::TestParamInfo<Composition>& info) {
      return std::string(CcSchemeName(info.param.cc)) + "_" +
             IndexKindName(info.param.index) + "_" +
             LoggingKindName(info.param.logging);
    });

TEST(EngineTest, BatchedAllocatorComposition) {
  EngineOptions options;
  options.cc_scheme = CcScheme::kTimestamp;
  options.ts_allocator = TimestampAllocatorKind::kBatched;
  options.max_threads = 2;
  Engine engine(options);
  YcsbOptions ycsb;
  ycsb.num_records = 256;
  YcsbWorkload workload(ycsb);
  workload.Load(&engine);
  DriverOptions driver;
  driver.num_threads = 2;
  driver.txns_per_thread = 100;
  const RunStats stats = Driver::Run(&engine, &workload, driver);
  EXPECT_EQ(stats.commits, 200u);
}

TEST(EngineDeathTest, SiRejectsBatchedAllocator) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EngineOptions options;
  options.cc_scheme = CcScheme::kSi;
  options.ts_allocator = TimestampAllocatorKind::kBatched;
  EXPECT_DEATH({ Engine engine(options); }, "atomic timestamp allocator");
}

// MVTO serializes in timestamp order regardless of wall-clock interleaving,
// so batched (non-monotone across threads) timestamps are fine — the GC
// watermark is protected by the allocator's GcFloor protocol.
// One engine thread id owns one TxnContext: two threads inside a
// transaction under the same id would share it. Debug builds check this
// in Begin (a server loop borrowing a worker's id is the caller to guard).
TEST(EngineDeathTest, OneThreadIdInTwoTransactionsAtOnceAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the thread-id ownership check is a debug-build check";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EngineOptions options;
        options.max_threads = 2;
        Engine engine(options);
        TxnContext* mine = engine.Begin(0, {});
        std::thread other([&engine] { (void)engine.Begin(0, {}); });
        other.join();
        engine.Abort(mine);
      },
      "inside a transaction on two threads at once");
  // Sequential reuse, across threads, is fine.
  EngineOptions options;
  options.max_threads = 1;
  Engine engine(options);
  engine.Abort(engine.Begin(0, {}));
  std::thread next([&engine] { engine.Abort(engine.Begin(0, {})); });
  next.join();
#endif
}

TEST(EngineTest, MvtoRunsWithBatchedAllocator) {
  EngineOptions options;
  options.cc_scheme = CcScheme::kMvto;
  options.ts_allocator = TimestampAllocatorKind::kBatched;
  options.max_threads = 4;
  Engine engine(options);
  YcsbOptions ycsb;
  ycsb.num_records = 256;
  YcsbWorkload workload(ycsb);
  workload.Load(&engine);
  DriverOptions driver;
  driver.num_threads = 4;
  driver.txns_per_thread = 500;
  const RunStats stats = Driver::Run(&engine, &workload, driver);
  EXPECT_EQ(stats.commits, 2000u);
}

}  // namespace
}  // namespace next700
