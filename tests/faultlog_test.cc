/// Death tests for the crash-fault-injection backend: each test forks,
/// lets the FaultInjectingLogFile kill the child at a scheduled physical
/// write, and then replays the surviving log in the parent to check the
/// recovery contract (see also tools/crashtest for the randomized driver).

#include "faultlog/fault_injection.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "log/recovery.h"
#include "txn/engine.h"

namespace next700 {
namespace {

constexpr int kCrashExit = 42;

std::string TempLogDir(const char* tag) {
  std::string dir =
      std::string(::testing::TempDir()) + "/next700_fault_" + tag + ".logd";
  RemoveLogDir(dir);
  return dir;
}

struct Db {
  std::unique_ptr<Engine> engine;
  Table* table = nullptr;
  Index* index = nullptr;
};

/// KV engine with procedure 1 = "set key args[0] to args[1]". sync_commit +
/// fdatasync, so a transaction that returns OK has passed WaitDurable: one
/// physical write (and barrier) per transaction.
Db MakeDb(LoggingKind logging, const std::string& dir,
          FaultInjector* injector) {
  EngineOptions options;
  options.cc_scheme = CcScheme::kNoWait;
  options.max_threads = 1;
  options.logging = logging;
  options.log_dir = dir;
  options.sync_commit = true;
  if (logging != LoggingKind::kNone) {
    options.log_sync = LogSyncPolicy::kFdatasync;
    if (injector != nullptr) options.log_file_factory = injector->factory();
  }
  Db db;
  db.engine = std::make_unique<Engine>(options);
  Schema schema;
  schema.AddUint64("val");
  db.table = db.engine->CreateTable("kv", std::move(schema));
  db.index = db.engine->CreateIndex("kv_pk", db.table, IndexKind::kHash, 64);
  Table* table = db.table;
  Index* index = db.index;
  db.engine->RegisterProcedure(
      1, [table, index](Engine* e, TxnContext* txn, const uint8_t* args,
                        size_t len) -> Status {
        NEXT700_CHECK(len == 16);
        uint64_t key, value;
        std::memcpy(&key, args, 8);
        std::memcpy(&value, args + 8, 8);
        uint8_t buf[8];
        Status s = e->ReadForUpdate(txn, index, key, buf);
        if (s.IsNotFound()) {
          table->schema().SetUint64(buf, 0, value);
          Result<Row*> row = e->Insert(txn, table, 0, key, buf);
          NEXT700_RETURN_IF_ERROR(row.status());
          e->AddIndexInsert(txn, index, key, row.value());
          return Status::OK();
        }
        NEXT700_RETURN_IF_ERROR(s);
        table->schema().SetUint64(buf, 0, value);
        return e->Update(txn, index, key, buf);
      });
  return db;
}

/// Runs `txns` sequential transactions (key i -> i + 100); under a crash
/// fault the process dies inside some commit's flush.
void RunWorkload(LoggingKind logging, const std::string& dir,
                 FaultInjector* injector, uint64_t txns) {
  Db db = MakeDb(logging, dir, injector);
  for (uint64_t i = 0; i < txns; ++i) {
    uint64_t args[2] = {i, i + 100};
    NEXT700_CHECK(db.engine->RunProcedure(1, 0, args, sizeof(args)).ok());
  }
}

uint64_t Value(Db& db, uint64_t key) {
  Row* row = db.index->Lookup(key);
  NEXT700_CHECK(row != nullptr);
  return db.table->schema().GetUint64(db.engine->RawImage(row), 0);
}

class FaultLogDeathTest : public ::testing::Test {};

TEST_F(FaultLogDeathTest, CrashBeforeWriteLosesOnlyUnackedTransactions) {
  for (const LoggingKind logging :
       {LoggingKind::kValue, LoggingKind::kCommand}) {
    const std::string dir = TempLogDir(
        logging == LoggingKind::kValue ? "crash_value" : "crash_command");
    EXPECT_EXIT(
        {
          FaultInjector injector;
          FaultPoint fault;
          fault.kind = FaultPoint::Kind::kCrashBeforeWrite;
          fault.write_index = 2;
          injector.AddFault(fault);
          RunWorkload(logging, dir, &injector, 10);
        },
        ::testing::ExitedWithCode(kCrashExit), "");

    // Writes 0 and 1 completed and were acknowledged; the crash hit the
    // third commit's flush. Exactly two transactions must survive.
    Db db = MakeDb(LoggingKind::kNone, "", nullptr);
    RecoveryManager recovery(db.engine.get());
    RecoveryStats stats;
    ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
    EXPECT_EQ(stats.txns_replayed, 2u);
    EXPECT_EQ(Value(db, 0), 100u);
    EXPECT_EQ(Value(db, 1), 101u);
    EXPECT_EQ(db.index->Lookup(2), nullptr);
  }
}

TEST_F(FaultLogDeathTest, TornWriteDropsTheTornTailOnly) {
  // Tear the third write after every prefix length seen in practice; the
  // torn frame must never replay, the acked prefix always must.
  for (const uint64_t tear : {0ull, 1ull, 4ull, 5ull, 13ull, 20ull}) {
    const std::string dir =
        TempLogDir(("torn_" + std::to_string(tear)).c_str());
    EXPECT_EXIT(
        {
          FaultInjector injector;
          FaultPoint fault;
          fault.kind = FaultPoint::Kind::kTornWrite;
          fault.write_index = 2;
          fault.tear_bytes = tear;
          injector.AddFault(fault);
          RunWorkload(LoggingKind::kValue, dir, &injector, 10);
        },
        ::testing::ExitedWithCode(kCrashExit), "");

    Db db = MakeDb(LoggingKind::kNone, "", nullptr);
    RecoveryManager recovery(db.engine.get());
    RecoveryStats stats;
    ASSERT_TRUE(recovery.Replay(dir, &stats).ok()) << "tear=" << tear;
    EXPECT_EQ(stats.txns_replayed, 2u) << "tear=" << tear;
    EXPECT_EQ(db.index->Lookup(2), nullptr) << "tear=" << tear;
  }
}

TEST_F(FaultLogDeathTest, BitFlipBelowTheTailIsDetectedNotReplayed) {
  const std::string dir = TempLogDir("bitflip");
  EXPECT_EXIT(
      {
        FaultInjector injector;
        FaultPoint flip;
        flip.kind = FaultPoint::Kind::kBitFlip;
        flip.write_index = 1;
        flip.flip_offset = 9;  // Inside the frame body.
        injector.AddFault(flip);
        // Keep running past the flip, then crash, so the damaged frame
        // sits below the log tail.
        FaultPoint crash;
        crash.kind = FaultPoint::Kind::kCrashBeforeWrite;
        crash.write_index = 5;
        injector.AddFault(crash);
        RunWorkload(LoggingKind::kValue, dir, &injector, 10);
      },
      ::testing::ExitedWithCode(kCrashExit), "");

  // The flipped frame is mid-log: replay must refuse to continue past it
  // rather than silently dropping acknowledged transactions.
  Db db = MakeDb(LoggingKind::kNone, "", nullptr);
  RecoveryManager recovery(db.engine.get());
  RecoveryStats stats;
  EXPECT_EQ(recovery.Replay(dir, &stats).code(), StatusCode::kCorruption);
}

TEST(FaultLogTest, InjectorCountsWritesAndBarriers) {
  const std::string dir = TempLogDir("counters");
  FaultInjector injector;  // No faults: transparent pass-through.
  {
    RunWorkload(LoggingKind::kValue, dir, &injector, 8);
  }
  // One commit = one flush = one write + one fdatasync barrier.
  EXPECT_EQ(injector.writes(), 8u);
  EXPECT_EQ(injector.syncs(), 8u);
}

}  // namespace
}  // namespace next700
