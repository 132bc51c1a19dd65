#include "log/checkpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/latch_rank.h"
#include "log/log_file.h"
#include "workload/driver.h"
#include "workload/smallbank.h"

namespace next700 {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/next700_ckpt_" + tag;
}

std::string TempLogDir(const char* tag) {
  const std::string dir = TempPath(tag) + ".logd";
  RemoveLogDir(dir);  // Logs accumulate across runs now; start clean.
  return dir;
}

std::string TempCkptDir(const char* tag) {
  const std::string dir = TempPath(tag) + ".ckptd";
  RemoveDirContents(dir);  // Stale MANIFESTs poison later runs.
  return dir;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Parks every log write while closed, so a test can hold the flusher
/// inside one write and let appends pile up behind it.
struct WriteGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
  bool parked = false;

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    open = false;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return parked; });
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu);
    if (open) return;
    parked = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
    parked = false;
  }
};

class GatedLogFile : public PosixLogFile {
 public:
  explicit GatedLogFile(WriteGate* gate) : gate_(gate) {}

 protected:
  ssize_t RawWrite(const uint8_t* data, size_t len) override {
    gate_->Pass();
    return PosixLogFile::RawWrite(data, len);
  }

 private:
  WriteGate* gate_;
};

class CheckpointTest : public ::testing::Test {
 protected:
  struct Setup {
    std::unique_ptr<Engine> engine;
    std::unique_ptr<SmallBankWorkload> workload;
  };

  static Setup MakeWith(EngineOptions options) {
    Setup setup;
    setup.engine = std::make_unique<Engine>(std::move(options));
    SmallBankOptions bank;
    bank.num_accounts = 500;
    setup.workload = std::make_unique<SmallBankWorkload>(bank);
    setup.workload->Load(setup.engine.get());
    return setup;
  }

  static Setup MakeLoaded(LoggingKind logging, const std::string& log_dir) {
    EngineOptions options;
    options.cc_scheme = CcScheme::kNoWait;
    options.max_threads = 2;
    options.logging = logging;
    options.log_dir = log_dir;
    return MakeWith(std::move(options));
  }

  /// Engine with the schema created but no rows (checkpoint target).
  static Setup MakeEmptyWith(EngineOptions options) {
    Setup setup;
    setup.engine = std::make_unique<Engine>(std::move(options));
    SmallBankOptions bank;
    bank.num_accounts = 1;
    setup.workload = std::make_unique<SmallBankWorkload>(bank);
    // Loading one account creates the schema; remove its rows afterwards so
    // the engine is schema-complete but empty.
    setup.workload->Load(setup.engine.get());
    for (const char* index_name : {"SAVINGS_PK", "CHECKING_PK"}) {
      Index* index = setup.engine->catalog()->GetIndex(index_name);
      Row* row = index->Lookup(0);
      NEXT700_CHECK(row != nullptr);
      index->Remove(0, row);
      row->table->FreeRow(row);
    }
    return setup;
  }

  static Setup MakeEmpty() {
    EngineOptions options;
    options.cc_scheme = CcScheme::kNoWait;
    options.max_threads = 2;
    return MakeEmptyWith(std::move(options));
  }

  /// Schema-complete empty engine whose attached workload spans the full
  /// 500-account keyspace (MakeEmpty's only knows account 0), so a Driver
  /// can run against it after recovery repopulates the tables.
  static Setup MakeEmptyFullKeyspace(EngineOptions options) {
    Setup setup;
    setup.engine = std::make_unique<Engine>(std::move(options));
    SmallBankOptions bank;
    bank.num_accounts = 500;
    setup.workload = std::make_unique<SmallBankWorkload>(bank);
    setup.workload->Load(setup.engine.get());
    for (const char* index_name : {"SAVINGS_PK", "CHECKING_PK"}) {
      Index* index = setup.engine->catalog()->GetIndex(index_name);
      for (uint64_t acct = 0; acct < bank.num_accounts; ++acct) {
        Row* row = index->Lookup(acct);
        NEXT700_CHECK(row != nullptr);
        index->Remove(acct, row);
        row->table->FreeRow(row);
      }
    }
    return setup;
  }

  static int64_t Total(Setup& setup) {
    return setup.workload->TotalMoney(setup.engine.get());
  }

  static EngineOptions OnlineOptions(CcScheme scheme, LoggingKind logging,
                                     const std::string& log_dir,
                                     const std::string& ckpt_dir) {
    EngineOptions options;
    options.cc_scheme = scheme;
    options.max_threads = 2;
    options.logging = logging;
    options.log_dir = log_dir;
    options.log_segment_bytes = 8192;  // Rotate often: truncation needs prey.
    options.checkpoint_dir = ckpt_dir;
    return options;
  }

  /// Runs single transactions until the log has appended `lsn`.
  static void RunUntilAppended(Setup& setup, Lsn lsn) {
    static uint64_t seed = 1;
    DriverOptions driver;
    driver.txns_per_thread = 1;
    while (setup.engine->log_manager()->appended_lsn() < lsn) {
      driver.seed = ++seed;
      (void)Driver::Run(setup.engine.get(), setup.workload.get(), driver);
    }
  }

  static void WaitAllDurable(Setup& setup) {
    LogManager* log = setup.engine->log_manager();
    ASSERT_TRUE(log->WaitDurable(log->appended_lsn()).ok());
  }

  /// The online lifecycle end to end for one composition: checkpoints taken
  /// concurrently with a running workload, install through the MANIFEST,
  /// log truncation, then MANIFEST-driven recovery into a fresh engine.
  void RunOnlineLifecycle(CcScheme scheme, LoggingKind logging,
                          const char* tag) {
    const std::string log_dir = TempLogDir(tag);
    const std::string ckpt_dir = TempCkptDir(tag);
    int64_t total_final = 0;
    {
      Setup source =
          MakeWith(OnlineOptions(scheme, logging, log_dir, ckpt_dir));
      DriverOptions driver;
      driver.num_threads = 2;
      driver.txns_per_thread = 400;
      std::thread run([&] {
        (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
      });
      // Online: these overlap the workload above.
      for (int i = 0; i < 3; ++i) {
        CheckpointStats cstats;
        ASSERT_TRUE(source.engine->TriggerCheckpoint(&cstats).ok());
        EXPECT_EQ(cstats.rows, 1000u);
      }
      run.join();
      ASSERT_TRUE(source.engine->TriggerCheckpoint(nullptr).ok());
      EXPECT_EQ(source.engine->checkpointer()->checkpoints_taken(), 4u);
      EXPECT_GT(source.engine->checkpointer()->last_start_lsn(), 0u);
      total_final = Total(source);
      WaitAllDurable(source);
    }
    // The retired prefix is really gone from disk.
    std::vector<LogSegment> segments;
    ASSERT_TRUE(ListLogSegments(log_dir, &segments).ok());
    ASSERT_FALSE(segments.empty());
    EXPECT_GT(segments.front().index, 0u);

    Setup target = MakeEmpty();
    RecoverOutcome outcome;
    ASSERT_TRUE(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                              /*rebuilder=*/nullptr, &outcome)
                    .ok());
    EXPECT_TRUE(outcome.used_checkpoint);
    EXPECT_EQ(outcome.checkpoint.rows, 1000u);
    EXPECT_EQ(Total(target), total_final);
  }
};

TEST_F(CheckpointTest, RoundTripRestoresEveryRow) {
  Setup source = MakeLoaded(LoggingKind::kNone, "");
  // Mutate some state first.
  DriverOptions driver;
  driver.num_threads = 2;
  driver.txns_per_thread = 300;
  (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
  const int64_t total_before = Total(source);

  const std::string path = TempPath("roundtrip");
  CheckpointManager writer(source.engine.get());
  CheckpointStats wstats;
  ASSERT_TRUE(writer.Write(path, &wstats).ok());
  EXPECT_EQ(wstats.rows, 1000u);  // 500 savings + 500 checking.
  EXPECT_GT(wstats.bytes, 0u);

  Setup target = MakeEmpty();
  CheckpointManager loader(target.engine.get());
  CheckpointStats lstats;
  ASSERT_TRUE(loader.Load(path, &lstats).ok());
  EXPECT_EQ(lstats.rows, 1000u);
  EXPECT_EQ(Total(target), total_before);
  // Point lookups work through the rebuilt primary indexes.
  Index* savings = target.engine->catalog()->GetIndex("SAVINGS_PK");
  EXPECT_NE(savings->Lookup(123), nullptr);
}

TEST_F(CheckpointTest, CheckpointPlusLogSuffixRecovers) {
  const std::string log_dir = TempLogDir("suffix");
  const std::string ckpt_path = TempPath("suffix.ckpt");
  int64_t total_final = 0;
  {
    Setup source = MakeLoaded(LoggingKind::kValue, log_dir);
    DriverOptions driver;
    driver.num_threads = 2;
    driver.txns_per_thread = 200;
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    // Quiescent checkpoint mid-life...
    CheckpointManager ckpt(source.engine.get());
    CheckpointStats cstats;
    ASSERT_TRUE(ckpt.Write(ckpt_path, &cstats).ok());
    const Lsn ckpt_lsn = source.engine->log_manager()->appended_lsn();
    // ...then more transactions (the log suffix).
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    total_final = Total(source);
    ASSERT_TRUE(source.engine->log_manager()
                    ->WaitDurable(source.engine->log_manager()->appended_lsn())
                    .ok());

    // Persist the suffix position the recovery path would read from the
    // checkpoint metadata in a full system.
    std::ofstream meta(ckpt_path + ".lsn");
    meta << ckpt_lsn;
  }

  // Crash. Recover: load checkpoint, then replay only the records past the
  // checkpoint LSN — Replay skips everything at or below start_lsn.
  Lsn ckpt_lsn;
  std::ifstream meta(ckpt_path + ".lsn");
  meta >> ckpt_lsn;

  Setup target = MakeEmpty();
  CheckpointManager loader(target.engine.get());
  CheckpointStats lstats;
  ASSERT_TRUE(loader.Load(ckpt_path, &lstats).ok());
  RecoveryManager recovery(target.engine.get());
  RecoveryStats rstats;
  ASSERT_TRUE(recovery.Replay(log_dir, &rstats, ckpt_lsn).ok());
  EXPECT_GT(rstats.txns_replayed, 0u);
  EXPECT_EQ(Total(target), total_final);
}

TEST_F(CheckpointTest, CorruptCheckpointIsRejected) {
  Setup source = MakeLoaded(LoggingKind::kNone, "");
  const std::string path = TempPath("corrupt");
  CheckpointManager writer(source.engine.get());
  CheckpointStats wstats;
  ASSERT_TRUE(writer.Write(path, &wstats).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);  // Guaranteed change.
    f.seekp(64);
    f.write(&byte, 1);
  }
  Setup target = MakeEmpty();
  CheckpointManager loader(target.engine.get());
  CheckpointStats lstats;
  EXPECT_EQ(loader.Load(path, &lstats).code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, MissingFileIsIoError) {
  Setup target = MakeEmpty();
  CheckpointManager loader(target.engine.get());
  CheckpointStats stats;
  EXPECT_EQ(loader.Load("/nonexistent/nope.ckpt", &stats).code(),
            StatusCode::kIOError);
}

TEST_F(CheckpointTest, OnlineLifecycleNoWait) {
  RunOnlineLifecycle(CcScheme::kNoWait, LoggingKind::kValue, "online_nowait");
}

TEST_F(CheckpointTest, OnlineLifecycleMvto) {
  RunOnlineLifecycle(CcScheme::kMvto, LoggingKind::kValue, "online_mvto");
}

TEST_F(CheckpointTest, OnlineLifecycleCommandLogging) {
  RunOnlineLifecycle(CcScheme::kNoWait, LoggingKind::kCommand, "online_cmd");
}

TEST_F(CheckpointTest, BackgroundCheckpointerTakesCheckpoints) {
  const std::string log_dir = TempLogDir("background");
  const std::string ckpt_dir = TempCkptDir("background");
  int64_t total_final = 0;
  {
    EngineOptions options = OnlineOptions(CcScheme::kNoWait,
                                          LoggingKind::kValue, log_dir,
                                          ckpt_dir);
    options.checkpoint_interval_ms = 5;
    Setup source = MakeWith(std::move(options));
    source.engine->StartCheckpointer();
    DriverOptions driver;
    driver.num_threads = 2;
    driver.txns_per_thread = 300;
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    // The interval thread runs on wall-clock time; give it a bounded grace
    // period rather than assuming the workload outlasted one interval.
    for (int i = 0; i < 500; ++i) {
      if (source.engine->checkpointer()->checkpoints_taken() > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT(source.engine->checkpointer()->checkpoints_taken(), 0u);
    ASSERT_TRUE(source.engine->checkpointer()->background_status().ok());
    total_final = Total(source);
    WaitAllDurable(source);
  }
  Setup target = MakeEmpty();
  RecoverOutcome outcome;
  ASSERT_TRUE(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                            /*rebuilder=*/nullptr, &outcome)
                  .ok());
  EXPECT_TRUE(outcome.used_checkpoint);
  EXPECT_EQ(Total(target), total_final);
}

TEST_F(CheckpointTest, ReopenAfterTruncationResumesLsnSpace) {
  const std::string log_dir = TempLogDir("reopen");
  const std::string ckpt_dir = TempCkptDir("reopen");
  const EngineOptions options = OnlineOptions(
      CcScheme::kNoWait, LoggingKind::kValue, log_dir, ckpt_dir);
  DriverOptions driver;
  driver.num_threads = 2;
  driver.txns_per_thread = 250;

  int64_t total_first = 0;
  {
    Setup source = MakeWith(options);
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    ASSERT_TRUE(source.engine->TriggerCheckpoint(nullptr).ok());
    total_first = Total(source);
    WaitAllDurable(source);
  }
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(log_dir, &segments).ok());
  ASSERT_FALSE(segments.empty());
  ASSERT_GT(segments.front().index, 0u);  // The prefix really was retired.

  // Reopen over the truncated log: the MANIFEST's base bookkeeping must
  // place new appends after the existing suffix, and the checkpoint
  // sequence must resume rather than restart.
  int64_t total_second = 0;
  {
    Setup reopened = MakeEmptyFullKeyspace(options);
    RecoverOutcome outcome;
    ASSERT_TRUE(RecoverEngine(reopened.engine.get(), ckpt_dir, log_dir,
                              /*rebuilder=*/nullptr, &outcome)
                    .ok());
    ASSERT_TRUE(outcome.used_checkpoint);
    ASSERT_EQ(Total(reopened), total_first);
    (void)Driver::Run(reopened.engine.get(), reopened.workload.get(), driver);
    ASSERT_TRUE(reopened.engine->TriggerCheckpoint(nullptr).ok());
    total_second = Total(reopened);
    WaitAllDurable(reopened);
  }

  Setup target = MakeEmpty();
  RecoverOutcome outcome;
  ASSERT_TRUE(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                            /*rebuilder=*/nullptr, &outcome)
                  .ok());
  EXPECT_TRUE(outcome.used_checkpoint);
  EXPECT_EQ(Total(target), total_second);
}

TEST_F(CheckpointTest, BaseSealedBelowStartLsnMidCheckpointStaysOnDisk) {
  // The snapshot reads start_lsn and the MANIFEST names the live segment 0
  // as base while bytes below start_lsn still wait for the flusher. Before
  // the retire, the flusher's next batch overflows segment 0, sealing it
  // with end_lsn <= start_lsn. The retire must keep the MANIFEST's base,
  // or recovery counts LSNs from the wrong segment and drops every record
  // committed after the checkpoint.
  const std::string log_dir = TempLogDir("sealed_base");
  const std::string ckpt_dir = TempCkptDir("sealed_base");
  WriteGate gate;
  std::function<void()> before_retire;
  EngineOptions options = OnlineOptions(CcScheme::kNoWait,
                                        LoggingKind::kValue, log_dir,
                                        ckpt_dir);
  options.log_segment_bytes = 4096;
  options.sync_commit = false;
  options.log_file_factory = [&gate] {
    return std::make_unique<GatedLogFile>(&gate);
  };
  options.checkpoint_crash_hook = [&before_retire](const char* point) {
    if (before_retire && std::strcmp(point, "checkpoint:before-retire") == 0) {
      before_retire();
    }
  };
  CheckpointManifest manifest;
  int64_t total = 0;
  {
    Setup source = MakeWith(options);
    LogManager* log = source.engine->log_manager();
    RunUntilAppended(source, 3000);
    WaitAllDurable(source);
    // Park the flusher inside its next write, then pile up ~2000 B behind
    // it: segment 0 cannot take them.
    gate.Close();
    RunUntilAppended(source, log->appended_lsn() + 1);
    gate.WaitParked();
    RunUntilAppended(source, log->appended_lsn() + 2000);
    before_retire = [&] {
      // Off this thread: the checkpoint holds its run lock here.
      std::thread commits([&] {
        gate.Open();
        RunUntilAppended(source, log->appended_lsn() + 500);
        WaitAllDurable(source);
      });
      commits.join();
    };
    ASSERT_TRUE(source.engine->TriggerCheckpoint(nullptr).ok());
    before_retire = nullptr;
    ASSERT_TRUE(ReadManifest(ckpt_dir, &manifest).ok());
    EXPECT_EQ(manifest.log_base_index, 0u);
    const std::vector<SealedSegment> sealed = log->sealed_segments();
    ASSERT_FALSE(sealed.empty());
    EXPECT_EQ(sealed.front().index, 0u);
    EXPECT_LE(sealed.front().end_lsn, manifest.start_lsn);
    total = Total(source);
    WaitAllDurable(source);
  }
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(log_dir, &segments).ok());
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().index, manifest.log_base_index);

  Setup target = MakeEmpty();
  RecoverOutcome outcome;
  ASSERT_TRUE(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                            /*rebuilder=*/nullptr, &outcome)
                  .ok());
  EXPECT_TRUE(outcome.used_checkpoint);
  EXPECT_EQ(Total(target), total);
}

TEST_F(CheckpointTest, PrepareSweepsTornTmpAndOrphanCheckpoints) {
  const std::string log_dir = TempLogDir("sweep");
  const std::string ckpt_dir = TempCkptDir("sweep");
  const EngineOptions options = OnlineOptions(
      CcScheme::kNoWait, LoggingKind::kValue, log_dir, ckpt_dir);
  int64_t total_final = 0;
  {
    Setup source = MakeWith(options);
    DriverOptions driver;
    driver.num_threads = 2;
    driver.txns_per_thread = 100;
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    ASSERT_TRUE(source.engine->TriggerCheckpoint(nullptr).ok());
    total_final = Total(source);
    WaitAllDurable(source);
  }
  // Manufacture what a crash mid-install leaves behind: a torn tmp file
  // and a checkpoint the MANIFEST never adopted.
  const std::string torn_tmp = ckpt_dir + "/ckpt.000002.tmp";
  const std::string orphan = ckpt_dir + "/ckpt.000099";
  std::ofstream(torn_tmp) << "half a checkpoint";
  std::ofstream(orphan) << "garbage nobody installed";

  {
    // Reopening the engine runs Prepare(): the debris goes, the installed
    // checkpoint stays.
    Setup reopened = MakeEmptyWith(options);
    EXPECT_FALSE(FileExists(torn_tmp));
    EXPECT_FALSE(FileExists(orphan));
    EXPECT_TRUE(FileExists(ckpt_dir + "/" + CheckpointFileName(1)));
  }
  Setup target = MakeEmpty();
  RecoverOutcome outcome;
  ASSERT_TRUE(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                            /*rebuilder=*/nullptr, &outcome)
                  .ok());
  EXPECT_TRUE(outcome.used_checkpoint);
  EXPECT_EQ(Total(target), total_final);
}

TEST_F(CheckpointTest, TruncatedCheckpointFileIsCorruption) {
  Setup source = MakeLoaded(LoggingKind::kNone, "");
  const std::string path = TempPath("truncated");
  CheckpointManager writer(source.engine.get());
  CheckpointStats wstats;
  ASSERT_TRUE(writer.Write(path, &wstats).ok());
  std::vector<uint8_t> image;
  ASSERT_TRUE(ReadFileFully(path, &image).ok());
  ASSERT_GT(image.size(), 64u);

  // Every cut must be *detected* — kCorruption, never a crash, a bad_alloc
  // from a bogus length, or a silent partial load.
  const size_t cuts[] = {0, 1, 8, 11, 19, 20, 64, image.size() / 2,
                         image.size() - 1};
  for (const size_t cut : cuts) {
    const std::string cut_path = path + ".cut";
    {
      std::ofstream f(cut_path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(cut));
    }
    Setup target = MakeEmpty();
    CheckpointManager loader(target.engine.get());
    CheckpointStats lstats;
    EXPECT_EQ(loader.Load(cut_path, &lstats).code(), StatusCode::kCorruption)
        << "cut at " << cut << " of " << image.size();
  }
}

TEST_F(CheckpointTest, BodyBitFlipIsCorruption) {
  Setup source = MakeLoaded(LoggingKind::kNone, "");
  const std::string path = TempPath("bodyflip");
  CheckpointManager writer(source.engine.get());
  CheckpointStats wstats;
  ASSERT_TRUE(writer.Write(path, &wstats).ok());
  std::vector<uint8_t> image;
  ASSERT_TRUE(ReadFileFully(path, &image).ok());
  // Deep in the row payload area, well past the header the existing
  // corruption test covers.
  const size_t offset = image.size() - 24;
  image[offset] ^= 0x10;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  }
  Setup target = MakeEmpty();
  CheckpointManager loader(target.engine.get());
  CheckpointStats lstats;
  EXPECT_EQ(loader.Load(path, &lstats).code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, CorruptManifestFailsLoudlyNeverFallsBack) {
  const std::string log_dir = TempLogDir("badmanifest");
  const std::string ckpt_dir = TempCkptDir("badmanifest");
  {
    Setup source = MakeWith(OnlineOptions(CcScheme::kNoWait,
                                          LoggingKind::kValue, log_dir,
                                          ckpt_dir));
    DriverOptions driver;
    driver.num_threads = 2;
    driver.txns_per_thread = 100;
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    ASSERT_TRUE(source.engine->TriggerCheckpoint(nullptr).ok());
    WaitAllDurable(source);
  }
  {
    std::fstream f(ManifestPath(ckpt_dir),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(12);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(12);
    f.write(&byte, 1);
  }
  // The log was truncated below the checkpoint, so falling back to plain
  // replay would silently lose the prefix. It must refuse instead.
  Setup target = MakeEmpty();
  RecoverOutcome outcome;
  EXPECT_EQ(RecoverEngine(target.engine.get(), ckpt_dir, log_dir,
                          /*rebuilder=*/nullptr, &outcome)
                .code(),
            StatusCode::kCorruption);
}

TEST_F(CheckpointTest, MissingManifestFallsBackToFullReplay) {
  const std::string log_dir = TempLogDir("nomanifest");
  int64_t total_final = 0;
  {
    Setup source = MakeLoaded(LoggingKind::kValue, log_dir);
    DriverOptions driver;
    driver.num_threads = 2;
    driver.txns_per_thread = 100;
    (void)Driver::Run(source.engine.get(), source.workload.get(), driver);
    total_final = Total(source);
    WaitAllDurable(source);
  }
  // Without a checkpoint the log only covers transactional updates, not the
  // initial (unlogged) bulk load — so fallback recovery starts from a
  // freshly loaded engine, as the pre-checkpoint workflow always did.
  Setup target = MakeLoaded(LoggingKind::kNone, "");
  RecoverOutcome outcome;
  ASSERT_TRUE(RecoverEngine(target.engine.get(),
                            TempCkptDir("nomanifest_empty"), log_dir,
                            /*rebuilder=*/nullptr, &outcome)
                  .ok());
  EXPECT_FALSE(outcome.used_checkpoint);
  EXPECT_GT(outcome.log.txns_replayed, 0u);
  EXPECT_EQ(Total(target), total_final);
}

// Regression for the checkpoint-coordinator lock discipline: the snapshot
// scan latches every table partition (LatchRank::kTablePartition), so a
// checkpoint must be initiated latch-free. Triggering one while the calling
// thread still holds any lower-ranked latch (here a row mini-latch) is a
// rank inversion — a would-be deadlock against writers that latch rows
// under the partition latch — and the debug checker aborts the process.
using CheckpointLatchRankDeathTest = CheckpointTest;

TEST_F(CheckpointLatchRankDeathTest, TriggerWhileHoldingRowLatchAborts) {
  if (!latch_rank::kEnabled) {
    GTEST_SKIP() << "built without NEXT700_DEBUG_LATCH_RANK";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EngineOptions options;
  options.cc_scheme = CcScheme::kNoWait;
  options.max_threads = 2;
  options.checkpoint_dir = TempCkptDir("rank_inversion");
  Setup setup = MakeWith(std::move(options));
  Index* index = setup.engine->catalog()->GetIndex("SAVINGS_PK");
  Row* row = index->Lookup(0);
  ASSERT_NE(row, nullptr);
  EXPECT_DEATH(
      {
        row->Latch();  // LatchRank::kRow — below the partition latches.
        (void)setup.engine->TriggerCheckpoint(nullptr);
      },
      "latch-rank violation");
}

}  // namespace
}  // namespace next700
