#include "log/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "common/stats.h"
#include "log/log_file.h"
#include "log/log_record.h"

namespace next700 {

namespace {

// "N700CHKQ": format v2, which records each row's write timestamp so a
// fuzzy snapshot composes with Thomas-rule replay of the log suffix. Files
// with the old magic fail the header check rather than misparse.
constexpr uint64_t kCheckpointMagic = 0x4E37303043484B51ull;

/// Newest committed version of a multiversion row, skipping an uncommitted
/// chain head installed by an in-flight writer. Null for a row whose
/// insert has not committed yet — such a row is not durable state.
const Version* NewestCommitted(const Row* row) {
  const Version* v = row->chain.load(std::memory_order_acquire);
  while (v != nullptr && !v->committed.load(std::memory_order_acquire)) {
    v = v->next;
  }
  return v;
}

/// Appends `[u32 table_id][u64 row_count placeholder]` and returns the
/// placeholder's offset: the count is patched after the partitions are
/// dumped, since an online scan cannot pre-count a moving table.
size_t BeginTableDump(Table* table, std::vector<uint8_t>* out) {
  LogWriter writer(out);
  writer.PutU32(table->id());
  const size_t count_offset = out->size();
  writer.PutU64(0);
  return count_offset;
}

void PatchRowCount(std::vector<uint8_t>* out, size_t count_offset,
                   uint64_t rows) {
  std::memcpy(out->data() + count_offset, &rows, sizeof(rows));
}

/// Dumps one partition's rows. For multiversion schemes this is safe
/// concurrently with execution (the caller holds an epoch pin; committed
/// versions are immutable); for single-version schemes the caller must
/// have drained transactions — 2PL and H-Store write row images in place.
void DumpPartitionRows(Engine* engine, Table* table, uint32_t partition,
                       std::vector<uint8_t>* out, uint64_t* rows) {
  const bool mv = engine->cc()->is_multiversion();
  const uint32_t row_size = table->schema().row_size();
  LogWriter writer(out);
  table->ForEachRowInPartition(partition, [&](Row* row) {
    uint8_t deleted;
    Timestamp wts;
    const uint8_t* payload;
    if (mv) {
      const Version* v = NewestCommitted(row);
      if (v == nullptr) return;  // Uncommitted insert: the log covers it.
      deleted = v->is_delete ? 1 : 0;
      wts = v->wts;
      payload = v->data();
    } else {
      deleted = row->deleted() ? 1 : 0;
      wts = row->wts.load(std::memory_order_relaxed);
      payload = row->data();
    }
    writer.PutU32(row->partition);
    writer.PutU64(row->primary_key);
    writer.PutU8(deleted);
    writer.PutU64(wts);
    writer.PutBytes(payload, row_size);
    ++*rows;
  });
}

void FinishCheckpointImage(std::vector<uint8_t>* out) {
  const uint64_t checksum = FnvHashBytes(out->data(), out->size());
  LogWriter writer(out);
  writer.PutU64(checksum);
}

}  // namespace

Status CheckpointManager::Write(const std::string& path,
                                CheckpointStats* stats) {
  const uint64_t start = NowNanos();
  // Serialize into memory first so the checksum covers one buffer; table
  // dumps are bounded by what fits in RAM anyway (this is an in-memory
  // engine).
  std::vector<uint8_t> out;
  LogWriter writer(&out);
  writer.PutU64(kCheckpointMagic);
  const int num_tables = engine_->catalog()->num_tables();
  writer.PutU32(static_cast<uint32_t>(num_tables));
  for (int i = 0; i < num_tables; ++i) {
    Table* table = engine_->catalog()->table_at(i);
    const size_t count_offset = BeginTableDump(table, &out);
    uint64_t rows = 0;
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      DumpPartitionRows(engine_, table, p, &out, &rows);
    }
    PatchRowCount(&out, count_offset, rows);
    stats->rows += rows;
    ++stats->tables;
  }
  FinishCheckpointImage(&out);

  NEXT700_RETURN_IF_ERROR(WriteFileAtomic(path, out.data(), out.size()));
  stats->bytes = out.size();
  stats->elapsed_seconds = static_cast<double>(NowNanos() - start) / 1e9;
  return Status::OK();
}

Status CheckpointManager::Load(const std::string& path,
                               CheckpointStats* stats) {
  const uint64_t start = NowNanos();
  std::vector<uint8_t> in;
  NEXT700_RETURN_IF_ERROR(ReadFileFully(path, &in));
  stats->bytes = in.size();

  if (in.size() < 20) return Status::Corruption("checkpoint too small");
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, in.data() + in.size() - 8, 8);
  if (stored_checksum != FnvHashBytes(in.data(), in.size() - 8)) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  LogReader reader(in.data(), in.size() - 8);
  uint64_t magic;
  uint32_t num_tables;
  if (!reader.GetU64(&magic) || magic != kCheckpointMagic ||
      !reader.GetU32(&num_tables)) {
    return Status::Corruption("bad checkpoint header");
  }
  for (uint32_t i = 0; i < num_tables; ++i) {
    uint32_t table_id;
    uint64_t rows;
    if (!reader.GetU32(&table_id) || !reader.GetU64(&rows)) {
      return Status::Corruption("truncated table header");
    }
    Table* table = engine_->catalog()->GetTable(table_id);
    if (table == nullptr) return Status::Corruption("unknown table id");
    Index* primary = engine_->catalog()->PrimaryIndex(table);
    const uint32_t row_size = table->schema().row_size();
    for (uint64_t r = 0; r < rows; ++r) {
      uint32_t partition;
      uint64_t primary_key;
      uint8_t deleted;
      uint64_t wts;
      if (!reader.GetU32(&partition) || !reader.GetU64(&primary_key) ||
          !reader.GetU8(&deleted) || !reader.GetU64(&wts)) {
        return Status::Corruption("truncated row header");
      }
      const uint8_t* payload = reader.Peek();
      if (!reader.Skip(row_size)) {
        return Status::Corruption("truncated row payload");
      }
      if (partition >= table->num_partitions()) {
        return Status::Corruption("row partition out of range");
      }
      Row* row = engine_->LoadRow(table, partition, primary_key, payload);
      // The snapshot's write timestamp drives the Thomas rule when the log
      // suffix replays over this row.
      row->wts.store(wts, std::memory_order_relaxed);
      if (deleted != 0) {
        row->set_deleted(true);
        continue;  // Tombstones are not indexed.
      }
      if (primary != nullptr) {
        NEXT700_RETURN_IF_ERROR(primary->Insert(primary_key, row));
      }
      if (rebuilder_) rebuilder_(engine_, row);
      ++stats->rows;
    }
    ++stats->tables;
  }
  stats->elapsed_seconds = static_cast<double>(NowNanos() - start) / 1e9;
  return Status::OK();
}

CheckpointCoordinator::CheckpointCoordinator(Engine* engine,
                                             CheckpointerOptions options)
    : engine_(engine), options_(std::move(options)) {
  NEXT700_CHECK(!options_.dir.empty());
}

CheckpointCoordinator::~CheckpointCoordinator() { Stop(); }

Status CheckpointCoordinator::Prepare() {
  NEXT700_RETURN_IF_ERROR(EnsureLogDir(options_.dir));
  CheckpointManifest manifest;
  const Status ms = ReadManifest(options_.dir, &manifest);
  std::string live_file;
  if (ms.ok()) {
    MutexLock lock(&run_mu_);
    next_seq_ = manifest.checkpoint_seq + 1;
    prev_file_ = manifest.checkpoint_file;
    prev_base_index_ = manifest.log_base_index;
    prev_base_lsn_ = manifest.log_base_lsn;
    last_start_lsn_.store(manifest.start_lsn, std::memory_order_relaxed);
    live_file = prev_file_;
  } else if (!ms.IsNotFound()) {
    return ms;  // A corrupt MANIFEST must fail loudly, never be replaced.
  }
  // Sweep what a crashed install left behind: tmp files, and checkpoint
  // files the MANIFEST does not name (a rename that landed before the
  // manifest update, or an old file whose cleanup was interrupted).
  DIR* d = ::opendir(options_.dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      const bool is_tmp =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
      const bool is_stale_ckpt = name.compare(0, 5, "ckpt.") == 0 &&
                                 !is_tmp && name != live_file;
      if (is_tmp || is_stale_ckpt) {
        ::unlink((options_.dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  return Status::OK();
}

void CheckpointCoordinator::Start() {
  if (options_.interval_ms == 0 || started_) return;
  started_ = true;
  {
    MutexLock lock(&stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] {
    SetThreadName("n7-ckpt");
    BackgroundLoop();
  });
}

void CheckpointCoordinator::Stop() {
  if (!started_) return;
  {
    MutexLock lock(&stop_mu_);
    stop_ = true;
  }
  stop_cv_.NotifyAll();
  thread_.join();
  started_ = false;
}

Status CheckpointCoordinator::background_status() const {
  MutexLock lock(&run_mu_);
  return background_status_;
}

void CheckpointCoordinator::BackgroundLoop() {
  stop_mu_.Lock();
  while (!stop_) {
    // Sleep one interval, waking early only for stop.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.interval_ms);
    while (!stop_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      (void)stop_cv_.WaitFor(&stop_mu_, deadline - now);
    }
    if (stop_) break;
    stop_mu_.Unlock();
    CheckpointStats stats;
    const Status s = CheckpointNow(&stats);
    if (!s.ok()) {
      // A failed background checkpoint only delays truncation — the log
      // still covers everything — but it must not pass silently.
      MutexLock run_lock(&run_mu_);
      if (background_status_.ok()) background_status_ = s;
    }
    stop_mu_.Lock();
  }
  stop_mu_.Unlock();
}

CheckpointCoordinator::SnapshotPolicy CheckpointCoordinator::PolicyFor()
    const {
  // Command logging re-executes procedures on recovery, so the snapshot
  // must be a consistent cut — only a full drain gives one. The same holds
  // when there is no log at all (the checkpoint *is* the recovered state).
  if (engine_->log_manager() == nullptr ||
      engine_->options().logging == LoggingKind::kCommand) {
    return SnapshotPolicy::kFullQuiesce;
  }
  return engine_->cc()->is_multiversion() ? SnapshotPolicy::kEpochFuzzy
                                          : SnapshotPolicy::kPartitionWindows;
}

void CheckpointCoordinator::SerializeSnapshot(std::vector<uint8_t>* out,
                                              Lsn* start_lsn,
                                              CheckpointStats* stats) {
  const SnapshotPolicy policy = PolicyFor();
  LogManager* log = engine_->log_manager();
  out->clear();
  LogWriter writer(out);
  writer.PutU64(kCheckpointMagic);
  const int num_tables = engine_->catalog()->num_tables();
  writer.PutU32(static_cast<uint32_t>(num_tables));

  // The start LSN is always chosen under a full drain: with no transaction
  // between log append and finalize, every commit at or below it is fully
  // materialized, and every commit above it will be replayed — so a scan
  // that later observes such a commit's writes is harmless (full-image
  // replay with the recorded wts is idempotent).
  const auto capture_start_lsn = [&] {
    *start_lsn = log != nullptr ? log->appended_lsn() : 0;
  };

  if (policy == SnapshotPolicy::kFullQuiesce) {
    engine_->PauseTransactions();
    capture_start_lsn();
    for (int i = 0; i < num_tables; ++i) {
      Table* table = engine_->catalog()->table_at(i);
      const size_t count_offset = BeginTableDump(table, out);
      uint64_t rows = 0;
      for (uint32_t p = 0; p < table->num_partitions(); ++p) {
        DumpPartitionRows(engine_, table, p, out, &rows);
      }
      PatchRowCount(out, count_offset, rows);
      stats->rows += rows;
      ++stats->tables;
    }
    engine_->ResumeTransactions();
  } else if (policy == SnapshotPolicy::kEpochFuzzy) {
    engine_->PauseTransactions();
    capture_start_lsn();
    engine_->ResumeTransactions();
    // Fuzzy scan concurrent with execution: committed versions are
    // immutable, and the checkpointer's own epoch slot keeps the chains it
    // walks from being reclaimed under it.
    EpochManager* epochs = engine_->epoch_manager();
    const int ckpt_slot = engine_->options().max_threads;
    for (int i = 0; i < num_tables; ++i) {
      Table* table = engine_->catalog()->table_at(i);
      const size_t count_offset = BeginTableDump(table, out);
      uint64_t rows = 0;
      for (uint32_t p = 0; p < table->num_partitions(); ++p) {
        EpochGuard guard(epochs, ckpt_slot);
        DumpPartitionRows(engine_, table, p, out, &rows);
      }
      PatchRowCount(out, count_offset, rows);
      stats->rows += rows;
      ++stats->tables;
    }
  } else {  // kPartitionWindows
    // Single-version schemes write row images in place mid-transaction, so
    // each partition is dumped under a brief drain; execution resumes
    // between partitions.
    bool first_window = true;
    for (int i = 0; i < num_tables; ++i) {
      Table* table = engine_->catalog()->table_at(i);
      const size_t count_offset = BeginTableDump(table, out);
      uint64_t rows = 0;
      for (uint32_t p = 0; p < table->num_partitions(); ++p) {
        engine_->PauseTransactions();
        if (first_window) {
          capture_start_lsn();
          first_window = false;
        }
        DumpPartitionRows(engine_, table, p, out, &rows);
        engine_->ResumeTransactions();
      }
      PatchRowCount(out, count_offset, rows);
      stats->rows += rows;
      ++stats->tables;
    }
    if (first_window) {  // No tables: still anchor the LSN consistently.
      engine_->PauseTransactions();
      capture_start_lsn();
      engine_->ResumeTransactions();
    }
  }
  FinishCheckpointImage(out);
}

Status CheckpointCoordinator::CheckpointNow(CheckpointStats* stats) {
  MutexLock lock(&run_mu_);
  const uint64_t start_ns = NowNanos();
  CheckpointStats local;
  std::vector<uint8_t> body;
  Lsn start_lsn = 0;
  SerializeSnapshot(&body, &start_lsn, &local);

  const uint64_t seq = next_seq_;
  const std::string file = CheckpointFileName(seq);
  NEXT700_RETURN_IF_ERROR(WriteFileAtomic(
      options_.dir + "/" + file, body.data(), body.size(),
      [this](const char* point) {
        Hook((std::string("checkpoint:") + point).c_str());
      }));

  Hook("checkpoint:before-manifest");
  CheckpointManifest manifest;
  manifest.checkpoint_seq = seq;
  manifest.checkpoint_file = file;
  manifest.start_lsn = start_lsn;
  LogManager* log = engine_->log_manager();
  const bool truncate = log != nullptr && options_.truncate_log;
  if (truncate) {
    const SealedSegment base = log->BaseAfterRetire(start_lsn);
    manifest.log_base_index = base.index;
    manifest.log_base_lsn = base.start_lsn;
  } else {
    manifest.log_base_index = prev_base_index_;
    manifest.log_base_lsn = prev_base_lsn_;
  }
  NEXT700_RETURN_IF_ERROR(WriteManifestAtomic(
      options_.dir, manifest, [this](const char* point) {
        Hook((std::string("manifest:") + point).c_str());
      }));

  Hook("checkpoint:before-retire");
  if (truncate) {
    // The MANIFEST recording the new base is durable, so segments below
    // that base are unreachable by recovery whether or not these unlinks
    // complete — a crash here leaves stale files the next Open() deletes.
    // Retire by the recorded base, not by start_lsn: the flusher may have
    // sealed the base segment below start_lsn since BaseAfterRetire named
    // it, and the MANIFEST still needs it.
    NEXT700_RETURN_IF_ERROR(log->RetireSegmentsBelow(
        manifest.log_base_lsn, [this] { Hook("checkpoint:mid-retire"); }));
  }

  Hook("checkpoint:before-cleanup");
  if (!prev_file_.empty() && prev_file_ != file) {
    // Best-effort: a stale checkpoint file is ignored by recovery and
    // swept by the next Prepare(). run_mu_ deliberately spans the whole
    // checkpoint including its IO — it serializes checkpoint runs, it is
    // not a transaction-path latch.
    // lint: allow-blocking-under-latch
    ::unlink((options_.dir + "/" + prev_file_).c_str());
  }

  prev_file_ = file;
  prev_base_index_ = manifest.log_base_index;
  prev_base_lsn_ = manifest.log_base_lsn;
  next_seq_ = seq + 1;
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  last_start_lsn_.store(start_lsn, std::memory_order_relaxed);

  local.bytes = body.size();
  local.elapsed_seconds = static_cast<double>(NowNanos() - start_ns) / 1e9;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status RecoverEngine(Engine* engine, const std::string& checkpoint_dir,
                     const std::string& log_dir,
                     RecoveryManager::SecondaryIndexRebuilder rebuilder,
                     RecoverOutcome* out) {
  CheckpointManifest manifest;
  Status ms = checkpoint_dir.empty()
                  ? Status::NotFound("no checkpoint dir")
                  : ReadManifest(checkpoint_dir, &manifest);
  if (!ms.ok() && !ms.IsNotFound()) return ms;  // Corrupt MANIFEST: loud.

  Lsn start_lsn = 0;
  uint64_t log_base_index = 0;
  Lsn log_base_lsn = 0;
  if (ms.ok()) {
    log_base_index = manifest.log_base_index;
    log_base_lsn = manifest.log_base_lsn;
    if (!manifest.checkpoint_file.empty()) {
      CheckpointManager loader(engine);
      loader.set_secondary_rebuilder(rebuilder);
      NEXT700_RETURN_IF_ERROR(
          loader.Load(checkpoint_dir + "/" + manifest.checkpoint_file,
                      &out->checkpoint));
      out->used_checkpoint = true;
      start_lsn = manifest.start_lsn;
    }
  }
  struct stat st;
  if (!log_dir.empty() && ::stat(log_dir.c_str(), &st) == 0) {
    RecoveryManager recovery(engine);
    recovery.set_secondary_rebuilder(rebuilder);
    NEXT700_RETURN_IF_ERROR(recovery.Replay(log_dir, &out->log, start_lsn,
                                            log_base_index, log_base_lsn));
    // Prepared-but-undecided 2PC branches found in the log are parked on
    // the engine; the server refuses normal traffic until the coordinator
    // resolves them (Engine::ResolveInDoubt).
    if (!recovery.in_doubt().empty()) {
      engine->SetInDoubt(recovery.TakeInDoubt(), rebuilder);
    }
  }
  return Status::OK();
}

}  // namespace next700
