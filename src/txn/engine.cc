#include "txn/engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cc/hstore.h"
#include "cc/occ_silo.h"
#include "cc/snapshot_isolation.h"
#include "cc/tictoc.h"
#include "cc/timestamp_ordering.h"
#include "cc/two_phase_locking.h"
#include "log/checkpoint.h"
#include "log/manifest.h"
#include "log/recovery.h"

namespace next700 {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  NEXT700_CHECK(options_.max_threads > 0);
  NEXT700_CHECK(options_.num_partitions > 0);
  if (options_.cc_scheme == CcScheme::kSi) {
    // SI correctness is tied to real time: a batched timestamp can lie in
    // the past, which breaks both snapshot stability (a commit at a lower
    // wts materializes inside an already-taken snapshot) and
    // first-committer-wins (the conflicting version is not "newer than the
    // snapshot"). MVTO has no such dependence — it serializes in timestamp
    // order whatever the wall-clock order — so only SI keeps the
    // restriction (see DESIGN.md, memory model).
    NEXT700_CHECK_MSG(
        options_.ts_allocator == TimestampAllocatorKind::kAtomic,
        "SI requires the atomic timestamp allocator");
  }
  ts_allocator_ =
      TimestampAllocator::Create(options_.ts_allocator, options_.max_threads);
  tracker_ = std::make_unique<ActiveTxnTracker>(options_.max_threads);

  switch (options_.cc_scheme) {
    case CcScheme::kNoWait:
    case CcScheme::kWaitDie:
    case CcScheme::kWoundWait:
    case CcScheme::kDlDetect:
      cc_ = std::make_unique<TwoPhaseLocking>(options_.cc_scheme,
                                              ts_allocator_.get());
      break;
    case CcScheme::kTimestamp:
      cc_ = std::make_unique<TimestampOrdering>(ts_allocator_.get());
      break;
    case CcScheme::kOcc:
      cc_ = std::make_unique<OccSilo>();
      break;
    case CcScheme::kTicToc:
      cc_ = std::make_unique<TicToc>();
      break;
    case CcScheme::kMvto:
      cc_ = std::make_unique<Mvto>(ts_allocator_.get(), tracker_.get(),
                                   options_.mvcc_gc);
      break;
    case CcScheme::kSi:
      cc_ = std::make_unique<SnapshotIsolation>(
          ts_allocator_.get(), tracker_.get(), options_.mvcc_gc);
      break;
    case CcScheme::kHstore:
      cc_ = std::make_unique<Hstore>(options_.num_partitions);
      break;
  }

  if (cc_->is_multiversion()) {
    // One extra epoch slot (index max_threads) pins the checkpointer's
    // fuzzy scans; it sits idle when no checkpoint_dir is configured.
    epochs_ = std::make_unique<EpochManager>(options_.max_threads + 1);
    pools_.reserve(options_.max_threads);
    for (int i = 0; i < options_.max_threads; ++i) {
      pools_.push_back(std::make_unique<VersionPool>(epochs_.get(), i));
    }
  }
  workers_.reset(new WorkerState[options_.max_threads]);

  contexts_.reserve(options_.max_threads);
  for (int i = 0; i < options_.max_threads; ++i) {
    contexts_.push_back(std::make_unique<TxnContext>(i));
    contexts_[i]->set_version_pool(version_pool(i));
  }
  stats_.reset(new ThreadStats[options_.max_threads]);

  // The checkpoint MANIFEST carries the log's base bookkeeping: after
  // truncation the earliest surviving segment no longer starts at LSN 0,
  // and the log must resume the LSN space from the recorded base.
  uint64_t log_base_index = 0;
  Lsn log_base_lsn = 0;
  if (!options_.checkpoint_dir.empty()) {
    CheckpointManifest manifest;
    const Status ms = ReadManifest(options_.checkpoint_dir, &manifest);
    NEXT700_CHECK_MSG(ms.ok() || ms.IsNotFound(),
                      "corrupt checkpoint MANIFEST");
    if (ms.ok()) {
      log_base_index = manifest.log_base_index;
      log_base_lsn = manifest.log_base_lsn;
    }
  }

  if (options_.logging != LoggingKind::kNone) {
    NEXT700_CHECK_MSG(!options_.log_dir.empty(),
                      "logging enabled without log_dir");
    LogManagerOptions log_options;
    log_options.dir = options_.log_dir;
    log_options.device_latency_us = options_.log_device_latency_us;
    log_options.sync_policy = options_.log_sync;
    log_options.segment_bytes = options_.log_segment_bytes;
    log_options.file_factory = options_.log_file_factory;
    log_options.io_backend = options_.log_io_backend;
    log_options.base_index = log_base_index;
    log_options.base_lsn = log_base_lsn;
    log_ = std::make_unique<LogManager>(log_options);
    NEXT700_CHECK_MSG(log_->Open().ok(), "cannot open log");
  }

  if (!options_.checkpoint_dir.empty()) {
    txn_gate_enabled_ = true;
    CheckpointerOptions ckpt_options;
    ckpt_options.dir = options_.checkpoint_dir;
    ckpt_options.interval_ms = options_.checkpoint_interval_ms;
    ckpt_options.truncate_log = options_.checkpoint_truncates_log;
    ckpt_options.crash_hook = options_.checkpoint_crash_hook;
    checkpointer_ =
        std::make_unique<CheckpointCoordinator>(this, std::move(ckpt_options));
    NEXT700_CHECK_MSG(checkpointer_->Prepare().ok(),
                      "cannot prepare checkpoint dir");
  }
}

Engine::~Engine() {
  // Stop the checkpointer before anything it scans (tables, epochs, log)
  // goes away.
  if (checkpointer_ != nullptr) checkpointer_->Stop();
  // Drain retired versions into the pools while both (and the tables whose
  // chains still reference pooled blocks) are alive; afterwards the member
  // destructor order no longer matters.
  if (epochs_ != nullptr) epochs_->ReclaimAll();
  if (log_ != nullptr) log_->Close();
}

void Engine::StartCheckpointer() {
  NEXT700_CHECK_MSG(checkpointer_ != nullptr, "no checkpoint_dir configured");
  checkpointer_->Start();
}

Status Engine::TriggerCheckpoint(CheckpointStats* stats) {
  NEXT700_CHECK_MSG(checkpointer_ != nullptr, "no checkpoint_dir configured");
  return checkpointer_->CheckpointNow(stats);
}

#ifndef NDEBUG
namespace {
/// Identifies the calling thread by the address of a thread-local.
uintptr_t DebugThreadToken() {
  static thread_local char token;
  return reinterpret_cast<uintptr_t>(&token);
}
}  // namespace
#endif

void Engine::EnterTxnGate(int thread_id) {
#ifndef NDEBUG
  uintptr_t owner = 0;
  if (!workers_[thread_id].owner.compare_exchange_strong(
          owner, DebugThreadToken(), std::memory_order_acq_rel) &&
      owner != DebugThreadToken()) {
    std::fprintf(stderr,
                 "engine thread id %d is inside a transaction on two "
                 "threads at once\n",
                 thread_id);
    std::abort();
  }
#endif
  if (!txn_gate_enabled_) return;
  WorkerState& worker = workers_[thread_id];
  for (;;) {
    // Dekker pairing with PauseTransactions: our in_txn store and its
    // gate_closed_ store are both seq_cst, so either we see the gate
    // closed (and back off) or the pauser sees our in_txn and waits.
    worker.in_txn.store(1, std::memory_order_seq_cst);
    if (!gate_closed_.load(std::memory_order_seq_cst)) return;
    worker.in_txn.store(0, std::memory_order_seq_cst);
    MutexLock lock(&gate_mu_);
    gate_cv_.NotifyAll();  // The pauser may be waiting on our in_txn.
    while (gate_closed_.load(std::memory_order_acquire)) {
      gate_cv_.Wait(&gate_mu_);
    }
  }
}

void Engine::ExitTxnGate(int thread_id) {
#ifndef NDEBUG
  workers_[thread_id].owner.store(0, std::memory_order_release);
#endif
  if (!txn_gate_enabled_) return;
  workers_[thread_id].in_txn.store(0, std::memory_order_seq_cst);
  if (gate_closed_.load(std::memory_order_seq_cst)) {
    MutexLock lock(&gate_mu_);
    gate_cv_.NotifyAll();
  }
}

void Engine::PauseTransactions() {
  MutexLock lock(&gate_mu_);
  NEXT700_CHECK_MSG(!gate_closed_.load(std::memory_order_relaxed),
                    "nested transaction pause");
  gate_closed_.store(true, std::memory_order_seq_cst);
  for (;;) {
    bool any_in_txn = false;
    for (int i = 0; i < options_.max_threads; ++i) {
      if (workers_[i].in_txn.load(std::memory_order_seq_cst) != 0) {
        any_in_txn = true;
        break;
      }
    }
    if (!any_in_txn) break;
    gate_cv_.Wait(&gate_mu_);
  }
}

void Engine::ResumeTransactions() {
  {
    MutexLock lock(&gate_mu_);
    gate_closed_.store(false, std::memory_order_seq_cst);
  }
  gate_cv_.NotifyAll();
}

Table* Engine::CreateTable(std::string name, Schema schema) {
  return catalog_.CreateTable(std::move(name), std::move(schema),
                              options_.num_partitions);
}

Index* Engine::CreateIndex(std::string name, Table* table, IndexKind kind,
                           uint64_t capacity_hint) {
  return catalog_.CreateIndex(std::move(name), table, kind, capacity_hint);
}

void Engine::RegisterProcedure(uint32_t proc_id, Procedure procedure,
                               bool read_only) {
  NEXT700_CHECK_MSG(GetProcedure(proc_id) == nullptr,
                    "duplicate procedure id");
  procedures_.push_back(
      ProcedureEntry{proc_id, std::move(procedure), read_only});
}

const Procedure* Engine::GetProcedure(uint32_t proc_id) const {
  for (const auto& entry : procedures_) {
    if (entry.proc_id == proc_id) return &entry.procedure;
  }
  return nullptr;
}

bool Engine::IsProcedureReadOnly(uint32_t proc_id) const {
  for (const auto& entry : procedures_) {
    if (entry.proc_id == proc_id) return entry.read_only;
  }
  return false;
}

TxnContext* Engine::Begin(int thread_id,
                          const std::vector<uint32_t>& partitions) {
  NEXT700_DCHECK(thread_id >= 0 && thread_id < options_.max_threads);
  EnterTxnGate(thread_id);
  TxnContext* txn = contexts_[thread_id].get();
  NEXT700_DCHECK(txn->state() != TxnState::kActive &&
                 txn->state() != TxnState::kValidated);
  txn->Reset();
  WorkerState& worker = workers_[thread_id];
  if (worker.next_txn_id == worker.txn_id_end) {
    worker.next_txn_id =
        next_txn_id_.fetch_add(kTxnIdBatch, std::memory_order_relaxed);
    worker.txn_id_end = worker.next_txn_id + kTxnIdBatch;
  }
  txn->set_txn_id(worker.next_txn_id++);
  txn->set_stats(&stats_[thread_id]);
  txn->partitions().assign(partitions.begin(), partitions.end());
  if (epochs_ != nullptr) epochs_->Enter(thread_id);
  const Status s = cc_->Begin(txn);
  NEXT700_CHECK_MSG(s.ok(), "Begin must not fail");
  return txn;
}

Status Engine::Read(TxnContext* txn, Index* index, uint64_t key,
                    uint8_t* out) {
  Row* row = index->Lookup(key);
  if (row == nullptr) return Status::NotFound("key not in index");
  return ReadRow(txn, row, out);
}

Status Engine::ReadRow(TxnContext* txn, Row* row, uint8_t* out) {
  ++txn->stats()->reads;
  return cc_->Read(txn, row, out);
}

Status Engine::ReadForUpdate(TxnContext* txn, Index* index, uint64_t key,
                             uint8_t* out) {
  Row* row = index->Lookup(key);
  if (row == nullptr) return Status::NotFound("key not in index");
  return ReadRowForUpdate(txn, row, out);
}

Status Engine::ReadRowForUpdate(TxnContext* txn, Row* row, uint8_t* out) {
  ++txn->stats()->reads;
  return cc_->ReadForUpdate(txn, row, out);
}

Status Engine::Update(TxnContext* txn, Index* index, uint64_t key,
                      const void* data) {
  Row* row = index->Lookup(key);
  if (row == nullptr) return Status::NotFound("key not in index");
  return UpdateRow(txn, row, data);
}

Status Engine::UpdateRow(TxnContext* txn, Row* row, const void* data) {
  ++txn->stats()->writes;
  uint8_t* copy = static_cast<uint8_t*>(
      txn->arena()->AllocateCopy(data, row->table->schema().row_size()));
  return cc_->Write(txn, row, copy);
}

Result<Row*> Engine::Insert(TxnContext* txn, Table* table, uint32_t partition,
                            uint64_t primary_key, const void* data) {
  ++txn->stats()->inserts;
  Row* row = table->AllocateRow(partition);
  row->primary_key = primary_key;
  uint8_t* copy = static_cast<uint8_t*>(
      txn->arena()->AllocateCopy(data, table->schema().row_size()));
  const Status s = cc_->Insert(txn, row, copy);
  if (!s.ok()) {
    table->FreeRow(row);
    return s;
  }
  return row;
}

Status Engine::Delete(TxnContext* txn, Row* row) {
  ++txn->stats()->writes;
  return cc_->Delete(txn, row);
}

void Engine::AddIndexInsert(TxnContext* txn, Index* index, uint64_t key,
                            Row* row) {
  txn->index_ops().push_back(IndexOp{index, key, row, /*is_insert=*/true});
}

void Engine::AddIndexRemove(TxnContext* txn, Index* index, uint64_t key,
                            Row* row) {
  txn->index_ops().push_back(IndexOp{index, key, row, /*is_insert=*/false});
}

Status Engine::Scan(TxnContext* txn, Index* index, uint64_t lo, uint64_t hi,
                    size_t limit, std::vector<Row*>* out) {
  ++txn->stats()->scans;
  return index->Scan(lo, hi, limit, out);
}

Status Engine::ScanReverse(TxnContext* txn, Index* index, uint64_t hi,
                           uint64_t lo, size_t limit,
                           std::vector<Row*>* out) {
  ++txn->stats()->scans;
  return index->ScanReverse(hi, lo, limit, out);
}

Timestamp Engine::ReplayCommitTimestamp(const TxnContext* txn) const {
  // Replay-ordering timestamp. Lock-based schemes serialize in commit
  // (= append) order, which a begin timestamp does not reflect; they log 0,
  // telling replay "apply in log order". Timestamp-based schemes log their
  // serialization timestamp so replay can apply the Thomas write rule.
  switch (options_.cc_scheme) {
    case CcScheme::kNoWait:
    case CcScheme::kWaitDie:
    case CcScheme::kWoundWait:
    case CcScheme::kDlDetect:
    case CcScheme::kHstore:
      return 0;
    default:
      return txn->commit_ts() != kInvalidTimestamp ? txn->commit_ts()
                                                   : txn->ts();
  }
}

void Engine::StageValueBody(TxnContext* txn, Timestamp commit_ts,
                            TxnContext::ByteBuffer* body) {
  BasicLogWriter<TxnContext::ByteBuffer> writer(body);
  writer.PutU64(commit_ts);
  writer.PutU32(static_cast<uint32_t>(txn->write_set().size()));
  for (const auto& entry : txn->write_set()) {
    const Table* table = entry.row->table;
    writer.PutU32(table->id());
    writer.PutU32(entry.row->partition);
    writer.PutU64(entry.row->primary_key);
    LogWriteKind kind = LogWriteKind::kUpdate;
    if (entry.is_insert) kind = LogWriteKind::kInsert;
    if (entry.is_delete) kind = LogWriteKind::kDelete;
    writer.PutU8(static_cast<uint8_t>(kind));
    if (entry.is_delete) {
      writer.PutU32(0);
    } else {
      const uint8_t* image = entry.version != nullptr ? entry.version->data()
                                                      : entry.new_data;
      writer.PutU32(table->schema().row_size());
      writer.PutBytes(image, table->schema().row_size());
    }
  }
}

Status Engine::AppendCommitRecord(TxnContext* txn) {
  if (txn->write_set().empty()) return Status::OK();  // Read-only.

  // Stage the record body in the txn's arena-backed buffer: no per-commit
  // heap allocation, and the bytes are reclaimed wholesale by Reset().
  TxnContext::ByteBuffer& body = txn->log_staging();
  body.clear();
  LogRecordType type;
  const Timestamp commit_ts = ReplayCommitTimestamp(txn);
  if (options_.logging == LoggingKind::kCommand && txn->has_procedure()) {
    type = LogRecordType::kTxnCommand;
    BasicLogWriter<TxnContext::ByteBuffer> writer(&body);
    writer.PutU64(commit_ts);
    writer.PutU32(txn->proc_id());
    writer.PutU32(static_cast<uint32_t>(txn->proc_args().size()));
    writer.PutBytes(txn->proc_args().data(), txn->proc_args().size());
  } else {
    // Value logging (also the fallback for ad-hoc command-logged txns).
    type = LogRecordType::kTxnValue;
    StageValueBody(txn, commit_ts, &body);
  }
  const Lsn lsn = log_->Append(type, body.data(), body.size());
  txn->set_commit_lsn(lsn);
  txn->stats()->log_bytes += body.size() + kFrameOverheadBytes;
  return Status::OK();
}

void Engine::ApplyIndexOps(TxnContext* txn) {
  for (const auto& op : txn->index_ops()) {
    if (op.is_insert) {
      const Status s = op.index->Insert(op.key, op.row);
      NEXT700_CHECK_MSG(s.ok(), "post-commit index insert failed");
    } else {
      op.index->Remove(op.key, op.row);
    }
  }
}

Status Engine::Commit(TxnContext* txn) {
  Status s = cc_->Validate(txn);
  if (!s.ok()) return s;
  // Replay mode: the record being re-executed is already in the log (or is
  // being mirrored verbatim by a replica's AppendRaw) — logging it again
  // would duplicate history. commit_lsn stays 0, which also skips the
  // durability wait below.
  if (log_ != nullptr && !replay_mode_.load(std::memory_order_relaxed)) {
    s = AppendCommitRecord(txn);
    NEXT700_CHECK_MSG(s.ok(), "log append failed");
  }
  cc_->Finalize(txn);
  ApplyIndexOps(txn);
  FinishEpoch(txn);
  ++txn->stats()->commits;
  // The checkpoint gate opens before the durability wait: the txn's effects
  // are finalized, so a snapshot taken from here on is consistent, and a
  // paused checkpointer must not wait on a flush it may itself be behind.
  ExitTxnGate(txn->thread_id());
  // Durability wait comes after Finalize (early lock release, Aether-style):
  // locks are not held across the flush, and any dependent transaction gets
  // a higher LSN, so it cannot be acknowledged before this one. On a log
  // device failure the commit stands in memory but the caller learns the
  // acknowledgement must not be given.
  if (log_ != nullptr && options_.sync_commit && !txn->defer_durable() &&
      txn->commit_lsn() > 0) {
    return log_->WaitDurable(txn->commit_lsn());
  }
  return Status::OK();
}

void Engine::Abort(TxnContext* txn) {
  // A transaction that finalized but failed its durability wait has nothing
  // to roll back; retry loops that Abort on any !ok status land here.
  if (txn->state() == TxnState::kCommitted) return;
  cc_->Abort(txn);
  FinishEpoch(txn);
  ++txn->stats()->aborts;
  ExitTxnGate(txn->thread_id());
}

void Engine::AbortUser(TxnContext* txn) {
  if (txn->state() == TxnState::kCommitted) return;
  cc_->Abort(txn);
  FinishEpoch(txn);
  ++txn->stats()->user_aborts;
  ExitTxnGate(txn->thread_id());
}

Status Engine::Prepare(TxnContext* txn, uint64_t gtid) {
  NEXT700_CHECK_MSG(log_ != nullptr, "2PC requires logging");
  Status s = cc_->Validate(txn);
  if (!s.ok()) return s;
  txn->set_gtid(gtid);
  // A read-only branch has nothing to redo — commit and abort are
  // indistinguishable — so it logs nothing and its outcome is never logged
  // either (recovery would reject a commit outcome without a prepare).
  if (!txn->write_set().empty() &&
      !replay_mode_.load(std::memory_order_relaxed)) {
    TxnContext::ByteBuffer& body = txn->log_staging();
    body.clear();
    BasicLogWriter<TxnContext::ByteBuffer> writer(&body);
    writer.PutU64(gtid);
    StageValueBody(txn, ReplayCommitTimestamp(txn), &body);
    const Lsn lsn =
        log_->Append(LogRecordType::kTxnPrepare, body.data(), body.size());
    txn->set_prepare_lsn(lsn);
    txn->stats()->log_bytes += body.size() + kFrameOverheadBytes;
    // Prepare durable before vote: once the yes vote leaves this shard the
    // coordinator may decide commit, and only the durable redo lets
    // recovery honor that decision after kill -9. On a device failure the
    // caller votes no and Aborts; the orphaned prepare (if any of it
    // reached disk) resolves to abort under presumed abort.
    s = log_->WaitDurable(lsn);
    if (!s.ok()) return s;
  }
  txn->set_prepared(true);
  return Status::OK();
}

Status Engine::CommitPrepared(TxnContext* txn) {
  NEXT700_CHECK_MSG(txn->prepared(), "CommitPrepared on unprepared txn");
  if (txn->prepare_lsn() > 0 &&
      !replay_mode_.load(std::memory_order_relaxed)) {
    TxnContext::ByteBuffer& body = txn->log_staging();
    body.clear();
    BasicLogWriter<TxnContext::ByteBuffer> writer(&body);
    writer.PutU64(txn->gtid());
    writer.PutU8(1);
    // Appended before Finalize releases the locks, so a conflicting later
    // transaction's commit record always lands behind this outcome.
    const Lsn lsn =
        log_->Append(LogRecordType::kTxnOutcome, body.data(), body.size());
    txn->set_commit_lsn(lsn);
    txn->stats()->log_bytes += body.size() + kFrameOverheadBytes;
  }
  cc_->Finalize(txn);
  ApplyIndexOps(txn);
  FinishEpoch(txn);
  ++txn->stats()->commits;
  ExitTxnGate(txn->thread_id());
  if (log_ != nullptr && options_.sync_commit && !txn->defer_durable() &&
      txn->commit_lsn() > 0) {
    return log_->WaitDurable(txn->commit_lsn());
  }
  return Status::OK();
}

void Engine::AbortPrepared(TxnContext* txn) {
  if (txn->prepare_lsn() > 0 &&
      !replay_mode_.load(std::memory_order_relaxed)) {
    TxnContext::ByteBuffer& body = txn->log_staging();
    body.clear();
    BasicLogWriter<TxnContext::ByteBuffer> writer(&body);
    writer.PutU64(txn->gtid());
    writer.PutU8(0);
    // No durability wait: under presumed abort a lost abort outcome only
    // leaves the gtid in doubt, and the coordinator re-answers abort.
    log_->Append(LogRecordType::kTxnOutcome, body.data(), body.size());
    txn->stats()->log_bytes += body.size() + kFrameOverheadBytes;
  }
  cc_->Abort(txn);
  FinishEpoch(txn);
  ++txn->stats()->aborts;
  ExitTxnGate(txn->thread_id());
}

void Engine::SetInDoubt(std::map<uint64_t, std::vector<uint8_t>> in_doubt,
                        std::function<void(Engine*, Row*)> rebuilder) {
  MutexLock lock(&in_doubt_mu_);
  in_doubt_ = std::move(in_doubt);
  in_doubt_rebuilder_ = std::move(rebuilder);
}

bool Engine::has_in_doubt() const {
  MutexLock lock(&in_doubt_mu_);
  return !in_doubt_.empty();
}

std::vector<uint64_t> Engine::InDoubtGtids() const {
  MutexLock lock(&in_doubt_mu_);
  std::vector<uint64_t> gtids;
  gtids.reserve(in_doubt_.size());
  for (const auto& entry : in_doubt_) gtids.push_back(entry.first);
  return gtids;
}

Status Engine::ResolveInDoubt(uint64_t gtid, bool commit) {
  NEXT700_CHECK_MSG(log_ != nullptr, "2PC requires logging");
  MutexLock lock(&in_doubt_mu_);
  auto it = in_doubt_.find(gtid);
  if (it == in_doubt_.end()) return Status::NotFound("gtid not in doubt");
  std::vector<uint8_t> body;
  LogWriter writer(&body);
  writer.PutU64(gtid);
  writer.PutU8(commit ? 1 : 0);
  const Lsn lsn =
      log_->Append(LogRecordType::kTxnOutcome, body.data(), body.size());
  if (commit) {
    // The outcome must be durable before the redo becomes visible: a crash
    // right after the apply must replay to the same committed state.
    NEXT700_RETURN_IF_ERROR(log_->WaitDurable(lsn));
    RecoveryManager recovery(this);
    recovery.set_secondary_rebuilder(in_doubt_rebuilder_);
    RecoveryStats stats;
    NEXT700_RETURN_IF_ERROR(recovery.ApplyRedoBody(
        it->second.data(), it->second.size(), &stats));
  }
  in_doubt_.erase(it);
  return Status::OK();
}

Status Engine::RunProcedure(uint32_t proc_id, int thread_id, const void* args,
                            size_t arg_len,
                            const std::vector<uint32_t>& partitions) {
  const Procedure* proc = GetProcedure(proc_id);
  NEXT700_CHECK_MSG(proc != nullptr, "unknown procedure");
  TxnContext* txn = Begin(thread_id, partitions);
  txn->SetProcedure(proc_id, args, arg_len);
  Status s = (*proc)(this, txn, static_cast<const uint8_t*>(args), arg_len);
  if (s.ok()) s = Commit(txn);
  if (!s.ok()) {
    if (s.IsAborted()) {
      Abort(txn);
    } else {
      AbortUser(txn);
    }
  }
  return s;
}

Engine::DeferredResult Engine::RunProcedureDeferred(
    uint32_t proc_id, int thread_id, const void* args, size_t arg_len,
    const std::vector<uint32_t>& partitions) {
  const Procedure* proc = GetProcedure(proc_id);
  NEXT700_CHECK_MSG(proc != nullptr, "unknown procedure");
  TxnContext* txn = Begin(thread_id, partitions);
  txn->set_defer_durable(true);
  txn->SetProcedure(proc_id, args, arg_len);
  Status s = (*proc)(this, txn, static_cast<const uint8_t*>(args), arg_len);
  if (s.ok()) s = Commit(txn);
  DeferredResult result;
  result.status = s;
  if (s.ok()) {
    // Durability matters only for sync-commit compositions; async commit
    // already promises nothing, so replies need not wait for the flusher.
    if (options_.sync_commit) result.commit_lsn = txn->commit_lsn();
    result.reply.assign(txn->reply_payload().begin(),
                        txn->reply_payload().end());
  } else {
    if (s.IsAborted()) {
      Abort(txn);
    } else {
      AbortUser(txn);
    }
  }
  return result;
}

RunStats Engine::AggregateStats() const {
  RunStats run;
  for (int i = 0; i < options_.max_threads; ++i) run.Add(stats_[i]);
  return run;
}

void Engine::ResetStats() {
  for (int i = 0; i < options_.max_threads; ++i) stats_[i].Reset();
}

Row* Engine::LoadRow(Table* table, uint32_t partition, uint64_t primary_key,
                     const void* data) {
  Row* row = table->AllocateRow(partition);
  row->primary_key = primary_key;
  if (cc_->is_multiversion()) {
    Version* v = Version::Allocate(table->schema().row_size());
    v->wts = kInvalidTimestamp;  // Older than every transaction.
    v->committed.store(true, std::memory_order_relaxed);
    std::memcpy(v->data(), data, table->schema().row_size());
    row->chain.store(v, std::memory_order_release);
  } else {
    std::memcpy(row->data(), data, table->schema().row_size());
  }
  return row;
}

const uint8_t* Engine::RawImage(const Row* row) const {
  if (cc_->is_multiversion()) {
    const Version* v = row->chain.load(std::memory_order_acquire);
    NEXT700_CHECK(v != nullptr);
    return v->data();
  }
  return row->data();
}

}  // namespace next700
