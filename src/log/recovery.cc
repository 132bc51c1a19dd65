#include "log/recovery.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "log/log_file.h"

namespace next700 {

namespace {

/// Scoped engine replay mode: replayed command transactions re-execute
/// through the normal commit pipeline, and on an engine whose own log is
/// open (a replica, or checkpoint+suffix recovery into a serving engine)
/// they must not be appended to that log a second time.
class ReplayModeGuard {
 public:
  explicit ReplayModeGuard(Engine* engine) : engine_(engine) {
    engine_->set_replay_mode(true);
  }
  ~ReplayModeGuard() { engine_->set_replay_mode(false); }
  ReplayModeGuard(const ReplayModeGuard&) = delete;
  ReplayModeGuard& operator=(const ReplayModeGuard&) = delete;

 private:
  Engine* engine_;
};

}  // namespace

void RecoveryManager::ApplyImage(Engine* engine, Row* row,
                                 const uint8_t* image, uint32_t len) {
  if (engine->cc()->is_multiversion()) {
    Version* v = row->chain.load(std::memory_order_relaxed);
    NEXT700_CHECK(v != nullptr);
    std::memcpy(v->data(), image, len);
  } else {
    std::memcpy(row->data(), image, len);
  }
}

Status RecoveryManager::ApplyValueRecord(LogReader* reader,
                                         RecoveryStats* stats) {
  uint64_t commit_ts;
  uint32_t num_writes;
  if (!reader->GetU64(&commit_ts) || !reader->GetU32(&num_writes)) {
    return Status::Corruption("truncated value record");
  }
  for (uint32_t i = 0; i < num_writes; ++i) {
    uint32_t table_id, partition, payload_len;
    uint64_t primary_key;
    uint8_t kind_raw;
    if (!reader->GetU32(&table_id) || !reader->GetU32(&partition) ||
        !reader->GetU64(&primary_key) || !reader->GetU8(&kind_raw) ||
        !reader->GetU32(&payload_len)) {
      return Status::Corruption("truncated write entry");
    }
    const uint8_t* payload = reader->Peek();
    if (!reader->Skip(payload_len)) {
      return Status::Corruption("truncated payload");
    }
    Table* table = engine_->catalog()->GetTable(table_id);
    if (table == nullptr) return Status::Corruption("unknown table id");
    NEXT700_CHECK(payload_len == 0 ||
                  payload_len == table->schema().row_size());
    Index* primary = engine_->catalog()->PrimaryIndex(table);
    NEXT700_CHECK_MSG(primary != nullptr, "table has no primary index");
    const auto kind = static_cast<LogWriteKind>(kind_raw);

    Row* row = primary->Lookup(primary_key);
    if (row == nullptr) {
      if (kind == LogWriteKind::kDelete) continue;  // Never materialized.
      row = engine_->LoadRow(table, partition, primary_key, payload);
      row->wts.store(commit_ts, std::memory_order_relaxed);
      NEXT700_CHECK(primary->Insert(primary_key, row).ok());
      if (rebuilder_) rebuilder_(engine_, row);
      ++stats->writes_applied;
      continue;
    }
    // Thomas-rule replay: 0 means "log order is commit order" (lock-based
    // schemes); otherwise images carry explicit timestamps and only newer
    // ones overwrite.
    const Timestamp applied = row->wts.load(std::memory_order_relaxed);
    if (commit_ts != 0 && commit_ts < applied) {
      ++stats->writes_skipped;
      continue;
    }
    if (kind == LogWriteKind::kDelete) {
      row->set_deleted(true);
      primary->Remove(primary_key, row);
    } else {
      row->set_deleted(false);
      ApplyImage(engine_, row, payload, payload_len);
    }
    row->wts.store(commit_ts, std::memory_order_relaxed);
    ++stats->writes_applied;
  }
  ++stats->txns_replayed;
  return Status::OK();
}

Status RecoveryManager::ApplyCommandRecord(LogReader* reader,
                                           RecoveryStats* stats) {
  uint64_t commit_ts;
  uint32_t proc_id, arg_len;
  if (!reader->GetU64(&commit_ts) || !reader->GetU32(&proc_id) ||
      !reader->GetU32(&arg_len)) {
    return Status::Corruption("truncated command record");
  }
  const uint8_t* args = reader->Peek();
  if (!reader->Skip(arg_len)) return Status::Corruption("truncated args");
  // Serial re-execution in log order on worker 0; retry CC aborts (none are
  // expected single-threaded), pass user aborts through (they replay the
  // original abort deterministically).
  for (;;) {
    const Status s = engine_->RunProcedure(proc_id, 0, args, arg_len);
    if (s.ok() || !s.IsAborted()) break;
  }
  ++stats->txns_replayed;
  return Status::OK();
}

Status RecoveryManager::ApplyPrepareRecord(LogReader* reader,
                                           RecoveryStats* stats) {
  (void)stats;
  uint64_t gtid;
  if (!reader->GetU64(&gtid)) {
    return Status::Corruption("truncated prepare record");
  }
  // Stash the redo body without touching rows: until the outcome record (or
  // the coordinator's post-recovery decision) arrives, this branch is
  // neither committed nor aborted. Overwrite is harmless — a participant
  // writes at most one prepare per gtid, and replaying the same frames
  // twice (replication catch-up) must be idempotent.
  const uint8_t* body = reader->Peek();
  const size_t body_len = reader->remaining();
  in_doubt_[gtid].assign(body, body + body_len);
  NEXT700_CHECK(reader->Skip(body_len));
  return Status::OK();
}

Status RecoveryManager::ApplyOutcomeRecord(LogReader* reader,
                                           RecoveryStats* stats) {
  uint64_t gtid;
  uint8_t committed;
  if (!reader->GetU64(&gtid) || !reader->GetU8(&committed) ||
      committed > 1) {
    return Status::Corruption("malformed outcome record");
  }
  auto it = in_doubt_.find(gtid);
  if (committed) {
    // A commit outcome is only ever logged after the prepare is durable, so
    // a missing stash means the log lost the prepare: real corruption.
    if (it == in_doubt_.end()) {
      return Status::Corruption("commit outcome without prepare record");
    }
    LogReader redo(it->second.data(), it->second.size());
    const Status s = ApplyValueRecord(&redo, stats);
    if (!s.ok()) return s;
  }
  // Abort with no stash is legal: the in-memory abort path logs an outcome
  // even when the prepare predates this replay window.
  if (it != in_doubt_.end()) in_doubt_.erase(it);
  return Status::OK();
}

Status RecoveryManager::WalkFrames(const uint8_t* data, size_t len,
                                   const std::string& origin,
                                   bool allow_torn_tail, Lsn base_lsn,
                                   Lsn start_lsn, RecoveryStats* stats) {
  return WalkLogFrames(
      data, len, origin, allow_torn_tail,
      [&](LogRecordType type, const uint8_t* body, uint32_t body_len,
          size_t frame_end) {
        // Before the checkpoint: already materialized.
        if (base_lsn + frame_end <= start_lsn) return Status::OK();
        LogReader reader(body, body_len);
        switch (type) {
          case LogRecordType::kTxnValue:
            return ApplyValueRecord(&reader, stats);
          case LogRecordType::kTxnCommand:
            return ApplyCommandRecord(&reader, stats);
          case LogRecordType::kTxnPrepare:
            return ApplyPrepareRecord(&reader, stats);
          case LogRecordType::kTxnOutcome:
            return ApplyOutcomeRecord(&reader, stats);
          default:
            // kCoordDecision never appears in an engine log — a
            // coordinator's decision log holds nothing else and is scanned
            // separately.
            return Status::Corruption("unknown record type");
        }
      });
}

Status RecoveryManager::ApplyFrames(const uint8_t* data, size_t len,
                                    RecoveryStats* stats) {
  ReplayModeGuard guard(engine_);
  stats->bytes_read += len;
  return WalkFrames(data, len, "replication batch",
                    /*allow_torn_tail=*/false, /*base_lsn=*/0,
                    /*start_lsn=*/0, stats);
}

Status RecoveryManager::ApplyRedoBody(const uint8_t* data, size_t len,
                                      RecoveryStats* stats) {
  ReplayModeGuard guard(engine_);
  LogReader reader(data, len);
  return ApplyValueRecord(&reader, stats);
}

Status RecoveryManager::ReplaySegment(const std::string& path, Lsn base_lsn,
                                      bool is_final, Lsn start_lsn,
                                      RecoveryStats* stats) {
  std::vector<uint8_t> file;
  NEXT700_RETURN_IF_ERROR(ReadFileFully(path, &file));
  stats->bytes_read += file.size();
  ++stats->segments_read;
  return WalkFrames(file.data(), file.size(), "non-final segment " + path,
                    /*allow_torn_tail=*/is_final, base_lsn, start_lsn,
                    stats);
}

Status RecoveryManager::Replay(const std::string& path, RecoveryStats* stats,
                               Lsn start_lsn, uint64_t log_base_index,
                               Lsn log_base_lsn) {
  ReplayModeGuard guard(engine_);
  const uint64_t start = NowNanos();
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  if (S_ISDIR(st.st_mode)) {
    std::vector<LogSegment> segments;
    NEXT700_RETURN_IF_ERROR(ListLogSegments(path, &segments));
    // Segments below the manifest's base are a retired prefix that a crash
    // left behind (their contents are covered by the checkpoint); the LSN
    // space of the retained chain starts at the recorded base, not 0.
    Lsn base_lsn = log_base_lsn;
    size_t first = 0;
    while (first < segments.size() &&
           segments[first].index < log_base_index) {
      ++first;
    }
    NEXT700_RETURN_IF_ERROR(
        CheckSegmentChain(segments, first, log_base_index));
    for (size_t i = first; i < segments.size(); ++i) {
      const bool is_final = i + 1 == segments.size();
      NEXT700_RETURN_IF_ERROR(ReplaySegment(segments[i].path, base_lsn,
                                            is_final, start_lsn, stats));
      base_lsn += segments[i].bytes;
    }
  } else {
    NEXT700_RETURN_IF_ERROR(
        ReplaySegment(path, /*base_lsn=*/log_base_lsn, /*is_final=*/true,
                      start_lsn, stats));
  }
  stats->elapsed_seconds =
      static_cast<double>(NowNanos() - start) / 1e9;
  return Status::OK();
}

Status ScanCoordinatorDecisions(const std::string& path,
                                std::vector<uint64_t>* committed) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  std::vector<std::string> files;
  if (S_ISDIR(st.st_mode)) {
    std::vector<LogSegment> segments;
    NEXT700_RETURN_IF_ERROR(ListLogSegments(path, &segments));
    for (const LogSegment& seg : segments) files.push_back(seg.path);
  } else {
    files.push_back(path);
  }
  for (size_t i = 0; i < files.size(); ++i) {
    std::vector<uint8_t> file;
    NEXT700_RETURN_IF_ERROR(ReadFileFully(files[i], &file));
    const std::string& origin = files[i];
    NEXT700_RETURN_IF_ERROR(WalkLogFrames(
        file.data(), file.size(), origin,
        /*allow_torn_tail=*/i + 1 == files.size(),
        [&](LogRecordType type, const uint8_t* body, uint32_t body_len,
            size_t) {
          if (type != LogRecordType::kCoordDecision ||
              body_len != sizeof(uint64_t)) {
            return Status::Corruption(
                "non-decision record in coordinator log " + origin);
          }
          uint64_t gtid;
          std::memcpy(&gtid, body, sizeof(gtid));
          committed->push_back(gtid);
          return Status::OK();
        }));
  }
  return Status::OK();
}

}  // namespace next700
