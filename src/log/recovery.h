#ifndef NEXT700_LOG_RECOVERY_H_
#define NEXT700_LOG_RECOVERY_H_

/// \file
/// Crash recovery by log replay. The caller constructs a *fresh* engine
/// with the same schema, indexes, and registered procedures (and logging
/// disabled or pointed at a new directory), then replays the old log into
/// it:
///
///   * value records   — after-images are applied in timestamp order per
///     row (Thomas-rule replay: an image is skipped when a newer one was
///     already applied), and missing rows are re-created and re-inserted
///     into their table's primary index. Secondary indexes are rebuilt by
///     the optional per-row callback, since only the workload knows their
///     key derivation.
///   * command records — registered procedures are re-executed serially in
///     log order.
///   * prepare/outcome records (2PC participants) — a kTxnPrepare stashes
///     its redo body by gtid without touching rows; the matching
///     kTxnOutcome applies the stash (commit) or drops it (abort) at the
///     outcome's log position. Prepares with no outcome by end of replay
///     are the *in-doubt set*: their rows stay untouched and the stashed
///     redo is surfaced via in_doubt()/TakeInDoubt() so the serving layer
///     can resolve them once the coordinator reports its decision.
///
/// Replay walks the `log.NNNNNN` segments of a log directory in index
/// order (a single-file path is also accepted, for unit tests and log
/// suffixes extracted by checkpointing). Segments rotate on frame
/// boundaries, so only the *final* segment may end in a torn frame — a
/// torn or checksum-failed frame anywhere else is real corruption and
/// fails the replay instead of being silently skipped.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "txn/engine.h"

namespace next700 {

struct RecoveryStats {
  uint64_t txns_replayed = 0;
  uint64_t writes_applied = 0;
  uint64_t writes_skipped = 0;  // Thomas-rule skips.
  uint64_t segments_read = 0;
  uint64_t bytes_read = 0;
  double elapsed_seconds = 0;
};

class RecoveryManager {
 public:
  /// Called for every row (re)created by value replay so the workload can
  /// rebuild secondary index entries.
  using SecondaryIndexRebuilder = std::function<void(Engine*, Row*)>;

  explicit RecoveryManager(Engine* engine) : engine_(engine) {}

  void set_secondary_rebuilder(SecondaryIndexRebuilder rebuilder) {
    rebuilder_ = std::move(rebuilder);
  }

  /// Replays the log at `path` (segment directory or single file) into the
  /// engine. Frames that end at or below `start_lsn` are skipped — the
  /// checkpoint + log-suffix path passes the checkpoint LSN here. A
  /// truncated log passes the MANIFEST's `log_base_index`/`log_base_lsn`:
  /// segments below the index are ignored (a retired prefix a crash left
  /// behind) and cumulative LSNs start at the base instead of 0. Returns
  /// kCorruption for mid-log damage and for a retained chain that does not
  /// start at `log_base_index` or skips an index; a torn tail on the final
  /// segment ends replay with OK.
  Status Replay(const std::string& path, RecoveryStats* stats,
                Lsn start_lsn = 0, uint64_t log_base_index = 0,
                Lsn log_base_lsn = 0);

  /// Applies a contiguous run of *complete* frames from memory — the
  /// replication applier feeds received stream batches here, one batch at
  /// a time, reusing the exact replay semantics (Thomas-rule value apply,
  /// serial command re-execution). A torn or checksum-failed frame is
  /// kCorruption: unlike a crashed log's final segment, a shipped batch
  /// has no legal torn tail. The caller serializes invocations and
  /// excludes concurrent readers (replay writes row images directly,
  /// outside any CC).
  Status ApplyFrames(const uint8_t* data, size_t len, RecoveryStats* stats);

  /// Applies one kTxnValue-format body directly (the stashed redo of an
  /// in-doubt transaction the coordinator has since decided to commit).
  /// Same single-writer requirements as ApplyFrames.
  Status ApplyRedoBody(const uint8_t* data, size_t len, RecoveryStats* stats);

  /// Prepared-but-undecided transactions left over after replay:
  /// gtid -> stashed kTxnValue redo body. The map persists across
  /// ApplyFrames calls (a prepare and its outcome may arrive in different
  /// replication batches).
  const std::map<uint64_t, std::vector<uint8_t>>& in_doubt() const {
    return in_doubt_;
  }
  std::map<uint64_t, std::vector<uint8_t>> TakeInDoubt() {
    return std::move(in_doubt_);
  }

 private:
  Status ApplyValueRecord(LogReader* reader, RecoveryStats* stats);
  Status ApplyCommandRecord(LogReader* reader, RecoveryStats* stats);
  Status ApplyPrepareRecord(LogReader* reader, RecoveryStats* stats);
  Status ApplyOutcomeRecord(LogReader* reader, RecoveryStats* stats);
  /// Shared frame walk over one contiguous byte run. `origin` labels error
  /// messages; `allow_torn_tail` permits an incomplete final frame (only
  /// the final segment of a crashed log); frames ending at or below
  /// `start_lsn` (relative to `base_lsn`) are skipped.
  Status WalkFrames(const uint8_t* data, size_t len,
                    const std::string& origin, bool allow_torn_tail,
                    Lsn base_lsn, Lsn start_lsn, RecoveryStats* stats);
  /// One segment. `base_lsn` is the LSN of its first byte; `is_final`
  /// permits a torn tail.
  Status ReplaySegment(const std::string& path, Lsn base_lsn, bool is_final,
                       Lsn start_lsn, RecoveryStats* stats);

  /// Overwrites a row's visible image outside any transaction (replay is
  /// single-threaded).
  static void ApplyImage(Engine* engine, Row* row, const uint8_t* image,
                         uint32_t len);

  Engine* engine_;
  SecondaryIndexRebuilder rebuilder_;
  std::map<uint64_t, std::vector<uint8_t>> in_doubt_;
};

/// Scans a shard-router coordinator log (kCoordDecision frames only) and
/// returns every committed gtid. Under presumed abort a gtid absent from
/// the log was aborted, so this set is the whole recovery state. Accepts a
/// segment directory or single file; a torn tail on the final segment ends
/// the scan cleanly (that decision was never acked, so abort is correct).
Status ScanCoordinatorDecisions(const std::string& path,
                                std::vector<uint64_t>* committed);

}  // namespace next700

#endif  // NEXT700_LOG_RECOVERY_H_
