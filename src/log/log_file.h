#ifndef NEXT700_LOG_LOG_FILE_H_
#define NEXT700_LOG_LOG_FILE_H_

/// \file
/// The log device behind the LogManager: an append-only file with an
/// explicit durability barrier. The manager talks to this interface only,
/// which makes the physical backend injectable — PosixLogFile is the real
/// thing (write + fdatasync / O_DSYNC), and src/faultlog/ provides a
/// fault-injecting backend that can crash the process mid-write, tear a
/// write at a byte offset, or flip bits in flushed data for the
/// crash-consistency harness (tools/crashtest).
///
/// Also here: the on-disk segment naming shared by the manager (which
/// appends to `<dir>/log.NNNNNN` and rotates on a size threshold) and the
/// recovery path (which replays the segments of a directory in order).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "log/log_record.h"

namespace next700 {

namespace io {
class IoBackend;
}  // namespace io

/// Append-only log device. Append() must either write every byte or return
/// a non-OK status; Sync() is the durability barrier after which previously
/// appended bytes must survive a crash.
class LogFile {
 public:
  virtual ~LogFile() = default;

  /// Creates `path` (which must not already exist — segments are never
  /// reused) and opens it for appending. `o_dsync` requests synchronous
  /// writes (every Append is its own barrier; Sync becomes a no-op).
  virtual Status Open(const std::string& path, bool o_dsync) = 0;

  /// Writes all `len` bytes, retrying transient failures (EINTR/EAGAIN)
  /// and short writes. A non-OK return means the device is broken; the
  /// caller must treat the tail of the log as unwritten.
  virtual Status Append(const uint8_t* data, size_t len) = 0;

  /// Durability barrier (fdatasync). No-op under O_DSYNC.
  virtual Status Sync() = 0;

  virtual void Close() = 0;

  /// Barriers issued by this file: Sync() calls, or Append() calls when
  /// opened with O_DSYNC. Lets tests verify durability is real, not a
  /// sleep_for stand-in.
  virtual uint64_t sync_count() const = 0;

  /// write(2)-equivalent operations issued (syscall attempts in the posix
  /// path, write submissions in the uring path). 0 for synthetic devices
  /// that do not override it; the flusher turns this into the
  /// write-syscalls-per-txn series.
  virtual uint64_t write_count() const { return 0; }

  /// Submits the staged flush (`len` bytes) plus, when `barrier`, the
  /// durability barrier — batched into one kernel entry where the device
  /// and `io` support it (linked WRITE+FSYNC on a uring backend). The
  /// default routes through Append() + Sync(), so every existing subclass
  /// seam (fault injection, RawWrite shims) interposes unchanged; this is
  /// deliberate — crashtest's faults must keep firing no matter which
  /// backend the server runs.
  virtual Status SubmitAppend(io::IoBackend* io, const uint8_t* data,
                              size_t len, bool barrier) {
    (void)io;
    NEXT700_RETURN_IF_ERROR(Append(data, len));
    return barrier ? Sync() : Status::OK();
  }
};

/// Creates the backend for each newly opened segment. The default (an empty
/// factory) builds PosixLogFile.
using LogFileFactory = std::function<std::unique_ptr<LogFile>()>;

/// The real device: O_APPEND + fdatasync with EINTR/EAGAIN retry and
/// short-write continuation. RawWrite is virtual so tests can shim the
/// write syscall (EINTR storms, short writes, persistent EIO) without
/// touching the retry logic under test.
class PosixLogFile : public LogFile {
 public:
  ~PosixLogFile() override;

  Status Open(const std::string& path, bool o_dsync) override;
  Status Append(const uint8_t* data, size_t len) override;
  Status Sync() override;
  void Close() override;
  uint64_t sync_count() const override { return sync_count_; }
  uint64_t write_count() const override { return write_count_; }

 protected:
  /// Single write(2) attempt; returns the syscall result with errno intact.
  /// Overridden by fault/EINTR shims.
  virtual ssize_t RawWrite(const uint8_t* data, size_t len);

  int fd() const { return fd_; }
  bool o_dsync() const { return o_dsync_; }
  /// Counter hooks for subclasses whose writes/barriers bypass
  /// Append()/Sync() (the uring submission path).
  void CountWrite() { ++write_count_; }
  void CountSync() { ++sync_count_; }

 private:
  int fd_ = -1;
  bool o_dsync_ = false;
  uint64_t sync_count_ = 0;
  uint64_t write_count_ = 0;
};

/// Log device for the async spine: given a uring backend, the staged flush
/// and its barrier go down as a linked WRITE + FSYNC pair in one ring
/// submission (one kernel entry for write-and-barrier instead of two
/// syscalls). A short write severs the kernel-side link, so the remainder
/// (and the barrier) fall back to the posix retry loop — durability
/// semantics are identical to PosixLogFile's. Without a backend it *is*
/// a PosixLogFile.
class UringLogFile final : public PosixLogFile {
 public:
  Status SubmitAppend(io::IoBackend* io, const uint8_t* data, size_t len,
                      bool barrier) override;

  /// WRITE+FSYNC pairs that went down as one linked submission.
  uint64_t linked_submits() const { return linked_submits_; }

 private:
  uint64_t linked_submits_ = 0;
  uint64_t next_cookie_ = 1;  // Unique per-call cookies for the ring.
};

/// One on-disk segment of a log directory.
struct LogSegment {
  std::string path;
  uint64_t index = 0;
  uint64_t bytes = 0;
};

/// `<dir>/log.NNNNNN`.
std::string LogSegmentPath(const std::string& dir, uint64_t index);

/// Lists the `log.NNNNNN` segments of `dir`, sorted by index. A missing
/// directory is not an error (empty result): a fresh log has no history.
Status ListLogSegments(const std::string& dir, std::vector<LogSegment>* out);

/// kCorruption unless the retained chain `segments[first..]` starts at
/// `base_index` and has no index gap (an empty chain passes). LSNs are
/// summed over the files, so a missing segment would silently shift every
/// frame after it.
Status CheckSegmentChain(const std::vector<LogSegment>& segments,
                         size_t first, uint64_t base_index);

/// Creates `dir` if missing (parent must exist). A freshly created
/// directory's entry is fsynced into its parent: fdatasync on a segment
/// persists the segment's data, not the mkdir that made it reachable.
Status EnsureLogDir(const std::string& dir);

/// fsync(2) on the directory itself — the barrier that makes freshly
/// created entries (new segments) survive power loss. fdatasync on the
/// segment fd does not cover the directory entry that names it.
Status SyncDir(const std::string& dir);

/// Called per complete, checksum-valid frame with its type, its body and
/// the offset just past it.
using LogFrameVisitor = std::function<Status(
    LogRecordType type, const uint8_t* body, uint32_t body_len,
    size_t frame_end)>;

/// The one frame-validation walk (replay, the decision-log scan and Open's
/// torn-tail cut) over `data[0, len)`; `origin` labels errors. A torn
/// write leaves a *prefix*, so only an incomplete header, or an incomplete
/// body under a checksum-valid header, is a crash tail: the walk stops
/// there, and fails with kCorruption unless `allow_torn_tail`. A
/// *complete* header or frame whose checksum disagrees was flushed that
/// way and is always kCorruption.
Status WalkLogFrames(const uint8_t* data, size_t len,
                     const std::string& origin, bool allow_torn_tail,
                     const LogFrameVisitor& visit);

/// Scans `path` for the longest prefix of fully valid frames and returns
/// its length in `*valid_bytes`; damage below a torn tail is kCorruption —
/// truncating it would silently drop acked transactions.
Status ScanValidFramePrefix(const std::string& path, uint64_t* valid_bytes);

/// ftruncate(2) `path` to `valid_bytes` and fsync the result. Used by
/// LogManager::Open to cut a crash's torn tail off the final surviving
/// segment before new segments make it non-final (recovery tolerates a
/// torn tail only in the final segment).
Status TruncateLogSegment(const std::string& path, uint64_t valid_bytes);

/// Deletes every `log.*` segment in `dir` and then the directory itself.
/// Benches and examples use this to reset between runs now that opening a
/// log no longer truncates history.
void RemoveLogDir(const std::string& dir);

/// Deletes every regular file in `dir` (non-recursive) and then `dir`
/// itself. Checkpoint directories hold MANIFEST + ckpt.NNNNNN files, so
/// RemoveLogDir's `log.*` filter does not cover them.
void RemoveDirContents(const std::string& dir);

/// Appends `len` bytes of `path` starting at byte `offset` to `*out` via
/// pread(2). Reading past EOF returns the bytes that exist (possibly none)
/// rather than an error: the log tail legitimately grows behind the reader.
/// ENOENT maps to kNotFound so callers racing segment retirement can tell
/// "gone" from "broken".
Status ReadFileRange(const std::string& path, uint64_t offset, uint64_t len,
                     std::vector<uint8_t>* out);

/// Reads all of `path` into `*out`, checking every seek/tell/read result:
/// a failed ftell must surface as kIOError, not become a ~SIZE_MAX resize
/// that kills the process with bad_alloc. Shared by recovery, checkpoint
/// load, and the manifest reader.
Status ReadFileFully(const std::string& path, std::vector<uint8_t>* out);

/// Crash-atomic file install: writes `len` bytes to `path + ".tmp"`,
/// fsyncs, renames over `path`, and fsyncs the parent directory. A crash
/// at any point leaves either the old file (or nothing) or the complete
/// new one — never a torn `path`. `crash_hook`, when set, is invoked with
/// the named points "mid-write" (half the payload written to the tmp
/// file) and "before-rename" (tmp complete and fsynced) so the crash
/// harness can kill the process inside the install.
Status WriteFileAtomic(
    const std::string& path, const uint8_t* data, size_t len,
    const std::function<void(const char*)>& crash_hook = nullptr);

}  // namespace next700

#endif  // NEXT700_LOG_LOG_FILE_H_
