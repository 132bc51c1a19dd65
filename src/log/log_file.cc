#include "log/log_file.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "io/io_backend.h"
#include "log/log_record.h"

namespace next700 {

namespace {

/// EAGAIN on a blocking fd indicates a misconfigured device; retry a
/// bounded number of times before declaring it broken instead of spinning.
constexpr int kMaxEagainRetries = 1000;

std::string ParentDir(const std::string& path) {
  const std::string::size_type slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

PosixLogFile::~PosixLogFile() { Close(); }

Status PosixLogFile::Open(const std::string& path, bool o_dsync) {
  int flags = O_CREAT | O_EXCL | O_WRONLY | O_APPEND;
#ifdef O_DSYNC
  if (o_dsync) flags |= O_DSYNC;
#else
  if (o_dsync) flags |= O_SYNC;
#endif
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot create log segment " + path + ": " +
                           std::strerror(errno));
  }
  o_dsync_ = o_dsync;
  return Status::OK();
}

ssize_t PosixLogFile::RawWrite(const uint8_t* data, size_t len) {
  return ::write(fd_, data, len);
}

Status PosixLogFile::Append(const uint8_t* data, size_t len) {
  size_t off = 0;
  int eagain_retries = 0;
  while (off < len) {
    CountWrite();
    const ssize_t n = RawWrite(data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;  // Signal; the write wrote nothing.
      if (errno == EAGAIN && ++eagain_retries < kMaxEagainRetries) continue;
      return Status::IOError(std::string("log write failed: ") +
                             std::strerror(errno));
    }
    eagain_retries = 0;
    off += static_cast<size_t>(n);  // Short write: continue from here.
  }
  if (o_dsync_) ++sync_count_;  // The write itself was the barrier.
  return Status::OK();
}

Status PosixLogFile::Sync() {
  if (o_dsync_) return Status::OK();
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("fdatasync failed: ") +
                           std::strerror(errno));
  }
  ++sync_count_;
  return Status::OK();
}

void PosixLogFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status UringLogFile::SubmitAppend(io::IoBackend* io, const uint8_t* data,
                                  size_t len, bool barrier) {
  if (io == nullptr || io->kind() != io::IoBackendKind::kUring) {
    return LogFile::SubmitAppend(io, data, len, barrier);
  }
  // Unique cookies per call: an errored pair may leave its partner CQE in
  // flight, and a reused cookie would misroute it next time around.
  const uint64_t write_ud = next_cookie_++;
  const uint64_t fsync_ud = next_cookie_++;
  NEXT700_RETURN_IF_ERROR(
      io->SubmitWrite(fd(), data, len, write_ud, /*link=*/barrier));
  CountWrite();
  if (barrier) {
    NEXT700_RETURN_IF_ERROR(io->SubmitFsync(fd(), /*datasync=*/true,
                                            fsync_ud));
  }
  ++linked_submits_;
  ssize_t written = -1;
  bool fsync_done = !barrier;
  bool fsync_ok = false;
  while (written < 0 || !fsync_done) {
    io::IoEvent events[4];
    const int n = io->Reap(events, 4, -1);
    if (n < 0) {
      return Status::IOError("log io backend reap failed: " +
                             std::string(std::strerror(-n)));
    }
    for (int i = 0; i < n; ++i) {
      const io::IoEvent& ev = events[i];
      if (ev.user_data == write_ud) {
        if (ev.result == -EINTR || ev.result == -EAGAIN) {
          written = 0;  // Nothing landed; the posix loop below retries.
        } else if (ev.result < 0) {
          return Status::IOError(std::string("log ring write failed: ") +
                                 std::strerror(-ev.result));
        } else {
          written = ev.result;
        }
      } else if (ev.user_data == fsync_ud) {
        // -ECANCELED: the linked write was short or failed, severing the
        // chain; the completion fallback below re-issues the barrier.
        fsync_done = true;
        fsync_ok = ev.result == 0;
        if (ev.result < 0 && ev.result != -ECANCELED) {
          return Status::IOError(std::string("log ring fsync failed: ") +
                                 std::strerror(-ev.result));
        }
      }
      // Foreign events cannot appear: this backend is flusher-private.
    }
  }
  if (static_cast<size_t>(written) < len) {
    // Short write severed the linked barrier; finish through the posix
    // retry loop, which preserves the all-or-error Append contract.
    NEXT700_RETURN_IF_ERROR(Append(data + written, len - written));
    return barrier ? Sync() : Status::OK();
  }
  if (o_dsync()) {
    CountSync();  // The O_DSYNC write itself was the barrier.
  } else if (barrier) {
    if (!fsync_ok) return Sync();  // Linked barrier cancelled; re-issue.
    CountSync();
  }
  return Status::OK();
}

std::string LogSegmentPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "log.%06llu",
                static_cast<unsigned long long>(index));
  return dir + "/" + name;
}

Status ListLogSegments(const std::string& dir, std::vector<LogSegment>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::OK();  // Fresh log: no history yet.
    return Status::IOError("cannot open log dir " + dir + ": " +
                           std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(d)) {
    const char* name = entry->d_name;
    if (std::strncmp(name, "log.", 4) != 0) continue;
    char* end = nullptr;
    const unsigned long long index = std::strtoull(name + 4, &end, 10);
    if (end == name + 4 || *end != '\0') continue;  // Not log.NNNNNN.
    LogSegment segment;
    segment.path = dir + "/" + name;
    segment.index = index;
    struct stat st;
    if (::stat(segment.path.c_str(), &st) != 0) {
      ::closedir(d);
      return Status::IOError("cannot stat " + segment.path);
    }
    segment.bytes = static_cast<uint64_t>(st.st_size);
    out->push_back(std::move(segment));
  }
  ::closedir(d);
  std::sort(out->begin(), out->end(),
            [](const LogSegment& a, const LogSegment& b) {
              return a.index < b.index;
            });
  return Status::OK();
}

Status CheckSegmentChain(const std::vector<LogSegment>& segments,
                         size_t first, uint64_t base_index) {
  for (size_t i = first; i < segments.size(); ++i) {
    if (segments[i].index != base_index + (i - first)) {
      return Status::Corruption(
          "log segment chain broken: expected segment " +
          std::to_string(base_index + (i - first)) + ", found " +
          segments[i].path);
    }
  }
  return Status::OK();
}

Status EnsureLogDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) {
    // The new directory's entry lives in its *parent*: without this
    // barrier a power loss can forget the whole log directory even though
    // every segment inside it was fdatasync'd.
    return SyncDir(ParentDir(dir));
  }
  if (errno == EEXIST) return Status::OK();
  return Status::IOError("cannot create log dir " + dir + ": " +
                         std::strerror(errno));
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open dir " + dir + " for fsync: " +
                           std::strerror(errno));
  }
  Status s = Status::OK();
  if (::fsync(fd) != 0) {
    s = Status::IOError("fsync of dir " + dir + " failed: " +
                        std::strerror(errno));
  }
  ::close(fd);
  return s;
}

Status WalkLogFrames(const uint8_t* data, size_t len,
                     const std::string& origin, bool allow_torn_tail,
                     const LogFrameVisitor& visit) {
  size_t pos = 0;
  while (pos + kFrameHeaderBytes <= len) {
    // Frame: u32 len, u8 type, u32 header_sum, body, u64 body_sum.
    uint32_t body_len;
    std::memcpy(&body_len, data + pos, 4);
    const uint8_t type_raw = data[pos + 4];
    uint32_t header_sum;
    std::memcpy(&header_sum, data + pos + 5, 4);
    if (header_sum != FrameHeaderSum(body_len, type_raw)) {
      // Without this a flipped length byte would read as a torn tail and
      // silently drop every acked txn behind it.
      return Status::Corruption("log frame header corrupt in " + origin);
    }
    const size_t frame_end = pos + kFrameOverheadBytes + body_len;
    if (frame_end > len) break;  // Torn body (the header vouches for len).
    const uint8_t* body = data + pos + kFrameHeaderBytes;
    uint64_t checksum;
    std::memcpy(&checksum, body + body_len, 8);
    if (checksum != FnvHashBytes(body, body_len)) {
      return Status::Corruption("log checksum mismatch in " + origin);
    }
    NEXT700_RETURN_IF_ERROR(visit(static_cast<LogRecordType>(type_raw), body,
                                  body_len, frame_end));
    pos = frame_end;
  }
  if (pos < len && !allow_torn_tail) {
    return Status::Corruption("torn frame in " + origin);
  }
  return Status::OK();
}

Status ScanValidFramePrefix(const std::string& path, uint64_t* valid_bytes) {
  *valid_bytes = 0;
  std::vector<uint8_t> data;
  NEXT700_RETURN_IF_ERROR(ReadFileFully(path, &data));
  return WalkLogFrames(
      data.data(), data.size(), path, /*allow_torn_tail=*/true,
      [valid_bytes](LogRecordType, const uint8_t*, uint32_t, size_t end) {
        *valid_bytes = end;
        return Status::OK();
      });
}

Status TruncateLogSegment(const std::string& path, uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + " for truncate: " +
                           std::strerror(errno));
  }
  Status s = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    s = Status::IOError("cannot truncate " + path + ": " +
                        std::strerror(errno));
  } else if (::fsync(fd) != 0) {
    s = Status::IOError("fsync after truncate of " + path + " failed: " +
                        std::strerror(errno));
  }
  ::close(fd);
  return s;
}

void RemoveLogDir(const std::string& dir) {
  std::vector<LogSegment> segments;
  if (!ListLogSegments(dir, &segments).ok()) return;
  for (const LogSegment& segment : segments) {
    ::unlink(segment.path.c_str());
  }
  ::rmdir(dir.c_str());
}

void RemoveDirContents(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      const char* name = entry->d_name;
      if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) {
        continue;
      }
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

Status ReadFileRange(const std::string& path, uint64_t offset, uint64_t len,
                     std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " is gone");
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  const size_t base = out->size();
  out->resize(base + len);
  size_t have = 0;
  while (have < len) {
    const ssize_t n = ::pread(fd, out->data() + base + have, len - have,
                              static_cast<off_t>(offset + have));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      out->resize(base + have);
      return Status::IOError("pread failed on " + path + ": " +
                             std::strerror(err));
    }
    if (n == 0) break;  // EOF: the tail has not been written yet.
    have += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(base + have);
  return Status::OK();
}

Status ReadFileFully(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek " + path);
  }
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot tell size of " + path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek " + path);
  }
  out->resize(static_cast<size_t>(size));
  if (size > 0 && std::fread(out->data(), 1, out->size(), f) != out->size()) {
    std::fclose(f);
    return Status::IOError("short read on " + path);
  }
  std::fclose(f);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t len,
                       const std::function<void(const char*)>& crash_hook) {
  const std::string tmp = path + ".tmp";
  // O_TRUNC, not O_EXCL: a crash can leave a stale tmp file behind, and the
  // next install must simply overwrite it.
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  auto write_all = [fd](const uint8_t* p, size_t n) -> Status {
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, p + off, n - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("write failed: ") +
                               std::strerror(errno));
      }
      off += static_cast<size_t>(w);
    }
    return Status::OK();
  };
  const size_t half = len / 2;
  Status s = write_all(data, half);
  if (s.ok()) {
    if (crash_hook) crash_hook("mid-write");
    s = write_all(data + half, len - half);
  }
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IOError("fsync of " + tmp + " failed: " +
                        std::strerror(errno));
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (crash_hook) crash_hook("before-rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rs = Status::IOError("cannot rename " + tmp + " to " + path +
                                      ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return rs;
  }
  // The rename's durability lives in the directory entry.
  return SyncDir(ParentDir(path));
}

}  // namespace next700
