#include "server/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/stats.h"

namespace next700 {
namespace server {

namespace {

constexpr uint64_t kAcceptUd = 1;
uint64_t ReadUd(uint64_t conn_id) { return conn_id << 1; }
uint64_t WriteUd(uint64_t conn_id) { return (conn_id << 1) | 1; }

/// Socket read buffer per connection (one outstanding read each).
constexpr size_t kReadBufBytes = 64 * 1024;
constexpr int kMaxEvents = 256;
constexpr int kListenBacklog = 128;

constexpr uint64_t kAcceptBackoffMinMs = 10;
constexpr uint64_t kAcceptBackoffMaxMs = 200;

constexpr uint64_t kRedialBackoffMinMs = 20;
constexpr uint64_t kRedialBackoffMaxMs = 1000;
/// A peer's partial frame that has not grown for this long is a stall.
constexpr uint64_t kPeerStallMs = 5000;

uint64_t MonotonicMs() { return NowNanos() / 1000000; }

bool ToSockaddr(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

/// "host:port" with an IPv4 host.
bool ParseHostPort(const std::string& addr, sockaddr_in* out) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  char* end = nullptr;
  const long port = std::strtol(addr.c_str() + colon + 1, &end, 10);
  return *end == '\0' && port > 0 && port <= 65535 &&
         ToSockaddr(addr.substr(0, colon), static_cast<uint16_t>(port), out);
}

}  // namespace

Status EventLoop::Create(io::IoBackendKind kind, Handler* handler,
                         LoopStats* stats, std::unique_ptr<EventLoop>* out) {
  std::unique_ptr<EventLoop> loop(new EventLoop(handler, stats));
  NEXT700_RETURN_IF_ERROR(io::CreateIoBackend(kind, &loop->io_));
  *out = std::move(loop);
  return Status::OK();
}

EventLoop::~EventLoop() {
  Stop();
  for (auto& [id, conn] : connections_) {
    (void)id;
    ::close(conn->fd());
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  MutexLock lock(&inbox_mu_);
  for (const int fd : inbox_fds_) ::close(fd);
}

Status EventLoop::Listen(const std::string& host, uint16_t port) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  if (!ToSockaddr(host, port, &addr)) {
    return Status::InvalidArgument("bad listen address: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, kListenBacklog) < 0) {
    return Status::IOError("bind/listen failed: " +
                           std::string(strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  // Armed here, before the loop thread exists, so the single-owner
  // contract holds and a failure reaches the caller.
  NEXT700_RETURN_IF_ERROR(io_->SubmitAccept(listen_fd_, kAcceptUd));
  accept_armed_ = true;
  return Status::OK();
}

Status EventLoop::Dial(const std::string& addr) {
  Peer peer;
  if (!ParseHostPort(addr, &peer.addr)) {
    return Status::InvalidArgument("bad peer address: " + addr);
  }
  peers_.push_back(peer);  // redial_ms 0: dialed at the first timer pass.
  return Status::OK();
}

void EventLoop::DropPeer(size_t index) {
  peers_[index].dropped = true;
  if (Connection* conn = Find(peers_[index].conn_id)) Close(conn);
}

void EventLoop::Start(const std::string& thread_name) {
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this, thread_name] {
    SetThreadName(thread_name);
    Run();
  });
}

void EventLoop::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  io_->Wakeup();
  thread_.join();
}

void EventLoop::Run() {
  io::IoEvent events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int timeout_ms = RunTimers();
    // Batch end: everything that became writable since the last reap goes
    // out as one writev per connection.
    FlushDirty();
    const int n = io_->Reap(events, kMaxEvents, timeout_ms);
    if (n < 0) break;  // Broken backend; the owner's Stop cleans up.
    for (int i = 0; i < n; ++i) {
      const io::IoEvent& event = events[i];
      switch (event.op) {
        case io::IoEvent::Op::kWakeup:
          DrainInbox();
          handler_->OnWakeup();
          break;
        case io::IoEvent::Op::kAccept:
          HandleAccept(event.result);
          break;
        case io::IoEvent::Op::kRead:
          if (Connection* conn = Find(event.user_data >> 1)) {
            HandleRead(conn, event.result);
          }
          break;
        case io::IoEvent::Op::kWrite:
          if (Connection* conn = Find(event.user_data >> 1)) {
            HandleWrite(conn, event.result);
          }
          break;
        case io::IoEvent::Op::kFsync:
          break;  // The network path never submits fsyncs.
      }
    }
  }
}

int EventLoop::RunTimers() {
  const uint64_t now = MonotonicMs();
  if (listen_fd_ >= 0 && !accept_armed_ && accept_rearm_ms_ <= now) {
    if (io_->SubmitAccept(listen_fd_, kAcceptUd).ok()) {
      accept_armed_ = true;
    } else {
      accept_rearm_ms_ = now + kAcceptBackoffMaxMs;
    }
  }
  // The owner's timers first: a deadline that closes a peer connection
  // schedules a redial the peer pass must count.
  uint64_t next = handler_->RunTimers(now);
  next = std::min(next, RunPeerTimers(now));
  if (listen_fd_ >= 0 && !accept_armed_) {
    next = std::min(next, accept_rearm_ms_);
  }
  if (next == UINT64_MAX) return -1;  // Nothing timed; block for an event.
  if (next <= now) return 0;
  return static_cast<int>(std::min<uint64_t>(next - now, 60 * 1000));
}

uint64_t EventLoop::RunPeerTimers(uint64_t now) {
  uint64_t next = UINT64_MAX;
  for (size_t i = 0; i < peers_.size(); ++i) {
    Peer& peer = peers_[i];
    if (peer.dropped) continue;
    if (peer.conn_id == 0 && peer.redial_ms <= now) DialPeer(i, now);
    // Stall rule: nothing buffered (idle, or between frames) runs no
    // clock; bytes fed into a partial frame restart it.
    Connection* conn = Find(peer.conn_id);
    if (conn != nullptr && conn->decoder()->buffered_bytes() > 0) {
      if (conn->decoder()->fed_bytes() != peer.fed_bytes) {
        peer.fed_bytes = conn->decoder()->fed_bytes();
        peer.progress_ms = now;
      }
      if (now - peer.progress_ms >= kPeerStallMs) {
        Close(conn);  // Schedules the redial.
      } else {
        next = std::min(next, peer.progress_ms + kPeerStallMs);
      }
    }
    if (peer.conn_id == 0 && !peer.dropped) {
      next = std::min(next, peer.redial_ms);
    }
  }
  return next;
}

void EventLoop::DialPeer(size_t index, uint64_t now) {
  Peer& peer = peers_[index];
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0 || (::connect(fd, reinterpret_cast<const sockaddr*>(&peer.addr),
                           sizeof(peer.addr)) < 0 &&
                 errno != EINPROGRESS)) {
    if (fd >= 0) ::close(fd);
    ScheduleRedial(&peer, now);
    return;
  }
  Connection* conn = Register(fd);
  peer.conn_id = conn->id();
  peer.fed_bytes = 0;
  handler_->OnDialed(index, conn);
}

void EventLoop::ScheduleRedial(Peer* peer, uint64_t now) {
  peer->backoff_ms = peer->backoff_ms == 0
                         ? kRedialBackoffMinMs
                         : std::min(peer->backoff_ms * 2, kRedialBackoffMaxMs);
  const uint64_t half = peer->backoff_ms / 2;
  peer->redial_ms = now + half + rng_() % (half + 1);
}

EventLoop::Peer* EventLoop::PeerOf(uint64_t conn_id) {
  for (Peer& peer : peers_) {
    if (peer.conn_id == conn_id) return &peer;
  }
  return nullptr;
}

void EventLoop::Post(std::function<void()> task) {
  {
    MutexLock lock(&inbox_mu_);
    inbox_tasks_.push_back(std::move(task));
  }
  io_->Wakeup();
}

void EventLoop::DrainInbox() {
  std::vector<std::function<void()>> tasks;
  std::vector<int> fds;
  {
    MutexLock lock(&inbox_mu_);
    tasks.swap(inbox_tasks_);
    fds.swap(inbox_fds_);
  }
  for (const int fd : fds) Adopt(fd);
  for (auto& task : tasks) task();
}

void EventLoop::HandleAccept(int32_t result) {
  if (result >= 0) {
    accept_backoff_ms_ = 0;
    EventLoop* target = group_ == nullptr ? this : group_->NextAcceptLoop();
    if (target == this) {
      Adopt(result);
      return;
    }
    {
      MutexLock lock(&target->inbox_mu_);
      target->inbox_fds_.push_back(result);
    }
    target->Wakeup();
    return;
  }
  if (result == -ECONNABORTED || result == -EAGAIN || result == -EINTR) {
    return;  // The peer gave up or a spurious wake; the accept stays armed.
  }
  stats_->accept_errors.fetch_add(1, std::memory_order_relaxed);
  io_->CancelFd(listen_fd_);
  accept_armed_ = false;
  accept_backoff_ms_ =
      accept_backoff_ms_ == 0
          ? kAcceptBackoffMinMs
          : std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs);
  accept_rearm_ms_ = MonotonicMs() + accept_backoff_ms_;
}

Connection* EventLoop::Register(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const uint64_t id = (next_seq_++ << kLoopIndexBits) | index_;
  auto conn = std::make_unique<Connection>(fd, id);
  Connection* raw = conn.get();
  connections_.emplace(id, std::move(conn));
  return raw;
}

void EventLoop::Adopt(int fd) {
  Connection* conn = Register(fd);
  handler_->OnAccepted(conn);
  StartRead(conn);
}

void EventLoop::StartRead(Connection* conn) {
  if (conn->read_inflight() || conn->read_paused() || conn->draining()) {
    return;
  }
  uint8_t* buf = conn->EnsureReadBuffer(kReadBufBytes);
  const Status submitted = io_->SubmitRead(conn->fd(), buf,
                                           conn->read_buf_len(),
                                           ReadUd(conn->id()));
  if (!submitted.ok()) {
    Close(conn);
    return;
  }
  conn->set_read_inflight(true);
}

void EventLoop::HandleRead(Connection* conn, int32_t result) {
  conn->set_read_inflight(false);
  if (result == 0) {
    if (PeerOf(conn->id()) != nullptr) {
      Close(conn);  // An outbound peer hung up: redial it.
      return;
    }
    // Peer half-closed: finish buffered work, flush replies, then close.
    conn->set_draining();
    if (handler_->OnFrames(conn)) MaybeCloseDrained(conn);
    return;
  }
  if (result < 0) {
    if (result == -EAGAIN || result == -EINTR) {
      StartRead(conn);  // Spurious readiness or signal: re-arm.
    } else {
      Close(conn);
    }
    return;
  }
  conn->decoder()->Feed(conn->read_buf(), static_cast<size_t>(result));
  if (handler_->OnFrames(conn)) StartRead(conn);
}

void EventLoop::MarkDirty(Connection* conn) {
  if (conn->flush_pending()) return;
  conn->set_flush_pending(true);
  dirty_.push_back(conn->id());
}

void EventLoop::FlushDirty() {
  // Swap first: StartWrite may close connections while iterating.
  std::vector<uint64_t> dirty;
  dirty.swap(dirty_);
  for (const uint64_t id : dirty) {
    Connection* conn = Find(id);
    if (conn == nullptr) continue;  // Closed earlier this batch.
    conn->set_flush_pending(false);
    if (!conn->write_inflight() && conn->has_pending_writes()) {
      StartWrite(conn);
    }
  }
}

bool EventLoop::StartWrite(Connection* conn) {
  const int iovcnt = conn->BuildIovec(conn->iov());
  if (iovcnt == 0) return true;
  const Status submitted = io_->SubmitWritev(conn->fd(), conn->iov(), iovcnt,
                                             WriteUd(conn->id()));
  if (!submitted.ok()) {
    Close(conn);
    return false;
  }
  conn->set_write_inflight(true);
  stats_->writev_batches.fetch_add(1, std::memory_order_relaxed);
  stats_->frames_batched.fetch_add(static_cast<uint64_t>(iovcnt),
                                   std::memory_order_relaxed);
  return true;
}

void EventLoop::HandleWrite(Connection* conn, int32_t result) {
  conn->set_write_inflight(false);
  if (result < 0) {
    if (result == -EAGAIN || result == -EINTR) {
      StartWrite(conn);  // Spurious readiness or signal: resubmit as-is.
    } else {
      Close(conn);
    }
    return;
  }
  conn->ConsumeWritten(static_cast<size_t>(result));
  if (conn->has_pending_writes()) {
    // Partial writev (socket buffer filled mid-gather, or more frames than
    // kMaxIov): resume from the first unsent byte.
    if (!StartWrite(conn)) return;
  } else if (!handler_->OnWriteDrained(conn) || MaybeCloseDrained(conn)) {
    return;
  }
  // Arms an outbound connection's first read; a no-op elsewhere.
  StartRead(conn);
}

size_t EventLoop::FlushReplies(Connection* conn) {
  const size_t released = conn->FlushOrdered();
  if (conn->has_pending_writes() && !conn->write_inflight()) MarkDirty(conn);
  MaybeCloseDrained(conn);
  return released;
}

bool EventLoop::MaybeCloseDrained(Connection* conn) {
  if (conn->draining() && conn->pending_responses() == 0 &&
      !conn->has_pending_writes() && !conn->write_inflight() &&
      conn->decoder()->buffered_bytes() == 0) {
    Close(conn);
    return true;
  }
  return false;
}

void EventLoop::Close(Connection* conn) {
  auto it = connections_.find(conn->id());
  std::unique_ptr<Connection> owned = std::move(it->second);
  connections_.erase(it);
  io_->CancelFd(owned->fd());
  ::close(owned->fd());
  if (Peer* peer = PeerOf(owned->id())) {
    peer->conn_id = 0;
    if (!peer->dropped) ScheduleRedial(peer, MonotonicMs());
  }
  handler_->OnClosed(owned.get());
}

int EventLoopGroup::DefaultLoopCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  return std::max(1, std::min(4, cpus / 2));
}

Status EventLoopGroup::Create(io::IoBackendKind kind,
                              const std::vector<EventLoop::Handler*>& handlers,
                              LoopStats* stats,
                              std::unique_ptr<EventLoopGroup>* out) {
  NEXT700_CHECK(!handlers.empty() &&
                handlers.size() <= (1u << EventLoop::kLoopIndexBits));
  std::unique_ptr<EventLoopGroup> group(new EventLoopGroup());
  for (size_t i = 0; i < handlers.size(); ++i) {
    std::unique_ptr<EventLoop> loop;
    NEXT700_RETURN_IF_ERROR(EventLoop::Create(kind, handlers[i], stats, &loop));
    loop->group_ = group.get();
    loop->index_ = static_cast<uint32_t>(i);
    group->loops_.push_back(std::move(loop));
  }
  *out = std::move(group);
  return Status::OK();
}

void EventLoopGroup::Start(const std::string& thread_prefix) {
  for (auto& loop : loops_) {
    loop->Start(thread_prefix + std::to_string(loop->index()));
  }
}

void EventLoopGroup::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

void EventLoopGroup::SumIoCounters(io::IoCounters* out) const {
  uint64_t sums[7] = {};
  for (const auto& loop : loops_) {
    const io::IoCounters& c = loop->io().counters();
    sums[0] += c.read_ops.load(std::memory_order_relaxed);
    sums[1] += c.write_ops.load(std::memory_order_relaxed);
    sums[2] += c.accept_ops.load(std::memory_order_relaxed);
    sums[3] += c.fsync_ops.load(std::memory_order_relaxed);
    sums[4] += c.submissions.load(std::memory_order_relaxed);
    sums[5] += c.syscalls.load(std::memory_order_relaxed);
    sums[6] += c.waits.load(std::memory_order_relaxed);
  }
  out->read_ops.store(sums[0], std::memory_order_relaxed);
  out->write_ops.store(sums[1], std::memory_order_relaxed);
  out->accept_ops.store(sums[2], std::memory_order_relaxed);
  out->fsync_ops.store(sums[3], std::memory_order_relaxed);
  out->submissions.store(sums[4], std::memory_order_relaxed);
  out->syscalls.store(sums[5], std::memory_order_relaxed);
  out->waits.store(sums[6], std::memory_order_relaxed);
}

}  // namespace server
}  // namespace next700
