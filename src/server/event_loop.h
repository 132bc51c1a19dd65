#ifndef NEXT700_SERVER_EVENT_LOOP_H_
#define NEXT700_SERVER_EVENT_LOOP_H_

/// \file
/// The connection loop shared by the transaction server, the shard router
/// and the replica's applier: one thread driving one io::IoBackend over a
/// table of framed Connections. The loop owns the mechanics; its owner
/// supplies the protocol through Handler hooks. The server and the router
/// run N loops as one EventLoopGroup (below); the applier runs one alone.
///
///  - Accept policy: ECONNABORTED/EAGAIN/EINTR are ignored (the accept
///    stays armed). Any other failure (EMFILE, ENFILE, ENOMEM, ...) is
///    counted in LoopStats::accept_errors, disarms the listener through
///    CancelFd, and re-arms it after a doubling backoff (10 -> 200 ms)
///    carried by the reap timeout. A level-triggered listener would
///    otherwise report the same failure on every reap and spin a core
///    until an fd frees.
///  - Reads: one outstanding read per connection. A completion feeds the
///    decoder and calls OnFrames; EAGAIN/EINTR re-arm; any other error
///    closes. EOF drains an accepted connection (it closes once every
///    admitted request is answered and written) and closes a peer's.
///  - Writes: connections marked dirty during a reap batch get one writev
///    each at batch end, gathering up to Connection::kMaxIov frames, so a
///    pipelined client at depth d costs ~1 write syscall per batch instead
///    of d; a short writev resumes from the first unsent byte. Any write
///    completion also arms a missing read, which is how an outbound
///    connection gets its first read once its connect has completed.
///  - Outbound peers (Dial): the loop connects nonblocking and hands each
///    fresh connection to OnDialed to queue its opening frames; a refused
///    connect surfaces as their write error. Every close (a hang-up, a
///    failed connect) schedules a redial after a jittered doubling backoff
///    (20 -> 1000 ms) carried by the reap timeout. Stall rule: a peer whose
///    decoder holds a partial frame that has not grown for 5 s is closed;
///    the timers sample it, so no read reads a clock.
///  - Close: CancelFd before close(2): the fd number may be reused by the
///    next accept, and the read buffer dies with the connection.
///  - user_data: the accept carries 1; reads and writes carry
///    (connection id << 1 | is_write). A connection id is
///    (sequence << kLoopIndexBits | loop index): unique across a group and
///    never reused, so a completion for a closed connection finds nothing,
///    and an id names the loop that owns it (EventLoopGroup::LoopOf).
///
/// Threading: once Start()ed, everything but Wakeup(), Post() and the
/// counters belongs to the loop thread; before Start() and after Stop() the
/// owner thread may call anything.

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "server/connection.h"

namespace next700 {
namespace server {

/// Counters every loop keeps (relaxed atomics, loop-thread written).
/// ServerStats and ShardRouterStats derive from this, so the names below
/// read the same on both.
struct LoopStats {
  /// Accept failures that disarmed the listener for a backoff.
  std::atomic<uint64_t> accept_errors{0};
  /// writev submissions issued, and the frames they gathered: the ratio
  /// is the reply-batching factor (frames/writev >> 1 under pipelining).
  std::atomic<uint64_t> writev_batches{0};
  std::atomic<uint64_t> frames_batched{0};
};

class EventLoopGroup;

class EventLoop {
 public:
  using ConnectionMap =
      std::unordered_map<uint64_t, std::unique_ptr<Connection>>;

  /// The owner's protocol. Every hook runs on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// The group's listener accepted `conn` and dealt it to this loop. Its
    /// first read is armed when the hook returns, unless it set
    /// read_paused.
    virtual void OnAccepted(Connection*) {}
    /// New bytes were fed into conn's decoder. Returns false if it closed
    /// `conn` (the loop then arms no read).
    virtual bool OnFrames(Connection* conn) = 0;
    /// conn's outbound queue fully drained. Returns false if it closed
    /// `conn`.
    virtual bool OnWriteDrained(Connection*) { return true; }
    /// `conn` has left the table and its fd is closed; it is freed when
    /// the hook returns.
    virtual void OnClosed(Connection*) {}
    /// A fresh connection to outbound peer `peer`, connect possibly in
    /// progress. Queue its opening frames and MarkDirty it: their write
    /// completion arms its first read.
    virtual void OnDialed(size_t /*peer*/, Connection* /*conn*/) {}
    /// Another thread called Wakeup() or Post() (posted tasks run first).
    virtual void OnWakeup() {}
    /// Runs the owner's timers due at `now_ms` (monotonic) and returns its
    /// next deadline, or UINT64_MAX for none. Called once per reap batch.
    virtual uint64_t RunTimers(uint64_t /*now_ms*/) { return UINT64_MAX; }
  };

  /// Connection ids carry their loop's index in these low bits.
  static constexpr int kLoopIndexBits = 8;

  /// Builds a loop on a fresh backend of `kind` (kUring fails where the
  /// kernel lacks a usable ring). `handler` and `stats` must outlive it.
  static Status Create(io::IoBackendKind kind, Handler* handler,
                       LoopStats* stats, std::unique_ptr<EventLoop>* out);

  /// Stops the thread, then closes every connection, the listener and any
  /// accepted socket still in the inbox.
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// This loop's index in its group (0 for a loop of its own).
  uint32_t index() const { return index_; }

  /// Adds outbound peer `addr` ("host:port", IPv4; peers are numbered 0,
  /// 1, ... in call order), dialed from the loop's timers until DropPeer.
  /// kInvalidArgument for a bad address. Call before Start().
  Status Dial(const std::string& addr);
  /// The owner's handshake with `peer` completed: reset its backoff.
  void PeerUp(size_t peer) { peers_[peer].backoff_ms = 0; }
  /// Closes `peer`'s connection, if any, and never redials it.
  void DropPeer(size_t peer);

  /// Starts the loop thread, named `thread_name`.
  void Start(const std::string& thread_name);
  /// Stops and joins the loop thread; connections stay open until the loop
  /// is destroyed. Idempotent.
  void Stop();

  /// Thread-safe: surfaces as OnWakeup on the loop thread.
  void Wakeup() { io_->Wakeup(); }
  /// Thread-safe: runs `task` on the loop thread, ahead of the OnWakeup
  /// this call causes. The inbox other threads reach the loop through.
  void Post(std::function<void()> task);
  const io::IoBackend& io() const { return *io_; }

  /// Null once the connection has closed.
  Connection* Find(uint64_t id) const {
    auto it = connections_.find(id);
    return it == connections_.end() ? nullptr : it->second.get();
  }
  const ConnectionMap& connections() const { return connections_; }

  /// Arms conn's read unless one is outstanding or it is read-paused or
  /// draining. May close `conn`.
  void StartRead(Connection* conn);
  /// Owes `conn` a writev at the end of the reap batch.
  void MarkDirty(Connection* conn);
  /// Moves conn's in-order replies to its outbound queue, marks it dirty,
  /// and closes it if drained. Returns the replies released.
  size_t FlushReplies(Connection* conn);
  /// Closes a draining connection with nothing left to answer or write.
  /// Returns true if it closed `conn`.
  bool MaybeCloseDrained(Connection* conn);
  /// Cancels conn's pending operations, closes its fd, removes it from the
  /// table, calls OnClosed, and frees it.
  void Close(Connection* conn);

 private:
  struct Peer {
    sockaddr_in addr;
    uint64_t conn_id = 0;  // 0 while down.
    bool dropped = false;
    uint64_t redial_ms = 0;  // While down.
    uint64_t backoff_ms = 0;
    /// Stall rule: fed bytes at the last sample, and when they moved.
    uint64_t fed_bytes = 0;
    uint64_t progress_ms = 0;
  };

  friend class EventLoopGroup;

  EventLoop(Handler* handler, LoopStats* stats)
      : handler_(handler), stats_(stats) {}

  /// Binds `host:port` (0 = ephemeral), listens, and arms the accept.
  Status Listen(const std::string& host, uint16_t port);
  /// Registers an accepted socket, calls OnAccepted, and arms its first
  /// read.
  void Adopt(int fd);
  /// Runs the tasks and adopts the sockets other threads posted.
  void DrainInbox();

  void Run();
  /// Re-arms a backed-off accept when due, runs the owner's and the peers'
  /// timers, and returns the reap timeout for the next deadline.
  int RunTimers();
  /// Dials due peers and closes stalled ones; returns the next peer
  /// deadline (UINT64_MAX for none).
  uint64_t RunPeerTimers(uint64_t now_ms);
  void DialPeer(size_t index, uint64_t now_ms);
  void ScheduleRedial(Peer* peer, uint64_t now_ms);
  /// Null for an accepted connection.
  Peer* PeerOf(uint64_t conn_id);
  /// Adds `fd` to the connection table; arms no read.
  Connection* Register(int fd);
  void HandleAccept(int32_t result);
  void HandleRead(Connection* conn, int32_t result);
  void HandleWrite(Connection* conn, int32_t result);
  /// Batch end: one writev per dirty connection with queued frames.
  void FlushDirty();
  /// Submits one writev gathering conn's queued frames. Returns false if a
  /// submission failure closed `conn`.
  bool StartWrite(Connection* conn);

  Handler* handler_;
  LoopStats* stats_;
  EventLoopGroup* group_ = nullptr;  // Null for a loop of its own.
  uint32_t index_ = 0;
  std::unique_ptr<io::IoBackend> io_;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  /// Cross-thread inbox, drained on every wakeup.
  Mutex inbox_mu_;
  std::vector<std::function<void()>> inbox_tasks_ GUARDED_BY(inbox_mu_);
  /// Sockets loop 0 accepted and dealt to this loop.
  std::vector<int> inbox_fds_ GUARDED_BY(inbox_mu_);

  ConnectionMap connections_;
  uint64_t next_seq_ = 1;
  /// Connections owed a writev at batch end (by id: an entry may name a
  /// connection closed earlier in the same batch).
  std::vector<uint64_t> dirty_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool accept_armed_ = false;
  uint64_t accept_rearm_ms_ = 0;
  uint64_t accept_backoff_ms_ = 0;

  std::vector<Peer> peers_;
  /// Redial jitter: loops that lost a shard together do not redial it in
  /// lockstep.
  std::minstd_rand rng_{std::random_device{}()};
};

/// N EventLoops serving one listener. Loop 0 owns the listener and deals
/// accepted sockets round-robin, adopting its own share and posting the
/// rest to the other loops' inboxes; from then on each connection lives on
/// one loop. Any thread reaches a loop through Post() + Wakeup(), and a
/// connection id names its loop (LoopOf), so a reply produced elsewhere
/// finds its way home.
class EventLoopGroup {
 public:
  /// max(1, min(4, CPUs this process may run on / 2)): one loop per two
  /// CPUs leaves the other CPU of each pair to the workers and the log.
  static int DefaultLoopCount();

  /// Builds one loop per handler (loop i runs handlers[i]), each on a
  /// fresh backend of `kind`; at most 1 << kLoopIndexBits loops. The
  /// handlers and `stats` must outlive the group.
  static Status Create(io::IoBackendKind kind,
                       const std::vector<EventLoop::Handler*>& handlers,
                       LoopStats* stats,
                       std::unique_ptr<EventLoopGroup>* out);

  /// Stops every loop, then closes every connection and the listener.
  ~EventLoopGroup() { Stop(); }
  EventLoopGroup(const EventLoopGroup&) = delete;
  EventLoopGroup& operator=(const EventLoopGroup&) = delete;

  /// Binds `host:port` (0 = ephemeral) on loop 0 and arms its accept.
  /// Call before Start().
  Status Listen(const std::string& host, uint16_t port) {
    return loops_[0]->Listen(host, port);
  }
  /// Port actually bound (after Listen).
  uint16_t port() const { return loops_[0]->port_; }

  /// Starts the loop threads, named `thread_prefix` + index.
  void Start(const std::string& thread_prefix);
  /// Stops and joins every loop thread. Idempotent.
  void Stop();

  EventLoop* loop(size_t index) const { return loops_[index].get(); }
  /// The loop that owns connection `conn_id`.
  EventLoop* LoopOf(uint64_t conn_id) const {
    return loops_[conn_id & ((1u << EventLoop::kLoopIndexBits) - 1)].get();
  }
  /// Every loop's backend counters, summed into `*out`.
  void SumIoCounters(io::IoCounters* out) const;

 private:
  friend class EventLoop;

  EventLoopGroup() = default;
  /// Loop 0's accept: the loop that adopts the next socket.
  EventLoop* NextAcceptLoop() {
    return loops_[accept_rr_++ % loops_.size()].get();
  }

  std::vector<std::unique_ptr<EventLoop>> loops_;
  uint64_t accept_rr_ = 0;  // Loop 0's thread only.
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_EVENT_LOOP_H_
