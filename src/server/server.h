#ifndef NEXT700_SERVER_SERVER_H_
#define NEXT700_SERVER_SERVER_H_

/// \file
/// The networked transaction service: a submission/completion-queue TCP
/// front-end that exposes a composed Engine as a stored-procedure server.
///
/// Architecture (one process):
///
///   event loops          a server::EventLoopGroup of N loops (event_loop.h,
///                        shared with the shard router; N = num_loops).
///                        Loop 0 deals accepted connections round-robin;
///                        each loop owns its connections, io backend, reply
///                        gathering, completion queue, read-pause flag and
///                        in-doubt latch. The server's hooks decode frames,
///                        dispatch, and release ordered responses; a loop
///                        runs a request itself when a worker would sit
///                        idle anyway (run-to-completion, below)
///   worker pool          executes stored procedures via
///                        Engine::RunProcedureDeferred; per-partition
///                        queue affinity for H-Store compositions
///                        (queue-oriented dispatch), shared run queue
///                        otherwise. Workers take pipelined bursts, queued
///                        overflow and every 2PC Prepare
///   log flusher          (owned by the engine's LogManager) releases
///                        held responses when their commit LSN becomes
///                        durable — a client never observes a commit the
///                        log could still lose
///
/// Server-wide across the loops: the in-flight budget, the held replies,
/// the prepared branches and the prepare count. A reply produced off its
/// loop (a worker's, a released held reply, a DecisionAck) goes to the
/// loop its connection id names and wakes only that loop.
///
/// Run-to-completion: handing a few-microsecond transaction to a sleeping
/// worker costs two cross-thread wake-ups, a futex wake there and an
/// eventfd write back. So DispatchRequest runs a request on the event loop
/// itself when all of these hold:
///  - the target WorkQueue is empty and one of its workers is parked on
///    its cv (nobody would run the request sooner);
///  - the request is the last frame buffered on its connection, so a
///    pipelined burst still fans out across the workers;
///  - no Prepare is queued, running or parked. A prepared branch holds its
///    locks until a decision frame that only the loop can read; an inline
///    transaction that met one of those locks (OCC spins on it, 2PL waits)
///    would wedge the loop that has to deliver the decision;
///  - the server is not a replica (replicas keep worker dispatch).
/// The loop then runs under the engine thread id of the parked worker, so
/// EngineOptions::max_threads == num_workers stays valid and H-Store keeps
/// its partition -> worker mapping. Lending rule: the loop takes the id out
/// of the queue's parked list and marks it lent, both under the queue's
/// mutex, so no other loop can borrow it; a lent worker takes no item
/// until the loop returns the id (and notifies it if items are queued).
/// A worker that starts a Prepare first waits out the inline runs that
/// began before the Prepare was counted, so no inline transaction can meet
/// a prepared branch's lock. Workers and the loops share one execution
/// path (ExecuteRequest), so held-reply durability, admission (the
/// in-flight budget), in-doubt fencing and per-connection reply order are
/// the same either way; an inline reply that need not wait for the log
/// goes out in the same reap batch.
///
/// I/O batching: responses completed during one reap batch queue on their
/// connections and leave as one writev per connection at batch end (see
/// event_loop.h). The same spine carries replication batches and (via the
/// LogManager's private ring) the group-commit flush.
///
/// Admission control: a bounded server-wide in-flight budget. When the
/// budget fills a loop stops resubmitting socket reads (backpressure
/// through TCP); whichever loop drains the budget below the resume
/// watermark resumes every paused loop, so no loop sleeps paused with
/// nothing of its own in flight. Requests already decoded that overflow a
/// worker queue are answered with kResourceExhausted instead of growing
/// the queue. Replica connections are exempt from read pausing: their
/// acks release held semisync replies, so throttling them could deadlock
/// the budget.
///
/// Replication roles:
///  - Primary: any server with logging enabled accepts PeerRole::kReplica
///    handshakes. A subscribed replica gets durable log bytes streamed as
///    ReplBatch frames from the event loop (shipping window bounded by the
///    connection's write buffer); its ReplAcks feed lag bookkeeping and,
///    in semisync mode, gate commit acknowledgement: a reply is released
///    only once its LSN is durable locally AND on at least one replica
///    (degrading to local-durable-only while zero replicas are subscribed).
///  - Replica: a server constructed with options.snapshot_source serves
///    read-only snapshot transactions at the source's applied LSN. Writes
///    are rejected with kInvalidArgument; reads demanding a fresher
///    snapshot than applied (request.min_read_lsn) get kUnavailable.
///
/// 2PC participant role: a connection that handshakes as
/// PeerRole::kCoordinator may, besides plain Requests (the shard router's
/// single-shard fast path), send Prepare / CommitDecision / AbortDecision /
/// InDoubtQuery frames. A Prepare executes the named procedure on a worker
/// and splits commit at Engine::Prepare: the redo record is durable before
/// the Vote leaves ("prepare durable before vote"), then the worker parks —
/// holding the branch's locks — until the decision frame arrives on the
/// event loop and wakes it (a participant never unilaterally aborts after
/// voting yes; Stop() releases parked workers by aborting in memory only,
/// leaving the gtid in doubt on disk, which presumed abort resolves).
/// Decisions for unknown gtids are acked OK (idempotent redelivery);
/// decisions for gtids recovery left in doubt resolve via
/// Engine::ResolveInDoubt. While recovered in-doubt transactions remain
/// unresolved the server answers Requests and Prepares with kUnavailable —
/// their redo is applied outside concurrency control, so no transaction
/// may run beside it. Coordinator connections are exempt from read pausing
/// like replicas: their decision frames are what un-parks workers, so
/// throttling them could deadlock the budget.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "server/protocol.h"
#include "txn/engine.h"

namespace next700 {
namespace server {

/// Commit-acknowledgement policy on a primary with subscribed replicas.
enum class ReplAckMode : uint8_t {
  /// Replies release on local durability; replicas tail asynchronously.
  kAsync = 0,
  /// Replies additionally wait until at least one subscribed replica has
  /// the commit LSN durable on its own log. With zero replicas subscribed
  /// the server degrades to async (counted in stats().semisync_degraded)
  /// rather than stalling commits forever.
  kSemisync = 1,
};

/// What a replica-role server reads from: the continuously-applied prefix
/// of the primary's log. Implemented by repl::ReplicaApplier; the server
/// depends only on this interface so src/server never links src/repl.
///
/// ReadLock/ReadUnlock bracket every procedure execution on a replica,
/// sharing among readers but excluding the applier's raw row writes
/// (which bypass concurrency control), so a reader always observes a
/// transaction-consistent prefix of the primary's commit order.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  /// LSN through which the log stream has been applied (a frame boundary).
  virtual Lsn applied_lsn() const = 0;
  virtual void ReadLock() = 0;
  virtual void ReadUnlock() = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is available via port().
  uint16_t port = 0;
  /// Worker pool size; the engine must be built with max_threads >= this,
  /// and no other thread may use engine thread ids [0, num_workers) (an
  /// event loop borrows a parked worker's id to run a request itself).
  int num_workers = 4;
  /// Event loops; 0 = auto: min(num_workers,
  /// EventLoopGroup::DefaultLoopCount()), one per two CPUs.
  int num_loops = 0;
  /// Server-wide budget of decoded-but-unanswered requests. Reads pause
  /// when it fills.
  uint32_t max_inflight = 256;
  /// Per-worker-queue bound; enqueue beyond it answers kResourceExhausted.
  size_t queue_capacity = 1024;
  /// Network submission backend: kUring demands a raw io_uring (Start()
  /// fails where the kernel lacks one), kEpoll forces the portable
  /// batched-epoll path, kAuto probes uring and falls back.
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
  /// Commit acknowledgement policy when replicas subscribe (primary only).
  ReplAckMode repl_ack = ReplAckMode::kAsync;
  /// Non-null makes this a replica-role server: read-only procedures run
  /// against the source's applied snapshot; everything else is rejected.
  /// Must outlive the server. A replica does not re-ship its stream
  /// (no chaining), so kReplica handshakes are refused in this role.
  SnapshotSource* snapshot_source = nullptr;
  /// Crash-harness hook: _exit(42) the process when the Nth successful
  /// Engine::Prepare is durable but its Vote has not been sent — the
  /// window where the participant is in doubt. 0 disables.
  uint64_t crash_after_prepares = 0;
};

/// Monotonic counters, updated with relaxed atomics (read for reports).
/// The first group (and the LoopStats base: accept_errors, writev_batches,
/// frames_batched) is written only by the event loops; the counter
/// written by whichever thread executed a request sits on its own cache
/// line so workers never invalidate the loops' line.
struct ServerStats : LoopStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_dispatched{0};
  /// Of requests_dispatched, those the event loop ran itself.
  std::atomic<uint64_t> requests_inline{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> protocol_errors{0};     // Malformed frames/bodies.
  std::atomic<uint64_t> connections_dropped{0};  // Unrecoverable streams.
  std::atomic<uint64_t> admission_rejects{0};   // kResourceExhausted sent.
  std::atomic<uint64_t> repl_batches_shipped{0};  // ReplBatch frames sent.
  std::atomic<uint64_t> repl_acks_received{0};
  /// Times semisync fell back to async because the last replica left.
  std::atomic<uint64_t> semisync_degraded{0};
  /// Replica-role rejections: writes, or min_read_lsn ahead of applied.
  std::atomic<uint64_t> snapshot_rejects{0};
  /// 2PC participant traffic (event-loop written): Prepare frames handed
  /// to workers, and decision frames received from coordinators.
  std::atomic<uint64_t> prepares_dispatched{0};
  std::atomic<uint64_t> decisions_received{0};
  NEXT700_CACHE_ALIGNED
  std::atomic<uint64_t> replies_held_durable{0};  // Waited on the flusher.
};

class Server {
 public:
  /// `engine` must outlive the server. Procedures must be registered (and
  /// data loaded) before Start(); registration is not thread-safe.
  Server(Engine* engine, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, builds the io backends, and starts the event loops +
  /// workers. Fails if options.io_backend = kUring on a kernel without a
  /// usable io_uring, or if the listener cannot be bound or armed.
  Status Start();

  /// Stops accepting, tears down connections and threads. Idempotent.
  /// In-flight transactions finish executing; their replies are dropped.
  void Stop();

  /// Port actually bound (after Start(); useful with port = 0).
  uint16_t port() const { return bound_port_; }

  const ServerStats& stats() const { return stats_; }
  /// Network-path io counters summed over the loops, refreshed by each call
  /// (null before Start / after Stop).
  const io::IoCounters* io_counters() const;
  /// Resolved backend: "uring" or "epoll" ("none" before Start).
  const char* io_backend_name() const {
    return group_ == nullptr ? "none" : group_->loop(0)->io().name();
  }
  /// Resolved event-loop count (after Start()).
  size_t num_loops() const { return loops_.size(); }
  /// Connections loop `index` adopted, and requests it ran itself.
  struct LoopCounts {
    uint64_t accepted = 0;
    uint64_t inline_runs = 0;
  };
  LoopCounts loop_counts(size_t index) const;
  Engine* engine() { return engine_; }

 private:
  /// One loop's hooks and the state it owns (defined in server.cc).
  struct Loop;

  struct WorkItem {
    uint64_t conn_id;
    uint64_t seq;
    Request request;
    /// 2PC: when set, `prepare` (not `request`) names the work and the
    /// worker answers with a Vote instead of a Response.
    bool is_prepare = false;
    Prepare prepare;
  };

  /// One undecided branch, keyed by gtid in prepared_. A loop registers it
  /// when it admits the Prepare; the worker parks on prepared_cv_ after
  /// pushing a yes Vote, and the loop that reads the decision fills it in
  /// and wakes it. A decision may land before the branch has voted (an
  /// in-doubt sweep can only abort it then).
  struct PreparedTxn {
    bool decided = false;
    bool commit = false;
    /// Where the DecisionAck goes (the admitting connection + sequence of
    /// the decision frame).
    uint64_t decision_conn_id = 0;
    uint64_t decision_seq = 0;
  };

  // Cache-aligned so adjacent queues (each bounced between the loops and
  // its workers) never share a line through their heap blocks.
  struct NEXT700_CACHE_ALIGNED WorkQueue {
    Mutex mu;
    CondVar cv;
    std::deque<WorkItem> items GUARDED_BY(mu);
    /// Engine thread ids of this queue's workers waiting on cv that a loop
    /// may borrow to run a request itself.
    std::vector<int> parked GUARDED_BY(mu);
    /// Borrowed ids: their workers take no item until the loop returns
    /// them.
    std::vector<int> lent GUARDED_BY(mu);
    bool stopped GUARDED_BY(mu) = false;

    bool IsLent(int thread_id) const REQUIRES(mu) {
      return std::find(lent.begin(), lent.end(), thread_id) != lent.end();
    }
  };

  struct Completion {
    uint64_t conn_id;
    uint64_t seq;
    std::vector<uint8_t> encoded;
  };

  struct HeldReply {
    Lsn lsn;
    Completion completion;
    bool operator>(const HeldReply& other) const { return lsn > other.lsn; }
  };

  // Loop hooks (on `loop`'s thread).
  void OnAccepted(Loop* loop, Connection* conn);
  /// Decodes and dispatches buffered frames until the stream is drained,
  /// the budget fills, or the stream turns out to be corrupt. Returns false
  /// if it closed `conn`.
  bool OnFrames(Loop* loop, Connection* conn);
  /// A drained replica socket reopens the shipping window.
  bool OnWriteDrained(Loop* loop, Connection* conn);
  /// Replica accounting when a subscribed replica leaves.
  void OnClosed(Loop* loop, Connection* conn);
  /// Completions, released replies, replica shipping and read resumption.
  void OnWakeup(Loop* loop);

  void WorkerLoop(int worker_id);
  /// Runs one Request item as engine thread `thread_id` (a worker's own id,
  /// or one a loop borrowed) and encodes its reply. Returns true with
  /// `*ready` filled when the reply may go out now; false when the reply
  /// was parked until its commit LSN is durable.
  bool ExecuteRequest(int thread_id, const WorkItem& item,
                      Completion* ready);
  /// Group-commit-aware reply release: parks `*completion` in
  /// held_replies_ until the release watermark (local durability, plus a
  /// replica ack in semisync mode) reaches `lsn`. Returns false, leaving
  /// the completion untouched, when there is nothing to wait for.
  bool HoldUntilDurable(Lsn lsn, Completion* completion);

  /// Pre-handshake frame handling: accepts exactly one valid Hello, sends
  /// the HelloAck, and records the peer role. Returns false if the
  /// connection was closed (mixed-version or non-next700 peer).
  bool HandleHello(Loop* loop, Connection* conn, const Frame& frame);
  /// A subscribed replica's cumulative progress ack (or its initial
  /// subscription naming the start LSN). Returns false if closed.
  bool HandleReplAck(Loop* loop, Connection* conn, const Frame& frame);
  /// 2PC frames from a coordinator peer (Prepare, decisions, InDoubtQuery).
  /// Each returns false if the connection was closed.
  bool HandleCoordinatorFrame(Loop* loop, Connection* conn,
                              const Frame& frame);
  bool HandlePrepare(Loop* loop, Connection* conn, const Frame& frame);
  bool HandleDecision(Loop* loop, Connection* conn, const Frame& frame);
  bool HandleInDoubtQuery(Loop* loop, Connection* conn, const Frame& frame);
  /// Worker-side execution of one Prepare item: run the procedure,
  /// Engine::Prepare, vote, park for the decision, apply it, ack.
  void RunPrepare(int worker_id, WorkItem* item);
  void DispatchRequest(Loop* loop, Connection* conn, Request request);
  /// The checks Requests and Prepares share: kUnavailable while recovered
  /// in-doubt transactions are unresolved, kNotFound for an unknown
  /// procedure, else kOk.
  StatusCode CheckRunnable(Loop* loop, uint32_t proc_id);
  bool PartitionsInRange(const std::vector<uint32_t>& partitions) const;
  /// Takes an in-flight slot and queues `*item`, or returns why not:
  /// kUnavailable once stopped, kResourceExhausted (an admission reject)
  /// when full. With `may_run_inline`, an empty queue with a parked worker
  /// instead lends that worker's engine thread id through
  /// `*borrowed_thread` (initially -1) and leaves `*item` to the caller,
  /// who hands the id back through ReturnThread.
  StatusCode Enqueue(WorkQueue* queue, WorkItem* item, bool may_run_inline,
                     int* borrowed_thread);
  void ReturnThread(WorkQueue* queue, int thread_id);
  /// Answers `seq` on `conn` directly from its loop (protocol errors,
  /// admission rejects) without a round trip through the worker pool.
  void CompleteInline(Loop* loop, Connection* conn, uint64_t seq,
                      const Response& response);
  /// Releases ordered responses into the outbound queue and marks the
  /// connection dirty (actual writev happens at batch end).
  void FlushConnection(Loop* loop, Connection* conn);
  /// Counts a dropped stream (protocol error) and closes it.
  void DropConnection(Loop* loop, Connection* conn);

  /// Ships durable log bytes to one subscribed replica until its write
  /// buffer reaches the shipping window or the log is drained. May close
  /// the connection (socket error, or the cursor fell behind the retired
  /// log prefix and the replica must re-bootstrap).
  void ShipToReplica(Loop* loop, Connection* conn);
  /// Ships to every replica subscribed on `loop` (durable-callback
  /// wakeups).
  void ShipAll(Loop* loop);
  /// Recomputes `loop`'s max acked-durable LSN over its replicas, then the
  /// server-wide semisync watermark (the max over loops), after an ack or
  /// a replica departure.
  void RecomputeSemisyncWatermark(Loop* loop);
  /// The LSN up to which replies may be released given local durability
  /// `durable`: durable itself in async/replica roles, min(durable,
  /// semisync watermark) in semisync mode with replicas subscribed.
  /// Callable from any thread.
  Lsn ReleaseWatermark(Lsn durable) const;

  /// The loop that owns connection `conn_id`.
  Loop* LoopOf(uint64_t conn_id) const;
  /// Any thread -> the owning loop: queues the reply and wakes that loop.
  void PushCompletion(Completion completion);
  /// Moves every held reply with lsn <= durable to its loop, waking only
  /// the loops that received one.
  void ReleaseDurable(Lsn durable);
  void DrainCompletions(Loop* loop);
  /// Gives `n` in-flight slots back (on a loop thread); once the budget is
  /// below the resume watermark, wakes every paused loop but `self`, whose
  /// drain resumes it.
  void ReleaseInflight(uint32_t n, const Loop* self);

  void PauseReads(Loop* loop);
  void ResumeReads(Loop* loop);

  int WorkerForPartitions(Loop* loop, const std::vector<uint32_t>& partitions);

  Engine* engine_;
  ServerOptions options_;
  ServerStats stats_;

  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};

  /// The loops' hooks and state (index == loop index), and the group that
  /// runs them: every socket in this server. Each loop's Wakeup() is the
  /// thread-safe entry (workers, the log flusher, other loops).
  std::vector<std::unique_ptr<Loop>> loops_;
  std::unique_ptr<EventLoopGroup> group_;
  mutable io::IoCounters io_totals_;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  bool partitioned_dispatch_ = false;

  /// Subscribed replicas over all loops. Written by the loops; read by the
  /// flusher callback and workers for semisync gating.
  std::atomic<uint32_t> replica_count_{0};
  /// Max acked-durable LSN across subscribed replicas (loop-written).
  std::atomic<Lsn> semisync_watermark_{0};
  /// Serializes the max over loops that sets semisync_watermark_.
  Mutex semisync_mu_;

  // The admission counter is hit by every loop (admit) and every worker's
  // completion (release); keep it off the lines holding the state above.
  NEXT700_CACHE_ALIGNED std::atomic<uint32_t> inflight_{0};
  /// Loops paused on the budget (Dekker pairing with inflight_: a pausing
  /// loop raises it and re-reads inflight_, a releasing loop lowers
  /// inflight_ and reads it, so one of them sees the other).
  std::atomic<uint32_t> paused_loops_{0};

  Mutex held_mu_;
  std::priority_queue<HeldReply, std::vector<HeldReply>,
                      std::greater<HeldReply>>
      held_replies_ GUARDED_BY(held_mu_);

  // Undecided branches (loops register and decide; workers park).
  // Never nested with the other server mutexes.
  Mutex prepared_mu_;
  CondVar prepared_cv_;
  std::unordered_map<uint64_t, PreparedTxn> prepared_
      GUARDED_BY(prepared_mu_);
  /// Stop() in progress: parked workers abort in memory (no outcome
  /// record) and exit instead of waiting for decisions that cannot come.
  bool prepared_stop_ GUARDED_BY(prepared_mu_) = false;
  /// Successful prepares so far (the crash_after_prepares trigger).
  std::atomic<uint64_t> prepares_done_{0};
  /// Prepares queued, running or parked: no loop runs a request itself
  /// while this is nonzero (it could meet a prepared branch's lock).
  /// Raised by a loop at enqueue, lowered by the worker once the branch
  /// has released its locks.
  std::atomic<uint32_t> prepares_active_{0};
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_SERVER_H_
