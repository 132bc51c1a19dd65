#include "server/server.h"

#include <unistd.h>

#include <algorithm>
#include <bitset>
#include <string>

#include "common/stats.h"

namespace next700 {
namespace server {

namespace {

/// Resume reads once the in-flight count drops below this fraction of the
/// budget (hysteresis so the loop does not flap at the boundary).
uint32_t ResumeWatermark(uint32_t budget) { return budget - budget / 4; }

/// Per-replica shipping window: stop enqueuing batches once this many
/// bytes sit unsent in the connection's write buffer. A slow replica
/// backpressures through TCP instead of ballooning primary memory.
constexpr size_t kShipWindowBytes = 4 * kMaxReplBatchBytes;

}  // namespace

/// One event loop's hooks, and the state only that loop writes (the
/// atomics are read by other threads).
struct NEXT700_CACHE_ALIGNED Server::Loop : EventLoop::Handler {
  Server* server = nullptr;
  EventLoop* net = nullptr;  // Owned by the server's group.

  void OnAccepted(Connection* conn) override {
    server->OnAccepted(this, conn);
  }
  bool OnFrames(Connection* conn) override {
    return server->OnFrames(this, conn);
  }
  bool OnWriteDrained(Connection* conn) override {
    return server->OnWriteDrained(this, conn);
  }
  void OnClosed(Connection* conn) override { server->OnClosed(this, conn); }
  void OnWakeup() override { server->OnWakeup(this); }

  /// Latch over the recovered in-doubt gate: true while
  /// Engine::has_in_doubt() might still hold, so the steady state never
  /// takes the engine's in-doubt mutex per request. Only true -> false.
  bool in_doubt_gate = false;
  /// Spreads undeclared-partition requests across H-Store workers.
  uint64_t round_robin = 0;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> inline_runs{0};
  /// Paused on the budget; other loops read it to resume this one.
  std::atomic<bool> reads_paused{false};
  /// Set around every inline run: a worker starting a Prepare waits until
  /// it is clear (see the lending rule in server.h).
  std::atomic<bool> running_inline{false};
  /// Replicas subscribed on this loop and their max acked-durable LSN.
  std::atomic<uint32_t> replicas{0};
  std::atomic<Lsn> replicas_acked{0};
  /// Flusher -> loop: new durable bytes are ready to ship.
  std::atomic<bool> ship_pending{false};

  /// Replies for this loop's connections (workers, the flusher, other
  /// loops); drained on wakeup.
  NEXT700_CACHE_ALIGNED Mutex completions_mu;
  std::deque<Completion> completions GUARDED_BY(completions_mu);
};

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  NEXT700_CHECK(engine_ != nullptr);
  NEXT700_CHECK(options_.num_workers > 0);
  NEXT700_CHECK(options_.max_inflight > 0);
  NEXT700_CHECK_MSG(options_.num_workers <= engine_->options().max_threads,
                    "server needs one engine thread id per worker");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  NEXT700_CHECK(!running_.load());
  const int num_loops =
      options_.num_loops > 0
          ? options_.num_loops
          : std::min(options_.num_workers, EventLoopGroup::DefaultLoopCount());
  std::vector<EventLoop::Handler*> handlers;
  loops_.clear();
  for (int i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    loops_.back()->server = this;
    handlers.push_back(loops_.back().get());
  }
  // kUring fails loudly here on kernels without a usable ring; kAuto
  // quietly resolves to the batched-epoll fallback.
  Status built = EventLoopGroup::Create(options_.io_backend, handlers,
                                        &stats_, &group_);
  if (built.ok()) built = group_->Listen(options_.host, options_.port);
  if (!built.ok()) {
    group_.reset();
    loops_.clear();
    return built;
  }
  bound_port_ = group_->port();
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->net = group_->loop(i);
  }

  // Queue-oriented dispatch for the partitioned composition: partition p is
  // served by worker (p mod workers), so single-partition transactions on
  // distinct partitions never contend on a queue or a partition lock. Other
  // schemes share one run queue.
  partitioned_dispatch_ = engine_->cc()->scheme() == CcScheme::kHstore;
  const int num_queues = partitioned_dispatch_ ? options_.num_workers : 1;
  for (int i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }

  if (engine_->log_manager() != nullptr) {
    // One durable callback serves two consumers: releasing held replies
    // (sync-commit replies, and commit DecisionAcks in every mode) and
    // waking the loops that hold replicas to ship freshly durable bytes.
    // The flusher thread must not touch loop-owned connection state, so
    // shipping is signalled through a flag + the backend's thread-safe
    // Wakeup.
    engine_->log_manager()->SetDurableCallback([this](Lsn durable) {
      ReleaseDurable(ReleaseWatermark(durable));
      if (replica_count_.load(std::memory_order_acquire) == 0) return;
      for (auto& loop : loops_) {
        if (loop->replicas.load(std::memory_order_acquire) > 0) {
          loop->ship_pending.store(true, std::memory_order_release);
          loop->net->Wakeup();
        }
      }
    });
  }

  // Requests and Prepares stay fenced out until every in-doubt transaction
  // recovery surfaced is resolved by its coordinator.
  const bool in_doubt = engine_->has_in_doubt();
  for (auto& loop : loops_) loop->in_doubt_gate = in_doubt;

  running_.store(true);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] {
      SetThreadName("n7-worker" + std::to_string(i));
      WorkerLoop(i);
    });
  }
  group_->Start("n7-loop");
  return Status::OK();
}

void Server::Stop() {
  if (!running_.load()) return;
  if (engine_->log_manager() != nullptr) {
    // Returns only after any in-flight durable callback finished, so the
    // flusher can no longer call into this object.
    engine_->log_manager()->SetDurableCallback(nullptr);
  }
  group_->Stop();

  // Release workers parked on undecided prepared branches: they abort in
  // memory without logging an outcome, so the gtid stays in doubt on disk
  // and presumed abort resolves it on the next recovery.
  {
    MutexLock lock(&prepared_mu_);
    prepared_stop_ = true;
  }
  prepared_cv_.NotifyAll();

  for (auto& queue : queues_) {
    {
      MutexLock lock(&queue->mu);
      queue->stopped = true;
    }
    queue->cv.NotifyAll();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  queues_.clear();

  // Last (closes every connection and the listener): workers woke loops
  // through PushCompletion until the join above, so the backends must
  // outlive them.
  group_.reset();
  loops_.clear();
  running_.store(false);
}

const io::IoCounters* Server::io_counters() const {
  if (group_ == nullptr) return nullptr;
  group_->SumIoCounters(&io_totals_);
  return &io_totals_;
}

Server::LoopCounts Server::loop_counts(size_t index) const {
  const Loop& loop = *loops_[index];
  return LoopCounts{loop.accepted.load(std::memory_order_relaxed),
                    loop.inline_runs.load(std::memory_order_relaxed)};
}

Server::Loop* Server::LoopOf(uint64_t conn_id) const {
  return loops_[group_->LoopOf(conn_id)->index()].get();
}

void Server::OnAccepted(Loop* loop, Connection* conn) {
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  loop->accepted.fetch_add(1, std::memory_order_relaxed);
  conn->set_read_paused(loop->reads_paused.load(std::memory_order_relaxed));
}

void Server::OnWakeup(Loop* loop) {
  DrainCompletions(loop);
  if (loop->ship_pending.exchange(false, std::memory_order_acq_rel)) {
    ShipAll(loop);
  }
}

bool Server::OnFrames(Loop* loop, Connection* conn) {
  const uint64_t conn_id = conn->id();
  for (;;) {
    // The admission budget throttles client requests only; handshakes and
    // replica acks must keep flowing (acks release held replies).
    if (conn->handshaken() && conn->peer() == PeerRole::kClient &&
        inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
      PauseReads(loop);
      break;
    }
    Frame frame;
    bool have = false;
    const Status stream_ok = conn->decoder()->Next(&frame, &have);
    if (!stream_ok.ok()) {
      // Oversized or garbage header: the stream cannot be resynchronized.
      DropConnection(loop, conn);
      return false;
    }
    if (!have) break;
    // Each handler returns false if it closed `conn`; a reply it flushed
    // may also have closed a draining one, hence the re-find.
    bool alive = true;
    if (!conn->handshaken()) {
      alive = HandleHello(loop, conn, frame);
    } else if (frame.type == FrameType::kReplAck &&
               conn->peer() == PeerRole::kReplica) {
      alive = HandleReplAck(loop, conn, frame);
    } else if (conn->peer() == PeerRole::kCoordinator &&
               frame.type != FrameType::kRequest) {
      alive = HandleCoordinatorFrame(loop, conn, frame);
    } else if (frame.type != FrameType::kRequest ||
               (conn->peer() != PeerRole::kClient &&
                conn->peer() != PeerRole::kCoordinator)) {
      DropConnection(loop, conn);
      return false;
    } else {
      Request request;
      if (DecodeRequest(frame.body, frame.body_len, &request).ok()) {
        DispatchRequest(loop, conn, std::move(request));
      } else {
        // Framing is intact, so the connection survives; answer with an
        // error.
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.request_id = request.request_id;
        response.status = StatusCode::kInvalidArgument;
        CompleteInline(loop, conn, conn->AdmitRequest(), response);
      }
    }
    if (!alive || loop->net->Find(conn_id) == nullptr) return false;
  }
  return !loop->net->MaybeCloseDrained(conn);
}

bool Server::HandleHello(Loop* loop, Connection* conn, const Frame& frame) {
  Hello hello;
  Status status = frame.type == FrameType::kHello
                      ? DecodeHello(frame.body, frame.body_len, &hello)
                      : Status::InvalidArgument(
                            "first frame on a connection must be Hello");
  if (status.ok() && hello.role == PeerRole::kReplica) {
    if (engine_->log_manager() == nullptr) {
      status = Status::InvalidArgument(
          "replica subscription refused: primary runs without a log");
    } else if (options_.snapshot_source != nullptr) {
      status = Status::InvalidArgument(
          "replica subscription refused: replicas do not chain");
    }
  }
  if (!status.ok()) {
    // Loud rejection of mixed-version or non-next700 peers: drop the
    // connection before interpreting a single byte of their payloads.
    DropConnection(loop, conn);
    return false;
  }
  conn->set_handshaken();
  conn->set_peer(hello.role);
  std::vector<uint8_t> ack;
  EncodeHelloAck(HelloAck{}, &ack);
  conn->EnqueueRaw(ack.data(), ack.size());
  FlushConnection(loop, conn);  // May close `conn`; callers re-find by id.
  return true;
}

bool Server::HandleReplAck(Loop* loop, Connection* conn, const Frame& frame) {
  ReplAck ack;
  const Status decoded = DecodeReplAck(frame.body, frame.body_len, &ack);
  if (!decoded.ok()) {
    DropConnection(loop, conn);
    return false;
  }
  stats_.repl_acks_received.fetch_add(1, std::memory_order_relaxed);
  if (conn->shipper() == nullptr) {
    // First ack = subscription: durable_lsn names the replica's local log
    // end, which is where shipping resumes (frame boundary by contract).
    conn->set_shipper(std::make_unique<repl::LogShipper>(
        engine_->log_manager(), ack.durable_lsn));
    loop->replicas.fetch_add(1, std::memory_order_release);
    replica_count_.fetch_add(1, std::memory_order_release);
  } else {
    conn->shipper()->RecordAck(ack.durable_lsn);
  }
  if (options_.repl_ack == ReplAckMode::kSemisync) {
    RecomputeSemisyncWatermark(loop);
    ReleaseDurable(ReleaseWatermark(engine_->log_manager()->durable_lsn()));
  }
  ShipToReplica(loop, conn);  // May close `conn`; callers re-find by id.
  return true;
}

void Server::ShipToReplica(Loop* loop, Connection* conn) {
  repl::LogShipper* shipper = conn->shipper();
  if (shipper == nullptr) return;
  bool enqueued = false;
  while (conn->write_len() < kShipWindowBytes) {
    std::vector<uint8_t> encoded;
    bool have = false;
    const Status status = shipper->NextBatch(&encoded, &have);
    if (!status.ok()) {
      // kNotFound: the cursor fell below the retired log prefix; the
      // replica cannot catch up by tailing and must re-bootstrap from a
      // checkpoint. Dropping the subscription makes that loud.
      stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      loop->net->Close(conn);
      return;
    }
    if (!have) break;
    conn->EnqueueRaw(encoded.data(), encoded.size());
    stats_.repl_batches_shipped.fetch_add(1, std::memory_order_relaxed);
    enqueued = true;
  }
  if (enqueued) FlushConnection(loop, conn);
}

void Server::ShipAll(Loop* loop) {
  std::vector<uint64_t> ids;
  for (auto& [id, conn] : loop->net->connections()) {
    if (conn->shipper() != nullptr) ids.push_back(id);
  }
  for (uint64_t id : ids) {
    if (Connection* conn = loop->net->Find(id)) ShipToReplica(loop, conn);
  }
}

void Server::RecomputeSemisyncWatermark(Loop* loop) {
  Lsn loop_acked = 0;
  for (auto& [id, conn] : loop->net->connections()) {
    (void)id;
    if (conn->shipper() != nullptr) {
      loop_acked = std::max(loop_acked, conn->shipper()->acked_durable());
    }
  }
  loop->replicas_acked.store(loop_acked, std::memory_order_release);
  // Each loop publishes its own max before taking the mutex, so the last
  // recompute to take it sees every loop's latest value.
  MutexLock lock(&semisync_mu_);
  Lsn max_acked = 0;
  for (const auto& other : loops_) {
    max_acked = std::max(
        max_acked, other->replicas_acked.load(std::memory_order_acquire));
  }
  semisync_watermark_.store(max_acked, std::memory_order_release);
}

Lsn Server::ReleaseWatermark(Lsn durable) const {
  if (options_.repl_ack != ReplAckMode::kSemisync) return durable;
  if (replica_count_.load(std::memory_order_acquire) == 0) {
    return durable;  // Degraded: no replica can ever ack.
  }
  return std::min(durable,
                  semisync_watermark_.load(std::memory_order_acquire));
}

bool Server::HandleCoordinatorFrame(Loop* loop, Connection* conn,
                                    const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPrepare:
      return HandlePrepare(loop, conn, frame);
    case FrameType::kCommitDecision:
    case FrameType::kAbortDecision:
      return HandleDecision(loop, conn, frame);
    case FrameType::kInDoubtQuery:
      return HandleInDoubtQuery(loop, conn, frame);
    default:
      DropConnection(loop, conn);
      return false;
  }
}

bool Server::HandlePrepare(Loop* loop, Connection* conn, const Frame& frame) {
  Prepare prepare;
  const Status decoded = DecodePrepare(frame.body, frame.body_len, &prepare);
  if (!decoded.ok()) {
    // The coordinator is trusted infrastructure; a malformed Prepare means
    // a version skew or corruption, not a user error worth a polite reply.
    DropConnection(loop, conn);
    return false;
  }
  const uint64_t seq = conn->AdmitRequest();
  StatusCode code = CheckRunnable(loop, prepare.proc_id);
  if (code == StatusCode::kOk && options_.snapshot_source != nullptr) {
    code = StatusCode::kInvalidArgument;  // Replicas never prepare.
  }
  if (code == StatusCode::kOk && !PartitionsInRange(prepare.partitions)) {
    code = StatusCode::kInvalidArgument;
  }
  Vote vote;
  vote.gtid = prepare.gtid;
  if (code == StatusCode::kOk) {
    WorkQueue* queue = queues_[static_cast<size_t>(
        WorkerForPartitions(loop, prepare.partitions))].get();
    // Registered at admission rather than once prepared: an in-doubt query
    // must list a branch that is still queued or executing, or a
    // coordinator that lost this connection could sweep before the branch
    // parks and leave it with nobody to decide it.
    {
      MutexLock lock(&prepared_mu_);
      prepared_.emplace(prepare.gtid, PreparedTxn{});
    }
    WorkItem item;
    item.conn_id = conn->id();
    item.seq = seq;
    item.is_prepare = true;
    item.prepare = std::move(prepare);
    int no_borrow = -1;
    code = Enqueue(queue, &item, /*may_run_inline=*/false, &no_borrow);
    if (code != StatusCode::kOk) {
      MutexLock lock(&prepared_mu_);
      prepared_.erase(vote.gtid);
    }
  }
  if (code == StatusCode::kOk) {
    stats_.prepares_dispatched.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  vote.status = code;
  std::vector<uint8_t> encoded;
  EncodeVote(vote, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(loop, conn);  // May close `conn`; callers re-find by id.
  return true;
}

bool Server::HandleDecision(Loop* loop, Connection* conn, const Frame& frame) {
  Decision decision;
  const Status decoded =
      DecodeDecision(frame.body, frame.body_len, &decision);
  if (!decoded.ok()) {
    DropConnection(loop, conn);
    return false;
  }
  stats_.decisions_received.fetch_add(1, std::memory_order_relaxed);
  const bool commit = frame.type == FrameType::kCommitDecision;
  const uint64_t seq = conn->AdmitRequest();
  // A live prepared branch: hand the decision to its parked worker, which
  // applies it and pushes the DecisionAck for this (conn, seq).
  bool delivered = false;
  {
    MutexLock lock(&prepared_mu_);
    auto it = prepared_.find(decision.gtid);
    if (it != prepared_.end() && !it->second.decided) {
      it->second.decided = true;
      it->second.commit = commit;
      it->second.decision_conn_id = conn->id();
      it->second.decision_seq = seq;
      delivered = true;
    }
  }
  if (delivered) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    prepared_cv_.NotifyAll();
    return true;
  }
  // A branch recovery left in doubt resolves here; an unknown gtid is an
  // idempotent redelivery (the previous ack was lost) and acks OK.
  DecisionAck ack;
  ack.gtid = decision.gtid;
  ack.status = StatusCode::kOk;
  const Status resolved = engine_->ResolveInDoubt(decision.gtid, commit);
  if (!resolved.ok() && !resolved.IsNotFound()) {
    ack.status = resolved.code();
  }
  std::vector<uint8_t> encoded;
  EncodeDecisionAck(ack, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(loop, conn);
  return true;
}

bool Server::HandleInDoubtQuery(Loop* loop, Connection* conn,
                                const Frame& frame) {
  if (frame.body_len != 0) {
    DropConnection(loop, conn);
    return false;
  }
  const uint64_t seq = conn->AdmitRequest();
  InDoubtList list;
  // Both branches recovery left in doubt and live branches (queued,
  // executing or parked) whose decision never arrived: the reconnecting
  // coordinator answers every one of these with a decision frame.
  list.gtids = engine_->InDoubtGtids();
  {
    MutexLock lock(&prepared_mu_);
    for (const auto& entry : prepared_) {
      if (!entry.second.decided) list.gtids.push_back(entry.first);
    }
  }
  std::vector<uint8_t> encoded;
  EncodeInDoubtList(list, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(loop, conn);
  return true;
}

StatusCode Server::CheckRunnable(Loop* loop, uint32_t proc_id) {
  if (loop->in_doubt_gate) {
    // Recovered in-doubt redo applies outside concurrency control, so no
    // transaction may run until the coordinator has resolved every gtid.
    if (engine_->has_in_doubt()) return StatusCode::kUnavailable;
    loop->in_doubt_gate = false;  // Resolved; stop checking per request.
  }
  if (engine_->GetProcedure(proc_id) == nullptr) return StatusCode::kNotFound;
  return StatusCode::kOk;
}

bool Server::PartitionsInRange(const std::vector<uint32_t>& partitions) const {
  const uint32_t num_partitions = engine_->options().num_partitions;
  return std::all_of(partitions.begin(), partitions.end(),
                     [num_partitions](uint32_t p) { return p < num_partitions; });
}

StatusCode Server::Enqueue(WorkQueue* queue, WorkItem* item,
                           bool may_run_inline, int* borrowed_thread) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  StatusCode code = StatusCode::kOk;
  bool any_lent = false;
  {
    MutexLock lock(&queue->mu);
    if (queue->stopped) {
      code = StatusCode::kUnavailable;
    } else if (may_run_inline && queue->items.empty() &&
               !queue->parked.empty()) {
      // The lending rule: out of `parked`, into `lent`, so neither another
      // loop nor the worker itself runs under the id until it returns.
      *borrowed_thread = queue->parked.back();
      queue->parked.pop_back();
      queue->lent.push_back(*borrowed_thread);
    } else if (queue->items.size() >= options_.queue_capacity) {
      // Admission control: the queue is the last bounded stage; shedding
      // load here keeps overload from turning into unbounded memory growth.
      code = StatusCode::kResourceExhausted;
    } else {
      if (item->is_prepare) {
        // seq_cst: the Dekker pairing with DispatchRequest's inline flag.
        prepares_active_.fetch_add(1, std::memory_order_seq_cst);
      }
      queue->items.push_back(std::move(*item));
    }
    any_lent = !queue->lent.empty();
  }
  if (code != StatusCode::kOk) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (code == StatusCode::kResourceExhausted) {
      stats_.admission_rejects.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (*borrowed_thread < 0) {
    // A lent worker would swallow a lone notify without taking the item.
    if (any_lent) {
      queue->cv.NotifyAll();
    } else {
      queue->cv.NotifyOne();
    }
  }
  return code;
}

void Server::ReturnThread(WorkQueue* queue, int thread_id) {
  bool queued = false;
  {
    MutexLock lock(&queue->mu);
    queue->lent.erase(
        std::find(queue->lent.begin(), queue->lent.end(), thread_id));
    // Its worker is still waiting on cv: lendable again.
    queue->parked.push_back(thread_id);
    queued = !queue->items.empty();
  }
  if (queued) queue->cv.NotifyAll();
}

void Server::DispatchRequest(Loop* loop, Connection* conn, Request request) {
  const uint64_t seq = conn->AdmitRequest();
  Response error;
  error.request_id = request.request_id;
  error.status = CheckRunnable(loop, request.proc_id);
  if (error.status == StatusCode::kOk &&
      options_.snapshot_source != nullptr) {
    // Replica role: only read-only procedures, and only if the applied
    // snapshot is at least as fresh as the client demands.
    if (!engine_->IsProcedureReadOnly(request.proc_id)) {
      error.status = StatusCode::kInvalidArgument;
    } else if (request.min_read_lsn >
               options_.snapshot_source->applied_lsn()) {
      error.status = StatusCode::kUnavailable;
    }
    if (error.status != StatusCode::kOk) {
      stats_.snapshot_rejects.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (error.status == StatusCode::kOk &&
      !PartitionsInRange(request.partitions)) {
    error.status = StatusCode::kInvalidArgument;
  }
  if (error.status != StatusCode::kOk) {
    CompleteInline(loop, conn, seq, error);
    return;
  }
  WorkQueue* queue = queues_[static_cast<size_t>(
      WorkerForPartitions(loop, request.partitions))].get();
  // Run-to-completion (see the file comment): the request-independent
  // conditions; the queue-state ones are checked under its mutex. The flag
  // goes up before prepares_active_ is read (Dekker pairing with the
  // worker's wait before a Prepare), so a Prepare counted later waits for
  // this run to finish.
  bool may_run_inline = options_.snapshot_source == nullptr &&
                        conn->decoder()->buffered_bytes() == 0;
  if (may_run_inline) {
    loop->running_inline.store(true, std::memory_order_seq_cst);
    may_run_inline = prepares_active_.load(std::memory_order_seq_cst) == 0;
  }
  WorkItem item;
  item.conn_id = conn->id();
  item.seq = seq;
  item.request = std::move(request);
  int borrowed_thread = -1;
  error.status = Enqueue(queue, &item, may_run_inline, &borrowed_thread);
  if (borrowed_thread < 0) {
    loop->running_inline.store(false, std::memory_order_release);
  }
  if (error.status != StatusCode::kOk) {
    CompleteInline(loop, conn, seq, error);
    return;
  }
  stats_.requests_dispatched.fetch_add(1, std::memory_order_relaxed);
  if (borrowed_thread < 0) return;
  stats_.requests_inline.fetch_add(1, std::memory_order_relaxed);
  loop->inline_runs.fetch_add(1, std::memory_order_relaxed);
  Completion completion;
  const bool ready = ExecuteRequest(borrowed_thread, item, &completion);
  loop->running_inline.store(false, std::memory_order_release);
  ReturnThread(queue, borrowed_thread);
  if (!ready) return;  // Held until durable; released through a drain.
  conn->Complete(seq, std::move(completion.encoded));
  FlushConnection(loop, conn);  // May close `conn`; OnFrames re-finds by id.
  // Mid-OnFrames: a paused loop, this one included, resumes from its own
  // wakeup, never re-entering OnFrames from here.
  ReleaseInflight(1, nullptr);
}

int Server::WorkerForPartitions(Loop* loop,
                                const std::vector<uint32_t>& partitions) {
  if (!partitioned_dispatch_) return 0;  // Single shared run queue.
  if (partitions.empty()) {
    // Undeclared access locks every partition; spread those across workers.
    return static_cast<int>(loop->round_robin++ %
                            static_cast<uint64_t>(options_.num_workers));
  }
  const uint32_t min_partition =
      *std::min_element(partitions.begin(), partitions.end());
  return static_cast<int>(min_partition %
                          static_cast<uint32_t>(options_.num_workers));
}

void Server::CompleteInline(Loop* loop, Connection* conn, uint64_t seq,
                            const Response& response) {
  std::vector<uint8_t> encoded;
  EncodeResponse(response, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(loop, conn);
}

void Server::FlushConnection(Loop* loop, Connection* conn) {
  stats_.responses_sent.fetch_add(loop->net->FlushReplies(conn),
                                  std::memory_order_relaxed);
}

bool Server::OnWriteDrained(Loop* loop, Connection* conn) {
  if (conn->shipper() == nullptr) return true;
  const uint64_t conn_id = conn->id();
  ShipToReplica(loop, conn);
  return loop->net->Find(conn_id) != nullptr;
}

void Server::DropConnection(Loop* loop, Connection* conn) {
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
  loop->net->Close(conn);
}

void Server::OnClosed(Loop* loop, Connection* conn) {
  if (conn->shipper() == nullptr) return;
  loop->replicas.fetch_sub(1, std::memory_order_acq_rel);
  const uint32_t remaining =
      replica_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (options_.repl_ack == ReplAckMode::kSemisync) {
    RecomputeSemisyncWatermark(loop);
    if (remaining == 0) {
      // Losing the last replica degrades semisync to local durability;
      // otherwise every held reply would wait forever.
      stats_.semisync_degraded.fetch_add(1, std::memory_order_relaxed);
    }
    if (engine_->log_manager() != nullptr) {
      ReleaseDurable(ReleaseWatermark(engine_->log_manager()->durable_lsn()));
    }
  }
}

void Server::PushCompletion(Completion completion) {
  Loop* loop = LoopOf(completion.conn_id);
  {
    MutexLock lock(&loop->completions_mu);
    loop->completions.push_back(std::move(completion));
  }
  loop->net->Wakeup();
}

void Server::ReleaseDurable(Lsn durable) {
  std::vector<Completion> released;
  {
    MutexLock held_lock(&held_mu_);
    while (!held_replies_.empty() && held_replies_.top().lsn <= durable) {
      released.push_back(
          std::move(const_cast<HeldReply&>(held_replies_.top()).completion));
      held_replies_.pop();
    }
  }
  if (released.empty()) return;
  std::bitset<(1u << EventLoop::kLoopIndexBits)> woken;
  for (Completion& completion : released) {
    Loop* loop = LoopOf(completion.conn_id);
    const uint32_t index = loop->net->index();
    {
      MutexLock lock(&loop->completions_mu);
      loop->completions.push_back(std::move(completion));
    }
    woken.set(index);
  }
  for (auto& loop : loops_) {
    if (woken.test(loop->net->index())) loop->net->Wakeup();
  }
}

void Server::DrainCompletions(Loop* loop) {
  uint32_t drained = 0;
  for (;;) {
    std::deque<Completion> local;
    {
      MutexLock lock(&loop->completions_mu);
      local.swap(loop->completions);
    }
    if (local.empty()) break;
    drained += static_cast<uint32_t>(local.size());
    for (auto& completion : local) {
      Connection* conn = loop->net->Find(completion.conn_id);
      if (conn == nullptr) continue;  // Client already gone.
      conn->Complete(completion.seq, std::move(completion.encoded));
      FlushConnection(loop, conn);  // May close `conn`.
    }
  }
  ReleaseInflight(drained, loop);
  // Also checked with nothing drained: another loop (or this loop's own
  // PauseReads) woke this one to resume.
  if (loop->reads_paused.load(std::memory_order_relaxed) &&
      inflight_.load(std::memory_order_seq_cst) <
          ResumeWatermark(options_.max_inflight)) {
    ResumeReads(loop);
  }
}

void Server::ReleaseInflight(uint32_t n, const Loop* self) {
  const uint32_t now = inflight_.fetch_sub(n, std::memory_order_seq_cst) - n;
  if (paused_loops_.load(std::memory_order_seq_cst) == 0 ||
      now >= ResumeWatermark(options_.max_inflight)) {
    return;
  }
  for (auto& other : loops_) {
    if (other.get() != self &&
        other->reads_paused.load(std::memory_order_relaxed)) {
      other->net->Wakeup();  // Its drain resumes it.
    }
  }
}

void Server::PauseReads(Loop* loop) {
  if (loop->reads_paused.load(std::memory_order_relaxed)) return;
  loop->reads_paused.store(true, std::memory_order_relaxed);
  // No read is cancelled: outstanding ones complete and simply do not
  // resubmit while paused. Replica connections stay readable: their acks
  // release held semisync replies, which is exactly what drains the
  // budget. Coordinator connections likewise: their decision frames are
  // what un-parks prepared workers.
  for (auto& [id, conn] : loop->net->connections()) {
    (void)id;
    if (conn->peer() != PeerRole::kReplica &&
        conn->peer() != PeerRole::kCoordinator) {
      conn->set_read_paused(true);
    }
  }
  // The budget may have drained on another loop since this one read it
  // full; if so, resume through this loop's own wakeup rather than sleep
  // paused with nothing of its own in flight.
  paused_loops_.fetch_add(1, std::memory_order_seq_cst);
  if (inflight_.load(std::memory_order_seq_cst) <
      ResumeWatermark(options_.max_inflight)) {
    loop->net->Wakeup();
  }
}

void Server::ResumeReads(Loop* loop) {
  loop->reads_paused.store(false, std::memory_order_relaxed);
  paused_loops_.fetch_sub(1, std::memory_order_seq_cst);
  std::vector<uint64_t> ids;
  ids.reserve(loop->net->connections().size());
  for (auto& [id, conn] : loop->net->connections()) {
    (void)conn;
    ids.push_back(id);
  }
  for (uint64_t id : ids) {
    Connection* conn = loop->net->Find(id);
    if (conn == nullptr) continue;
    conn->set_read_paused(false);
    // Frames decoded before the pause may still be buffered; re-admit them
    // now (this may re-pause, in which case stop).
    if (OnFrames(loop, conn)) loop->net->StartRead(conn);
    if (loop->reads_paused.load(std::memory_order_relaxed)) break;
  }
}

void Server::WorkerLoop(int worker_id) {
  WorkQueue* queue =
      queues_[partitioned_dispatch_ ? static_cast<size_t>(worker_id) : 0]
          .get();
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(&queue->mu);
      while (!queue->stopped &&
             (queue->items.empty() || queue->IsLent(worker_id))) {
        // While parked, a loop may borrow this id (moving it to `lent`);
        // while lent, this worker waits for it to come back.
        if (!queue->IsLent(worker_id)) queue->parked.push_back(worker_id);
        queue->cv.Wait(&queue->mu);
        const auto it = std::find(queue->parked.begin(), queue->parked.end(),
                                  worker_id);
        if (it != queue->parked.end()) queue->parked.erase(it);
      }
      if (queue->stopped) return;  // Remaining replies are dropped at Stop.
      item = std::move(queue->items.front());
      queue->items.pop_front();
    }
    if (item.is_prepare) {
      // Inline runs that began before this Prepare was counted finish
      // first: they could otherwise meet the branch's locks, which only a
      // decision frame releases.
      for (const auto& loop : loops_) {
        while (loop->running_inline.load(std::memory_order_seq_cst)) {
          std::this_thread::yield();
        }
      }
      RunPrepare(worker_id, &item);
      prepares_active_.fetch_sub(1, std::memory_order_release);
      continue;
    }
    Completion completion;
    if (ExecuteRequest(worker_id, item, &completion)) {
      PushCompletion(std::move(completion));
    }
  }
}

bool Server::ExecuteRequest(int thread_id, const WorkItem& item,
                            Completion* ready) {
  SnapshotSource* snapshot = options_.snapshot_source;
  const Request& request = item.request;
  // Replica role: exclude the applier's raw writes for the duration of the
  // (read-only) procedure; the snapshot LSN reported to the client is the
  // applied prefix the read actually observed.
  if (snapshot != nullptr) snapshot->ReadLock();
  Engine::DeferredResult result = engine_->RunProcedureDeferred(
      request.proc_id, thread_id, request.args.data(), request.args.size(),
      request.partitions);
  Response response;
  response.request_id = request.request_id;
  response.status = result.status.code();
  response.commit_lsn = result.commit_lsn;
  if (snapshot != nullptr) {
    response.commit_lsn = snapshot->applied_lsn();
    snapshot->ReadUnlock();
  }
  response.payload = std::move(result.reply);
  ready->conn_id = item.conn_id;
  ready->seq = item.seq;
  EncodeResponse(response, &ready->encoded);
  // The client must never observe a commit that could still be lost.
  return !HoldUntilDurable(result.commit_lsn, ready);
}

bool Server::HoldUntilDurable(Lsn lsn, Completion* completion) {
  LogManager* log = engine_->log_manager();
  if (lsn == 0 || log == nullptr) return false;
  {
    MutexLock lock(&held_mu_);
    if (ReleaseWatermark(log->durable_lsn()) >= lsn) return false;
    held_replies_.push(HeldReply{lsn, std::move(*completion)});
  }
  stats_.replies_held_durable.fetch_add(1, std::memory_order_relaxed);
  // Re-check after insertion: closes the race with a flush or replica ack
  // that landed in between.
  ReleaseDurable(ReleaseWatermark(log->durable_lsn()));
  return true;
}

void Server::RunPrepare(int worker_id, WorkItem* item) {
  const Prepare& prepare = item->prepare;
  const Procedure* proc = engine_->GetProcedure(prepare.proc_id);
  NEXT700_CHECK(proc != nullptr);  // Checked at dispatch.
  const std::vector<uint32_t> partitions(prepare.partitions.begin(),
                                         prepare.partitions.end());
  TxnContext* txn = engine_->Begin(worker_id, partitions);
  // The outcome record's durability gates the DecisionAck through the
  // held-replies path, not a blocking wait on this worker.
  txn->set_defer_durable(true);
  txn->SetProcedure(prepare.proc_id, prepare.args.data(),
                    prepare.args.size());
  Status s =
      (*proc)(engine_, txn, prepare.args.data(), prepare.args.size());
  if (s.ok()) s = engine_->Prepare(txn, prepare.gtid);
  Vote vote;
  vote.gtid = prepare.gtid;
  vote.status = s.code();
  vote.prepare_lsn = txn->prepare_lsn();
  if (!s.ok()) {
    if (s.IsAborted()) {
      engine_->Abort(txn);
    } else {
      engine_->AbortUser(txn);
    }
    Completion no;
    no.conn_id = item->conn_id;
    no.seq = item->seq;
    EncodeVote(vote, &no.encoded);
    PushCompletion(std::move(no));
    // An abort decision may have reached the branch before it voted (a
    // coordinator's in-doubt sweep); it is owed its ack.
    PreparedTxn entry;
    {
      MutexLock lock(&prepared_mu_);
      auto it = prepared_.find(prepare.gtid);
      NEXT700_CHECK(it != prepared_.end());
      entry = it->second;
      prepared_.erase(it);
    }
    if (entry.decided) {
      DecisionAck ack;
      ack.gtid = prepare.gtid;
      ack.status = StatusCode::kOk;
      Completion acked;
      acked.conn_id = entry.decision_conn_id;
      acked.seq = entry.decision_seq;
      EncodeDecisionAck(ack, &acked.encoded);
      PushCompletion(std::move(acked));
    }
    return;
  }
  if (options_.crash_after_prepares > 0 &&
      prepares_done_.fetch_add(1, std::memory_order_relaxed) + 1 ==
          options_.crash_after_prepares) {
    // Crash-harness hook: die exactly in doubt — the prepare record is
    // durable but the vote never leaves this process.
    _exit(42);
  }
  Completion yes;
  yes.conn_id = item->conn_id;
  yes.seq = item->seq;
  EncodeVote(vote, &yes.encoded);
  // Engine::Prepare already waited for durability ("prepare durable before
  // vote"), so the vote bypasses the held-replies machinery.
  PushCompletion(std::move(yes));

  // Park holding the branch's locks until the coordinator decides (or
  // Stop): a participant never unilaterally aborts after voting yes.
  bool do_commit = false;
  bool stopped = false;
  uint64_t ack_conn_id = 0;
  uint64_t ack_seq = 0;
  {
    MutexLock lock(&prepared_mu_);
    auto it = prepared_.find(prepare.gtid);
    NEXT700_CHECK(it != prepared_.end());
    while (!it->second.decided && !prepared_stop_) {
      prepared_cv_.Wait(&prepared_mu_);
    }
    if (it->second.decided) {
      do_commit = it->second.commit;
      ack_conn_id = it->second.decision_conn_id;
      ack_seq = it->second.decision_seq;
    } else {
      stopped = true;
    }
    prepared_.erase(it);
  }
  if (stopped) {
    // In-memory rollback only — no outcome record — so the branch stays in
    // doubt on disk and presumed abort resolves it at the next recovery.
    engine_->Abort(txn);
    return;
  }
  DecisionAck ack;
  ack.gtid = prepare.gtid;
  ack.status = StatusCode::kOk;
  if (do_commit) {
    const Status cs = engine_->CommitPrepared(txn);
    if (!cs.ok()) ack.status = cs.code();
  } else {
    engine_->AbortPrepared(txn);
  }
  Completion completion;
  completion.conn_id = ack_conn_id;
  completion.seq = ack_seq;
  EncodeDecisionAck(ack, &completion.encoded);
  // Decision durable before ack, async commit included: the coordinator
  // forgets a commit once every participant acked it, so an ack that beat
  // its outcome record to disk could let a crash presume-abort a branch
  // the other participants committed.
  const Lsn outcome_lsn =
      do_commit && ack.status == StatusCode::kOk ? txn->commit_lsn() : 0;
  if (!HoldUntilDurable(outcome_lsn, &completion)) {
    PushCompletion(std::move(completion));
  }
}

}  // namespace server
}  // namespace next700
