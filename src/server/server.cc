#include "server/server.h"

#include <unistd.h>

#include <algorithm>

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
  // kUring fails loudly here on kernels without a usable ring; kAuto
  // quietly resolves to the batched-epoll fallback.
  NEXT700_RETURN_IF_ERROR(
      EventLoop::Create(options_.io_backend, this, &stats_, &loop_));
  NEXT700_RETURN_IF_ERROR(loop_->Listen(options_.host, options_.port));
  bound_port_ = loop_->port();

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
    // waking the loop to ship freshly durable bytes to replicas. The
    // flusher thread must not touch loop-owned connection state, so
    // shipping is signalled through a flag + the backend's thread-safe
    // Wakeup.
    engine_->log_manager()->SetDurableCallback([this](Lsn durable) {
      ReleaseDurable(ReleaseWatermark(durable));
      if (replica_count_.load(std::memory_order_acquire) > 0) {
        ship_pending_.store(true, std::memory_order_release);
        loop_->Wakeup();
      }
    });
  }

  // Requests and Prepares stay fenced out until every in-doubt transaction
  // recovery surfaced is resolved by its coordinator.
  in_doubt_gate_ = engine_->has_in_doubt();

  running_.store(true);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  loop_->Start();
  return Status::OK();
}

void Server::Stop() {
  if (!running_.load()) return;
  if (engine_->log_manager() != nullptr) {
    // Returns only after any in-flight durable callback finished, so the
    // flusher can no longer call into this object.
    engine_->log_manager()->SetDurableCallback(nullptr);
  }
  loop_->Stop();

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

  // Last (closes every connection and the listener): workers called
  // loop_->Wakeup() through PushCompletion until the join above, so the
  // backend must outlive them.
  loop_.reset();
  running_.store(false);
}

void Server::OnAccept(int fd) {
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  loop_->Adopt(fd, reads_paused_);
}

void Server::OnWakeup() {
  DrainCompletions();
  if (ship_pending_.exchange(false, std::memory_order_acq_rel)) ShipAll();
}

bool Server::OnFrames(Connection* conn) {
  const uint64_t conn_id = conn->id();
  for (;;) {
    // The admission budget throttles client requests only; handshakes and
    // replica acks must keep flowing (acks release held replies).
    if (conn->handshaken() && conn->peer() == PeerRole::kClient &&
        inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
      PauseReads();
      break;
    }
    Frame frame;
    bool have = false;
    const Status stream_ok = conn->decoder()->Next(&frame, &have);
    if (!stream_ok.ok()) {
      // Oversized or garbage header: the stream cannot be resynchronized.
      DropConnection(conn);
      return false;
    }
    if (!have) break;
    // Each handler returns false if it closed `conn`; a reply it flushed
    // may also have closed a draining one, hence the re-find.
    bool alive = true;
    if (!conn->handshaken()) {
      alive = HandleHello(conn, frame);
    } else if (frame.type == FrameType::kReplAck &&
               conn->peer() == PeerRole::kReplica) {
      alive = HandleReplAck(conn, frame);
    } else if (conn->peer() == PeerRole::kCoordinator &&
               frame.type != FrameType::kRequest) {
      alive = HandleCoordinatorFrame(conn, frame);
    } else if (frame.type != FrameType::kRequest ||
               (conn->peer() != PeerRole::kClient &&
                conn->peer() != PeerRole::kCoordinator)) {
      DropConnection(conn);
      return false;
    } else {
      Request request;
      if (DecodeRequest(frame.body, frame.body_len, &request).ok()) {
        DispatchRequest(conn, std::move(request));
      } else {
        // Framing is intact, so the connection survives; answer with an
        // error.
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.request_id = request.request_id;
        response.status = StatusCode::kInvalidArgument;
        CompleteInline(conn, conn->AdmitRequest(), response);
      }
    }
    if (!alive || loop_->Find(conn_id) == nullptr) return false;
  }
  return !loop_->MaybeCloseDrained(conn);
}

bool Server::HandleHello(Connection* conn, const Frame& frame) {
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
    DropConnection(conn);
    return false;
  }
  conn->set_handshaken();
  conn->set_peer(hello.role);
  std::vector<uint8_t> ack;
  EncodeHelloAck(HelloAck{}, &ack);
  conn->EnqueueRaw(ack.data(), ack.size());
  FlushConnection(conn);  // May close `conn`; callers re-find by id.
  return true;
}

bool Server::HandleReplAck(Connection* conn, const Frame& frame) {
  ReplAck ack;
  const Status decoded = DecodeReplAck(frame.body, frame.body_len, &ack);
  if (!decoded.ok()) {
    DropConnection(conn);
    return false;
  }
  stats_.repl_acks_received.fetch_add(1, std::memory_order_relaxed);
  if (conn->shipper() == nullptr) {
    // First ack = subscription: durable_lsn names the replica's local log
    // end, which is where shipping resumes (frame boundary by contract).
    conn->set_shipper(std::make_unique<repl::LogShipper>(
        engine_->log_manager(), ack.durable_lsn));
    replica_count_.fetch_add(1, std::memory_order_release);
  } else {
    conn->shipper()->RecordAck(ack.durable_lsn);
  }
  if (options_.repl_ack == ReplAckMode::kSemisync) {
    RecomputeSemisyncWatermark();
    ReleaseDurable(ReleaseWatermark(engine_->log_manager()->durable_lsn()));
  }
  ShipToReplica(conn);  // May close `conn`; callers re-find by id.
  return true;
}

void Server::ShipToReplica(Connection* conn) {
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
      loop_->Close(conn);
      return;
    }
    if (!have) break;
    conn->EnqueueRaw(encoded.data(), encoded.size());
    stats_.repl_batches_shipped.fetch_add(1, std::memory_order_relaxed);
    enqueued = true;
  }
  if (enqueued) FlushConnection(conn);
}

void Server::ShipAll() {
  std::vector<uint64_t> ids;
  for (auto& [id, conn] : loop_->connections()) {
    if (conn->shipper() != nullptr) ids.push_back(id);
  }
  for (uint64_t id : ids) {
    if (Connection* conn = loop_->Find(id)) ShipToReplica(conn);
  }
}

void Server::RecomputeSemisyncWatermark() {
  Lsn max_acked = 0;
  for (auto& [id, conn] : loop_->connections()) {
    (void)id;
    if (conn->shipper() != nullptr) {
      max_acked = std::max(max_acked, conn->shipper()->acked_durable());
    }
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

bool Server::HandleCoordinatorFrame(Connection* conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPrepare:
      return HandlePrepare(conn, frame);
    case FrameType::kCommitDecision:
    case FrameType::kAbortDecision:
      return HandleDecision(conn, frame);
    case FrameType::kInDoubtQuery:
      return HandleInDoubtQuery(conn, frame);
    default:
      DropConnection(conn);
      return false;
  }
}

bool Server::HandlePrepare(Connection* conn, const Frame& frame) {
  Prepare prepare;
  const Status decoded = DecodePrepare(frame.body, frame.body_len, &prepare);
  if (!decoded.ok()) {
    // The coordinator is trusted infrastructure; a malformed Prepare means
    // a version skew or corruption, not a user error worth a polite reply.
    DropConnection(conn);
    return false;
  }
  const uint64_t seq = conn->AdmitRequest();
  StatusCode code = CheckRunnable(prepare.proc_id);
  if (code == StatusCode::kOk && options_.snapshot_source != nullptr) {
    code = StatusCode::kInvalidArgument;  // Replicas never prepare.
  }
  if (code == StatusCode::kOk && !PartitionsInRange(prepare.partitions)) {
    code = StatusCode::kInvalidArgument;
  }
  Vote vote;
  vote.gtid = prepare.gtid;
  if (code == StatusCode::kOk) {
    WorkQueue* queue =
        queues_[static_cast<size_t>(WorkerForPartitions(prepare.partitions))]
            .get();
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
  FlushConnection(conn);  // May close `conn`; callers re-find by id.
  return true;
}

bool Server::HandleDecision(Connection* conn, const Frame& frame) {
  Decision decision;
  const Status decoded =
      DecodeDecision(frame.body, frame.body_len, &decision);
  if (!decoded.ok()) {
    DropConnection(conn);
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
  FlushConnection(conn);
  return true;
}

bool Server::HandleInDoubtQuery(Connection* conn, const Frame& frame) {
  if (frame.body_len != 0) {
    DropConnection(conn);
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
  FlushConnection(conn);
  return true;
}

StatusCode Server::CheckRunnable(uint32_t proc_id) {
  if (in_doubt_gate_) {
    // Recovered in-doubt redo applies outside concurrency control, so no
    // transaction may run until the coordinator has resolved every gtid.
    if (engine_->has_in_doubt()) return StatusCode::kUnavailable;
    in_doubt_gate_ = false;  // Resolved; stop checking per request.
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
  {
    MutexLock lock(&queue->mu);
    if (queue->stopped) {
      code = StatusCode::kUnavailable;
    } else if (may_run_inline && queue->items.empty() &&
               !queue->parked.empty()) {
      // Only this thread enqueues, so the parked worker cannot be handed
      // work while the loop runs under its engine thread id.
      *borrowed_thread = queue->parked.back();
    } else if (queue->items.size() >= options_.queue_capacity) {
      // Admission control: the queue is the last bounded stage; shedding
      // load here keeps overload from turning into unbounded memory growth.
      code = StatusCode::kResourceExhausted;
    } else {
      if (item->is_prepare) {
        prepares_active_.fetch_add(1, std::memory_order_relaxed);
      }
      queue->items.push_back(std::move(*item));
    }
  }
  if (code != StatusCode::kOk) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (code == StatusCode::kResourceExhausted) {
      stats_.admission_rejects.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (*borrowed_thread < 0) {
    queue->cv.NotifyOne();
  }
  return code;
}

void Server::DispatchRequest(Connection* conn, Request request) {
  const uint64_t seq = conn->AdmitRequest();
  Response error;
  error.request_id = request.request_id;
  error.status = CheckRunnable(request.proc_id);
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
    CompleteInline(conn, seq, error);
    return;
  }
  WorkQueue* queue =
      queues_[static_cast<size_t>(WorkerForPartitions(request.partitions))]
          .get();
  // Run-to-completion (see the file comment): the request-independent
  // conditions; the queue-state ones are checked under its mutex.
  const bool may_run_inline =
      options_.snapshot_source == nullptr &&
      conn->decoder()->buffered_bytes() == 0 &&
      prepares_active_.load(std::memory_order_acquire) == 0;
  WorkItem item;
  item.conn_id = conn->id();
  item.seq = seq;
  item.request = std::move(request);
  int borrowed_thread = -1;
  error.status = Enqueue(queue, &item, may_run_inline, &borrowed_thread);
  if (error.status != StatusCode::kOk) {
    CompleteInline(conn, seq, error);
    return;
  }
  stats_.requests_dispatched.fetch_add(1, std::memory_order_relaxed);
  if (borrowed_thread < 0) return;
  stats_.requests_inline.fetch_add(1, std::memory_order_relaxed);
  Completion completion;
  if (!ExecuteRequest(borrowed_thread, item, &completion)) {
    return;  // Held until durable; released through DrainCompletions.
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  conn->Complete(seq, std::move(completion.encoded));
  FlushConnection(conn);  // May close `conn`; OnFrames re-finds by id.
}

int Server::WorkerForPartitions(const std::vector<uint32_t>& partitions) {
  if (!partitioned_dispatch_) return 0;  // Single shared run queue.
  if (partitions.empty()) {
    // Undeclared access locks every partition; spread those across workers.
    return static_cast<int>(round_robin_++ %
                            static_cast<uint64_t>(options_.num_workers));
  }
  const uint32_t min_partition =
      *std::min_element(partitions.begin(), partitions.end());
  return static_cast<int>(min_partition %
                          static_cast<uint32_t>(options_.num_workers));
}

void Server::CompleteInline(Connection* conn, uint64_t seq,
                            const Response& response) {
  std::vector<uint8_t> encoded;
  EncodeResponse(response, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(conn);
}

void Server::FlushConnection(Connection* conn) {
  stats_.responses_sent.fetch_add(loop_->FlushReplies(conn),
                                  std::memory_order_relaxed);
}

bool Server::OnWriteDrained(Connection* conn) {
  if (conn->shipper() == nullptr) return true;
  const uint64_t conn_id = conn->id();
  ShipToReplica(conn);
  return loop_->Find(conn_id) != nullptr;
}

void Server::DropConnection(Connection* conn) {
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
  loop_->Close(conn);
}

void Server::OnClosed(Connection* conn) {
  if (conn->shipper() == nullptr) return;
  const uint32_t remaining =
      replica_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (options_.repl_ack == ReplAckMode::kSemisync) {
    RecomputeSemisyncWatermark();
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
  {
    MutexLock lock(&completions_mu_);
    completions_.push_back(std::move(completion));
  }
  loop_->Wakeup();
}

void Server::ReleaseDurable(Lsn durable) {
  bool released = false;
  {
    MutexLock held_lock(&held_mu_);
    MutexLock comp_lock(&completions_mu_);
    while (!held_replies_.empty() && held_replies_.top().lsn <= durable) {
      completions_.push_back(
          std::move(const_cast<HeldReply&>(held_replies_.top()).completion));
      held_replies_.pop();
      released = true;
    }
  }
  if (released) loop_->Wakeup();
}

void Server::DrainCompletions() {
  for (;;) {
    std::deque<Completion> local;
    {
      MutexLock lock(&completions_mu_);
      local.swap(completions_);
    }
    if (local.empty()) break;
    for (auto& completion : local) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      Connection* conn = loop_->Find(completion.conn_id);
      if (conn == nullptr) continue;  // Client already gone.
      conn->Complete(completion.seq, std::move(completion.encoded));
      FlushConnection(conn);  // May close `conn`.
    }
  }
  if (reads_paused_ && inflight_.load(std::memory_order_relaxed) <
                           ResumeWatermark(options_.max_inflight)) {
    ResumeReads();
  }
}

void Server::PauseReads() {
  if (reads_paused_) return;
  reads_paused_ = true;
  // No read is cancelled: outstanding ones complete and simply do not
  // resubmit while paused. Replica connections stay readable: their acks
  // release held semisync replies, which is exactly what drains the
  // budget. Coordinator connections likewise: their decision frames are
  // what un-parks prepared workers.
  for (auto& [id, conn] : loop_->connections()) {
    (void)id;
    if (conn->peer() != PeerRole::kReplica &&
        conn->peer() != PeerRole::kCoordinator) {
      conn->set_read_paused(true);
    }
  }
}

void Server::ResumeReads() {
  reads_paused_ = false;
  std::vector<uint64_t> ids;
  ids.reserve(loop_->connections().size());
  for (auto& [id, conn] : loop_->connections()) {
    (void)conn;
    ids.push_back(id);
  }
  for (uint64_t id : ids) {
    Connection* conn = loop_->Find(id);
    if (conn == nullptr) continue;
    conn->set_read_paused(false);
    // Frames decoded before the pause may still be buffered; re-admit them
    // now (this may re-pause, in which case stop).
    if (OnFrames(conn)) loop_->StartRead(conn);
    if (reads_paused_) break;
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
      while (!queue->stopped && queue->items.empty()) {
        // While parked, the event loop may run a request under this id.
        queue->parked.push_back(worker_id);
        queue->cv.Wait(&queue->mu);
        queue->parked.erase(std::find(queue->parked.begin(),
                                      queue->parked.end(), worker_id));
      }
      if (queue->stopped) return;  // Remaining replies are dropped at Stop.
      item = std::move(queue->items.front());
      queue->items.pop_front();
    }
    if (item.is_prepare) {
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
