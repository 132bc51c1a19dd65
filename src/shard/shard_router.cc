#include "shard/shard_router.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "common/macros.h"
#include "common/stats.h"
#include "log/recovery.h"
#include "server/procs.h"

namespace next700 {
namespace shard {

using server::FrameType;
using server::PeerRole;

namespace {

/// Wall-clock nanoseconds — deliberately not the monotonic clock: gtids
/// must stay unique across router restarts, and the monotonic epoch resets
/// at boot.
uint64_t WallNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t MonotonicMs() { return NowNanos() / 1000000; }

/// Re-frames a (type, body) pair exactly as the sender framed it — header
/// plus body is byte-identical to the original frame, which is what lets
/// the router relay shard responses without re-encoding.
void AppendFrame(FrameType type, const uint8_t* body, size_t body_len,
                 std::vector<uint8_t>* out) {
  uint8_t header[server::kFrameHeaderBytes];
  server::StoreLE32(static_cast<uint32_t>(body_len), header);
  header[4] = static_cast<uint8_t>(type);
  out->insert(out->end(), header, header + sizeof(header));
  out->insert(out->end(), body, body + body_len);
}

/// What the next reply frame on a shard link, after the handshake, answers.
/// The shard server replies in per-connection request order, so a deque of
/// these, pushed in send order, always matches; a reply of the wrong frame
/// type or gtid closes the link.
struct Expectation {
  enum class Kind : uint8_t { kForward, kVote, kAck };
  Kind kind = Kind::kForward;
  /// kAck of a decision the in-doubt sweep sent (counts toward link-up).
  bool sweep = false;
  uint64_t gtid = 0;  // kVote, kAck.
  // kForward: the reply slot; request_id is echoed if the link dies with
  // the forward in flight (clients match responses by id).
  uint64_t session_id = 0;
  uint64_t ticket = 0;
  uint64_t request_id = 0;
};
using Kind = Expectation::Kind;

std::vector<uint8_t> EncodeReply(uint64_t request_id, StatusCode status,
                                 Lsn commit_lsn) {
  server::Response response;
  response.request_id = request_id;
  response.status = status;
  response.commit_lsn = commit_lsn;
  std::vector<uint8_t> encoded;
  server::EncodeResponse(response, &encoded);
  return encoded;
}

}  // namespace

/// A cross-shard kKvRmw on its way to loop 0's 2PC. Identifies the reply
/// slot by (session id, ticket) — never by pointer, so a session that dies
/// mid-2PC just drops the result; the id names the session's loop.
struct ShardRouter::CrossShardJob {
  uint64_t session_id = 0;
  uint64_t ticket = 0;
  uint64_t request_id = 0;
  /// Per-shard key slices (index == shard id; empty == not a participant).
  std::vector<std::vector<uint64_t>> shard_keys;
};

/// One connection from an event loop to a shard server: the loop's
/// outbound peer whose index is the shard id, so the loop dials and
/// redials it. The owning loop is the only thread that touches it; the
/// state machine runs off read/write completions. A link accepts forwards
/// and prepares only in kUp (after handshake + in-doubt resolution); a
/// forward staged while it is down answers kUnavailable immediately, which
/// keeps the reply stream strictly pairable against the expectation deque.
struct ShardRouter::ShardLink {
  enum class State : uint8_t {
    kDown,     // No connection; the loop redials it.
    kHello,    // Connect + Hello + InDoubtQuery sent; awaiting HelloAck.
    kResolve,  // Awaiting the in-doubt list, then its decision acks.
    kUp,       // Forwarding.
  };

  uint32_t shard_id = 0;
  State state = State::kDown;
  /// The framed transport, owned by the loop's connection table; null
  /// while kDown. A fresh Connection (and a fresh id) per dial keeps stale
  /// completions from a dead socket unroutable.
  server::Connection* conn = nullptr;
  std::deque<Expectation> expect;
  /// Sweep acks still owed; -1 until the in-doubt list arrives.
  int resolve_pending = -1;

  /// Queues one frame whose reply `e` describes; everything queued within
  /// one reap batch rides the same gather write.
  void Send(server::EventLoop* net, const std::vector<uint8_t>& frame,
            const Expectation& e) {
    conn->EnqueueRaw(frame.data(), frame.size());
    expect.push_back(e);
    net->MarkDirty(conn);
  }
};

/// One cross-shard transaction in 2PC, owned by loop 0.
struct ShardRouter::CrossShardTxn {
  enum class Phase : uint8_t { kVoting, kLogging, kAcking };
  /// Per shard: the reply this transaction still awaits from it.
  enum class Await : uint8_t { kNothing, kVote, kAck };

  uint64_t gtid = 0;
  CrossShardJob job;
  Phase phase = Phase::kVoting;
  std::vector<Await> await;  // index == shard id
  std::vector<uint32_t> yes_shards;
  /// First failure (a no vote, a lost or late vote, a decision-log
  /// error, Stop()); kOk while the transaction may still commit, and once
  /// it is acking, kOk means it committed.
  StatusCode fail_code = StatusCode::kOk;
  /// The vote deadline while kVoting, the ack deadline while kAcking.
  uint64_t deadline_ms = 0;
  Lsn decision_lsn = 0;

  bool Awaiting(Await what) const {
    return std::find(await.begin(), await.end(), what) != await.end();
  }
};

/// The hooks of one group loop: every session and shard link it owns, and
/// the protocol they speak. Only the loop's thread touches this; other
/// threads reach it through the loop's Post(). Loop 0 also runs every
/// cross-shard 2PC.
struct ShardRouter::RouterLoop : server::EventLoop::Handler {
  ShardRouter* router = nullptr;
  uint32_t index = 0;
  server::EventLoop* net = nullptr;  // Owned by the router's group.
  std::vector<std::unique_ptr<ShardLink>> links;  // index == shard id

  // Loop 0's 2PC state.
  std::deque<CrossShardJob> waiting;  // Beyond the cap, in arrival order.
  std::unordered_map<uint64_t, CrossShardTxn> txns;
  /// Runtime commits -> the yes-voters that have not acked them yet.
  std::unordered_map<uint64_t, std::vector<uint32_t>> unacked;
  uint64_t gtids_issued = 0;

  /// The link `conn` belongs to, or null for a client session.
  ShardLink* LinkOf(const server::Connection* conn) const {
    for (const auto& link : links) {
      if (link->conn == conn) return link.get();
    }
    return nullptr;
  }

  void OnAccepted(server::Connection*) override {
    router->stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
  }
  bool OnFrames(server::Connection* conn) override {
    if (ShardLink* link = LinkOf(conn)) {
      return router->DrainLinkFrames(this, link);
    }
    return router->DrainSessionFrames(this, conn);
  }
  /// A link's fresh connection: the Hello + in-doubt query go out once
  /// the connect completes.
  void OnDialed(size_t shard_id, server::Connection* conn) override {
    links[shard_id]->conn = conn;
    links[shard_id]->state = ShardLink::State::kHello;
    std::vector<uint8_t> bytes;
    server::Hello hello;
    hello.role = PeerRole::kCoordinator;
    server::EncodeHello(hello, &bytes);
    server::EncodeInDoubtQuery(&bytes);
    conn->EnqueueRaw(bytes.data(), bytes.size());
    net->MarkDirty(conn);
  }
  void OnClosed(server::Connection* conn) override {
    if (ShardLink* link = LinkOf(conn)) {
      router->TeardownLink(this, link);
      return;
    }
    // Link expectations and 2PC jobs that still name this session id
    // resolve to nothing at lookup time — no dangling state.
    router->stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  /// Loop 0: decisions the log made durable (its flusher wakes loop 0).
  void OnWakeup() override {
    if (index == 0) router->CheckDecisionLog(this);
  }
  /// 2PC deadlines (loop 0); returns the earliest remaining one.
  uint64_t RunTimers(uint64_t now_ms) override {
    return index == 0 ? router->RunCrossShardTimers(this, now_ms)
                      : UINT64_MAX;
  }
};

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)) {
  NEXT700_CHECK_MSG(!options_.shards.empty(), "router needs >= 1 shard");
  NEXT700_CHECK_MSG(!options_.log_dir.empty(),
                    "router needs a decision log dir");
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  NEXT700_CHECK(!running_);
  gtid_base_ = WallNanos();

  // Prior commit decisions first (the scan reads the existing segments),
  // then open the log for appending (which starts a fresh segment).
  scanned_commits_.clear();
  struct stat st;
  if (::stat(options_.log_dir.c_str(), &st) == 0) {
    std::vector<uint64_t> committed;
    NEXT700_RETURN_IF_ERROR(
        ScanCoordinatorDecisions(options_.log_dir, &committed));
    scanned_commits_.insert(committed.begin(), committed.end());
  }
  LogManagerOptions log_options;
  log_options.dir = options_.log_dir;
  log_options.sync_policy = LogSyncPolicy::kFdatasync;
  decision_log_ = std::make_unique<LogManager>(log_options);
  NEXT700_RETURN_IF_ERROR(decision_log_->Open());

  // Event loops (and their backends) before the listen socket so a
  // backend-creation failure (kUring on an old kernel) leaks nothing.
  const int nloops = options_.num_loops > 0
                         ? options_.num_loops
                         : server::EventLoopGroup::DefaultLoopCount();
  std::vector<server::EventLoop::Handler*> handlers;
  for (int i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<RouterLoop>();
    loop->router = this;
    loop->index = static_cast<uint32_t>(i);
    handlers.push_back(loop.get());
    loops_.push_back(std::move(loop));
  }
  NEXT700_RETURN_IF_ERROR(server::EventLoopGroup::Create(
      options_.io_backend, handlers, &stats_, &group_));
  for (auto& loop : loops_) loop->net = group_->loop(loop->index);
  for (auto& loop : loops_) {
    for (uint32_t s = 0; s < num_shards(); ++s) {
      // Dialed in shard order: the peer index is the shard id.
      NEXT700_RETURN_IF_ERROR(loop->net->Dial(options_.shards[s]));
      auto link = std::make_unique<ShardLink>();
      link->shard_id = s;
      loop->links.push_back(std::move(link));
    }
  }
  NEXT700_RETURN_IF_ERROR(
      group_->Listen(options_.listen_host, options_.listen_port));
  port_ = group_->port();

  stop_.store(false, std::memory_order_release);
  {
    MutexLock lock(&shards_mu_);
    links_up_ = 0;
    xshard_drained_ = false;
  }
  // A flush (or a decision-log failure) wakes loop 0, which re-checks the
  // decisions it is waiting on.
  server::EventLoop* coordinator = loops_[0]->net;
  decision_log_->SetDurableCallback(
      [coordinator](Lsn) { coordinator->Wakeup(); });
  group_->Start("n7-rloop");
  running_ = true;
  return Status::OK();
}

void ShardRouter::Stop() {
  if (group_ == nullptr) {
    loops_.clear();
    if (decision_log_ != nullptr) decision_log_->Close();
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (running_) {
    // Loop 0 sends every transaction in 2PC its decision and reports once
    // acked (or past the ack deadline): no branch stays parked on a shard.
    loops_[0]->net->Wakeup();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.ack_timeout_ms + 1000);
    MutexLock lock(&shards_mu_);
    for (auto now = std::chrono::steady_clock::now();
         !xshard_drained_ && now < deadline;
         now = std::chrono::steady_clock::now()) {
      shards_cv_.WaitFor(&shards_mu_, deadline - now);
    }
  }
  shards_cv_.NotifyAll();  // Unpark WaitShardsConnected; it observes stop_.
  // Returns once an in-flight callback finished: the flusher no longer
  // wakes a loop that is going away.
  decision_log_->SetDurableCallback(nullptr);
  group_->Stop();

  // Loop threads are joined: this thread owns their state now. 2PC still
  // in flight past the drain deadline dies here; its prepared branches
  // resolve through the next incarnation's in-doubt sweep.
  for (auto& loop : loops_) {
    for (const auto& entry : loop->net->connections()) {
      if (loop->LinkOf(entry.second.get()) != nullptr) continue;
      stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  io::IoCounters live;
  group_->SumIoCounters(&live);
  io_syscalls_retired_.fetch_add(live.syscalls.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
  group_.reset();  // Closes every session, link and the listener.
  loops_.clear();
  decision_log_->Close();
  running_ = false;
}

bool ShardRouter::WaitShardsConnected(int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const uint32_t target =
      static_cast<uint32_t>(loops_.size()) * num_shards();
  MutexLock lock(&shards_mu_);
  while (links_up_ < target && !stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    shards_cv_.WaitFor(&shards_mu_, deadline - now);
  }
  return links_up_ >= target;
}

uint64_t ShardRouter::io_syscalls() const {
  uint64_t total = io_syscalls_retired_.load(std::memory_order_relaxed);
  if (group_ != nullptr) {
    io::IoCounters live;
    group_->SumIoCounters(&live);
    total += live.syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

// --- Client sessions -----------------------------------------------------

bool ShardRouter::DrainSessionFrames(RouterLoop* loop,
                                     server::Connection* conn) {
  for (;;) {
    server::Frame frame;
    bool have = false;
    if (!conn->decoder()->Next(&frame, &have).ok()) {
      loop->net->Close(conn);
      return false;
    }
    if (!have) return true;
    if (!conn->handshaken()) {
      server::Hello hello;
      if (frame.type != FrameType::kHello ||
          !server::DecodeHello(frame.body, frame.body_len, &hello).ok() ||
          hello.role != PeerRole::kClient) {
        loop->net->Close(conn);
        return false;
      }
      conn->set_handshaken();
      conn->set_peer(PeerRole::kClient);
      std::vector<uint8_t> ack;
      server::EncodeHelloAck(server::HelloAck{}, &ack);
      conn->EnqueueRaw(ack.data(), ack.size());
      loop->net->MarkDirty(conn);
      continue;
    }
    if (frame.type != FrameType::kRequest) {
      loop->net->Close(conn);
      return false;
    }
    RouteRequest(loop, conn, conn->AdmitRequest(), frame);
  }
}

void ShardRouter::ReplyError(RouterLoop* loop, server::Connection* conn,
                             uint64_t ticket, uint64_t request_id,
                             StatusCode code) {
  conn->Complete(ticket, EncodeReply(request_id, code, 0));
  loop->net->FlushReplies(conn);
}

// --- Routing -------------------------------------------------------------

void ShardRouter::RouteRequest(RouterLoop* loop, server::Connection* conn,
                               uint64_t ticket, const server::Frame& frame) {
  server::RequestView request;
  if (!server::DecodeRequestView(frame.body, frame.body_len, &request).ok()) {
    // Let a real engine produce the error response so clients see exactly
    // what a direct connection would have said.
    StageForward(loop, conn, ticket, 0, frame, 0);
    return;
  }
  const uint32_t num_shards = this->num_shards();
  server::WireReader args(request.args, request.args_len);
  if (request.proc_id == server::kKvGet || request.proc_id == server::kKvPut) {
    uint64_t key;
    const uint32_t target =
        args.GetU64(&key) ? server::KvShardOf(key, num_shards) : 0;
    StageForward(loop, conn, ticket, target, frame, request.request_id);
    return;
  }
  if (request.proc_id != server::kKvRmw) {
    StageForward(loop, conn, ticket, 0, frame, request.request_id);
    return;
  }
  uint16_t nkeys = 0;
  if (!args.GetU16(&nkeys) || nkeys == 0 ||
      args.remaining() != nkeys * sizeof(uint64_t)) {
    StageForward(loop, conn, ticket, 0, frame, request.request_id);
    return;
  }
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  uint32_t shards_touched = 0;
  uint32_t single = 0;
  for (uint16_t i = 0; i < nkeys; ++i) {
    uint64_t key;
    NEXT700_CHECK(args.GetU64(&key));
    const uint32_t shard = server::KvShardOf(key, num_shards);
    if (shard_keys[shard].empty()) {
      ++shards_touched;
      single = shard;
    }
    shard_keys[shard].push_back(key);
  }
  if (shards_touched == 1) {
    StageForward(loop, conn, ticket, single, frame, request.request_id);
    return;
  }
  // Cross-shard: loop 0 runs the 2PC; the reply comes back through this
  // loop's inbox and the session's reorder buffer slots it into order.
  CrossShardJob job{conn->id(), ticket, request.request_id,
                    std::move(shard_keys)};
  RouterLoop* coordinator = loops_[0].get();
  auto start = [this, coordinator, job = std::move(job)]() mutable {
    coordinator->waiting.push_back(std::move(job));
    StartWaiting(coordinator);
  };
  if (loop == coordinator) {
    start();
  } else {
    coordinator->net->Post(std::move(start));
  }
}

void ShardRouter::StageForward(RouterLoop* loop, server::Connection* conn,
                               uint64_t ticket, uint32_t shard_id,
                               const server::Frame& frame,
                               uint64_t request_id) {
  ShardLink* link = loop->links[shard_id].get();
  if (link->state != ShardLink::State::kUp) {
    // The client survives; only this request fails. Accepting forwards on
    // a link mid-handshake would interleave them ahead of the in-doubt
    // decisions and break reply pairing.
    ReplyError(loop, conn, ticket, request_id, StatusCode::kUnavailable);
    return;
  }
  std::vector<uint8_t> bytes;
  AppendFrame(frame.type, frame.body, frame.body_len, &bytes);
  // Every forward staged on this link within one reap batch rides the
  // same gather write — the fast path's syscall budget.
  link->Send(loop->net, bytes,
             Expectation{Kind::kForward, false, 0, conn->id(), ticket,
                         request_id});
  stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
}

// --- Shard links ---------------------------------------------------------

bool ShardRouter::DrainLinkFrames(RouterLoop* loop, ShardLink* link) {
  for (;;) {
    server::Frame frame;
    bool have = false;
    if (!link->conn->decoder()->Next(&frame, &have).ok() ||
        (have && !HandleLinkFrame(loop, link, frame))) {
      loop->net->Close(link->conn);
      return false;
    }
    if (!have) return true;
  }
}

bool ShardRouter::HandleLinkFrame(RouterLoop* loop, ShardLink* link,
                                  const server::Frame& frame) {
  if (link->state == ShardLink::State::kHello) {
    server::HelloAck ack;
    if (frame.type != FrameType::kHelloAck ||
        !server::DecodeHelloAck(frame.body, frame.body_len, &ack).ok()) {
      return false;
    }
    link->state = ShardLink::State::kResolve;
    return true;
  }
  if (link->resolve_pending < 0) {
    // The frame after the HelloAck answers the in-doubt query.
    server::InDoubtList list;
    if (frame.type != FrameType::kInDoubtList ||
        !server::DecodeInDoubtList(frame.body, frame.body_len, &list).ok()) {
      return false;
    }
    // Answer it with one decision per gtid this loop may decide.
    std::vector<uint8_t> enc;
    link->resolve_pending = 0;
    for (const uint64_t gtid : list.gtids) {
      bool commit = false;
      if (!ClassifyInDoubt(loop, gtid, &commit)) continue;
      server::Decision decision;
      decision.gtid = gtid;
      enc.clear();
      server::EncodeDecision(
          commit ? FrameType::kCommitDecision : FrameType::kAbortDecision,
          decision, &enc);
      link->Send(loop->net, enc, Expectation{Kind::kAck, true, gtid});
      ++link->resolve_pending;
    }
    if (link->resolve_pending == 0) LinkUp(loop, link);
    return true;
  }
  // Everything else pairs with the expectation deque. Check before
  // popping: a mismatch closes the link, and the teardown must still see
  // the expectation it failed.
  if (link->expect.empty()) return false;
  const Expectation e = link->expect.front();
  switch (e.kind) {
    case Kind::kForward: {
      if (frame.type != FrameType::kResponse) return false;
      link->expect.pop_front();
      server::Connection* session = loop->net->Find(e.session_id);
      if (session == nullptr) return true;  // Session already closed.
      std::vector<uint8_t> out;
      AppendFrame(frame.type, frame.body, frame.body_len, &out);
      session->Complete(e.ticket, std::move(out));
      loop->net->FlushReplies(session);
      return true;
    }
    case Kind::kVote: {
      server::Vote vote;
      if (frame.type != FrameType::kVote ||
          !server::DecodeVote(frame.body, frame.body_len, &vote).ok() ||
          vote.gtid != e.gtid) {
        return false;
      }
      link->expect.pop_front();
      OnVote(loop, link->shard_id, e.gtid, vote.status);
      return true;
    }
    case Kind::kAck: {
      server::DecisionAck ack;
      if (frame.type != FrameType::kDecisionAck ||
          !server::DecodeDecisionAck(frame.body, frame.body_len, &ack).ok() ||
          ack.gtid != e.gtid) {
        return false;
      }
      link->expect.pop_front();
      OnDecisionAck(loop, link->shard_id, e.gtid, /*acked=*/true);
      if (e.sweep) {
        stats_.resolved_in_doubt.fetch_add(1, std::memory_order_relaxed);
        if (--link->resolve_pending == 0) LinkUp(loop, link);
      }
      return true;
    }
  }
  return false;
}

bool ShardRouter::ClassifyInDoubt(const RouterLoop* loop, uint64_t gtid,
                                  bool* commit) const {
  *commit = scanned_commits_.count(gtid) != 0;
  if (*commit || gtid < gtid_base_) return true;  // Presumed abort below.
  // This incarnation's gtid: only loop 0 knows its fate.
  if (loop->index != 0) return false;
  if (loop->unacked.count(gtid) != 0) {
    *commit = true;
    return true;
  }
  // A gtid still in 2PC that may commit gets its decision from its own
  // state machine (this link counts as up for it); a doomed or forgotten
  // one is aborted. A branch this sweep sees lost its vote with an earlier
  // link unless the vote already arrived, so no gtid is aborted here while
  // its commit can still become durable.
  const auto it = loop->txns.find(gtid);
  return it == loop->txns.end() || it->second.fail_code != StatusCode::kOk;
}

void ShardRouter::LinkUp(RouterLoop* loop, ShardLink* link) {
  link->state = ShardLink::State::kUp;
  loop->net->PeerUp(link->shard_id);
  {
    MutexLock lock(&shards_mu_);
    ++links_up_;
  }
  shards_cv_.NotifyAll();
}

void ShardRouter::TeardownLink(RouterLoop* loop, ShardLink* link) {
  if (link->state == ShardLink::State::kUp) {
    MutexLock lock(&shards_mu_);
    --links_up_;
  }
  link->conn = nullptr;
  std::deque<Expectation> orphans;
  orphans.swap(link->expect);
  link->resolve_pending = -1;
  link->state = ShardLink::State::kDown;
  for (const Expectation& e : orphans) {
    switch (e.kind) {
      case Kind::kForward:
        if (server::Connection* session = loop->net->Find(e.session_id)) {
          ReplyError(loop, session, e.ticket, e.request_id,
                     StatusCode::kUnavailable);
        }
        break;
      case Kind::kVote:
        OnVote(loop, link->shard_id, e.gtid, StatusCode::kUnavailable);
        break;
      case Kind::kAck:
        // A lost commit stays in `unacked`: the redial sweep delivers it.
        if (!e.sweep) OnDecisionAck(loop, link->shard_id, e.gtid, false);
        break;
    }
  }
}

// --- Cross-shard 2PC (loop 0) ---------------------------------------------

void ShardRouter::StartWaiting(RouterLoop* loop) {
  const size_t cap =
      static_cast<size_t>(std::max(1, options_.coordinator_threads));
  while (loop->txns.size() < cap && !loop->waiting.empty()) {
    CrossShardJob next = std::move(loop->waiting.front());
    loop->waiting.pop_front();
    StartCrossShard(loop, std::move(next));
  }
}

void ShardRouter::StartCrossShard(RouterLoop* loop, CrossShardJob job) {
  // Like a forward to a down link (or to a stopping router): fail now,
  // before anything prepares.
  bool startable = !stop_.load(std::memory_order_acquire);
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    startable &= job.shard_keys[shard].empty() ||
                 loop->links[shard]->state == ShardLink::State::kUp;
  }
  if (!startable) {
    stats_.cross_shard_aborts.fetch_add(1, std::memory_order_relaxed);
    ReplyCrossShard(loop, job, StatusCode::kUnavailable, 0);
    return;
  }
  const uint64_t gtid = gtid_base_ + loop->gtids_issued++;
  CrossShardTxn& txn = loop->txns[gtid];
  txn.gtid = gtid;
  txn.await.assign(num_shards(), CrossShardTxn::Await::kNothing);
  txn.deadline_ms =
      MonotonicMs() + static_cast<uint64_t>(options_.vote_timeout_ms);
  // Phase one: one Prepare per participating shard, carrying that shard's
  // slice of the key set (kKvRmw argument encoding) and the global
  // partition ids those keys map to.
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    const std::vector<uint64_t>& keys = job.shard_keys[shard];
    if (keys.empty()) continue;
    server::Prepare prepare;
    prepare.gtid = gtid;
    prepare.proc_id = server::kKvRmw;
    for (const uint64_t key : keys) {
      prepare.partitions.push_back(
          server::KvPartitionOf(key, options_.num_partitions));
    }
    std::sort(prepare.partitions.begin(), prepare.partitions.end());
    prepare.partitions.erase(
        std::unique(prepare.partitions.begin(), prepare.partitions.end()),
        prepare.partitions.end());
    server::WireWriter args(&prepare.args);
    args.PutU16(static_cast<uint16_t>(keys.size()));
    for (const uint64_t key : keys) args.PutU64(key);
    std::vector<uint8_t> bytes;
    server::EncodePrepare(prepare, &bytes);
    loop->links[shard]->Send(loop->net, bytes,
                             Expectation{Kind::kVote, false, gtid});
    txn.await[shard] = CrossShardTxn::Await::kVote;
  }
  txn.job = std::move(job);
}

void ShardRouter::OnVote(RouterLoop* loop, uint32_t shard_id, uint64_t gtid,
                         StatusCode status) {
  const auto it = loop->txns.find(gtid);
  if (it == loop->txns.end() ||
      it->second.await[shard_id] != CrossShardTxn::Await::kVote) {
    return;
  }
  CrossShardTxn& txn = it->second;
  txn.await[shard_id] = CrossShardTxn::Await::kNothing;
  if (status == StatusCode::kOk) {
    txn.yes_shards.push_back(shard_id);
  } else if (txn.fail_code == StatusCode::kOk) {
    txn.fail_code = status;
  }
  if (txn.Awaiting(CrossShardTxn::Await::kVote)) return;
  if (gtid - gtid_base_ + 1 == options_.crash_after_prepares_sent) {
    // Coordinator crash window: every prepare reached its shard, no
    // decision is logged; recovery must presume abort, losing nothing acked.
    std::fflush(nullptr);
    ::_exit(42);
  }
  if (txn.fail_code != StatusCode::kOk) {
    SendDecisions(loop, &txn, /*commit=*/false);
    return;
  }
  // The commit point: the decision is durable in the coordinator log
  // before any reply or decision frame leaves this process. Aborts are
  // never logged (presumed abort). The log's durable callback wakes this
  // loop into CheckDecisionLog; a log whose device already failed never
  // calls back again, so check once now.
  uint8_t decision_body[8];
  server::StoreLE64(gtid, decision_body);
  txn.decision_lsn = decision_log_->Append(
      LogRecordType::kCoordDecision, decision_body, sizeof(decision_body));
  txn.phase = CrossShardTxn::Phase::kLogging;
  CheckDecisionLog(loop);
}

void ShardRouter::CheckDecisionLog(RouterLoop* loop) {
  std::vector<uint64_t> logging;
  for (const auto& [gtid, txn] : loop->txns) {
    if (txn.phase == CrossShardTxn::Phase::kLogging) logging.push_back(gtid);
  }
  if (logging.empty()) return;
  // Status first: after a device error durable_lsn never moves again, so
  // a record not durable by then never will be.
  const Status io = decision_log_->io_status();
  const Lsn durable = decision_log_->durable_lsn();
  for (const uint64_t gtid : logging) {
    CrossShardTxn& txn = loop->txns.at(gtid);
    if (txn.decision_lsn <= durable) {
      loop->unacked[gtid] = txn.yes_shards;
      stats_.commits_unacked.store(loop->unacked.size(),
                                   std::memory_order_relaxed);
      SendDecisions(loop, &txn, /*commit=*/true);
    } else if (!io.ok()) {
      // The decision log lost its device: no commit point, so abort.
      txn.fail_code = io.code();
      SendDecisions(loop, &txn, /*commit=*/false);
    }
  }
}

void ShardRouter::SendDecisions(RouterLoop* loop, CrossShardTxn* txn,
                                bool commit) {
  // Phase two: decisions to every yes-voter (parked until told; a no-voter
  // already rolled back) and to any shard still owing its vote (Stop() cut
  // voting short; a shard acks an abort that beats its vote). Acks are
  // awaited (bounded) so a commit is visible on every participant before
  // the client hears of it; a down link's redial sweep delivers its share.
  txn->phase = CrossShardTxn::Phase::kAcking;
  txn->deadline_ms =
      MonotonicMs() + static_cast<uint64_t>(options_.ack_timeout_ms);
  server::Decision decision;
  decision.gtid = txn->gtid;
  std::vector<uint8_t> bytes;
  server::EncodeDecision(
      commit ? FrameType::kCommitDecision : FrameType::kAbortDecision,
      decision, &bytes);
  std::vector<uint32_t> targets = txn->yes_shards;
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    if (txn->await[shard] == CrossShardTxn::Await::kVote) {
      targets.push_back(shard);
    }
  }
  for (const uint32_t shard : targets) {
    ShardLink* link = loop->links[shard].get();
    if (link->conn == nullptr) continue;
    link->Send(loop->net, bytes,
               Expectation{Kind::kAck, false, txn->gtid});
    txn->await[shard] = CrossShardTxn::Await::kAck;
  }
  if (!txn->Awaiting(CrossShardTxn::Await::kAck)) {
    FinishCrossShard(loop, txn->gtid);
  }
}

void ShardRouter::OnDecisionAck(RouterLoop* loop, uint32_t shard_id,
                                uint64_t gtid, bool acked) {
  const auto unacked = loop->unacked.find(gtid);
  if (acked && unacked != loop->unacked.end()) {
    std::vector<uint32_t>& shards = unacked->second;
    shards.erase(std::remove(shards.begin(), shards.end(), shard_id),
                 shards.end());
    if (shards.empty()) {
      // Presumed abort lets the coordinator forget a commit every
      // participant has acknowledged.
      loop->unacked.erase(unacked);
      stats_.commits_unacked.store(loop->unacked.size(),
                                   std::memory_order_relaxed);
    }
  }
  const auto it = loop->txns.find(gtid);
  if (it == loop->txns.end() ||
      it->second.await[shard_id] != CrossShardTxn::Await::kAck) {
    return;
  }
  it->second.await[shard_id] = CrossShardTxn::Await::kNothing;
  if (!it->second.Awaiting(CrossShardTxn::Await::kAck)) {
    FinishCrossShard(loop, gtid);
  }
}

void ShardRouter::FinishCrossShard(RouterLoop* loop, uint64_t gtid) {
  const auto it = loop->txns.find(gtid);
  const CrossShardTxn txn = std::move(it->second);
  loop->txns.erase(it);
  if (txn.fail_code == StatusCode::kOk) {
    stats_.cross_shard_commits.fetch_add(1, std::memory_order_relaxed);
    ReplyCrossShard(loop, txn.job, StatusCode::kOk, txn.decision_lsn);
  } else {
    stats_.cross_shard_aborts.fetch_add(1, std::memory_order_relaxed);
    ReplyCrossShard(loop, txn.job, txn.fail_code, 0);
  }
  StartWaiting(loop);
}

uint64_t ShardRouter::RunCrossShardTimers(RouterLoop* loop, uint64_t now_ms) {
  // Stop(): every transaction still voting aborts now, over its links;
  // logged ones finish as usual, and Stop() waits for the last.
  const bool stopping = stop_.load(std::memory_order_acquire);
  std::vector<uint64_t> due;
  for (const auto& [gtid, txn] : loop->txns) {
    if ((stopping && txn.phase == CrossShardTxn::Phase::kVoting) ||
        (txn.phase != CrossShardTxn::Phase::kLogging &&
         txn.deadline_ms <= now_ms)) {
      due.push_back(gtid);
    }
  }
  for (const uint64_t gtid : due) {
    auto it = loop->txns.find(gtid);
    if (it == loop->txns.end()) continue;
    if (stopping && it->second.phase == CrossShardTxn::Phase::kVoting) {
      if (it->second.fail_code == StatusCode::kOk) {
        it->second.fail_code = StatusCode::kUnavailable;
      }
      SendDecisions(loop, &it->second, /*commit=*/false);
      continue;
    }
    // An earlier expiry in this pass may have finished or re-armed it.
    if (it->second.deadline_ms > now_ms) continue;
    if (it->second.phase == CrossShardTxn::Phase::kAcking) {
      // The decision is durable; a straggler resolves through its link's
      // next in-doubt sweep.
      FinishCrossShard(loop, gtid);
      continue;
    }
    // Vote deadline: close every link still owing a vote. The stream owes
    // a frame and can no longer be paired, and the redial sweep is what
    // presume-aborts the orphaned branch. Each teardown fails the vote,
    // and the last one decides (abort).
    stats_.vote_timeouts.fetch_add(1, std::memory_order_relaxed);
    if (it->second.fail_code == StatusCode::kOk) {
      it->second.fail_code = StatusCode::kDeadlineExceeded;
    }
    for (uint32_t shard = 0; shard < num_shards(); ++shard) {
      it = loop->txns.find(gtid);
      if (it == loop->txns.end()) break;
      if (it->second.await[shard] == CrossShardTxn::Await::kVote) {
        loop->net->Close(loop->links[shard]->conn);
      }
    }
  }
  uint64_t next = UINT64_MAX;
  for (const auto& [gtid, txn] : loop->txns) {
    if (txn.phase != CrossShardTxn::Phase::kLogging) {
      next = std::min(next, txn.deadline_ms);
    }
  }
  if (stopping && loop->txns.empty()) {
    {
      MutexLock lock(&shards_mu_);
      xshard_drained_ = true;
    }
    shards_cv_.NotifyAll();
  }
  return next;
}

void ShardRouter::ReplyCrossShard(RouterLoop* loop, const CrossShardJob& job,
                                  StatusCode status, Lsn commit_lsn) {
  // Loops outlive every post: Stop() joins all loop threads before it
  // destroys any of them.
  server::EventLoop* net = group_->LoopOf(job.session_id);
  auto reply = [net, session_id = job.session_id, ticket = job.ticket,
                encoded = EncodeReply(job.request_id, status,
                                      commit_lsn)]() mutable {
    server::Connection* conn = net->Find(session_id);
    if (conn == nullptr) return;  // The session died mid-2PC.
    conn->Complete(ticket, std::move(encoded));
    net->FlushReplies(conn);
  };
  if (net == loop->net) {
    reply();
  } else {
    net->Post(std::move(reply));
  }
}

}  // namespace shard
}  // namespace next700
