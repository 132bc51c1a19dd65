#include "shard/shard_router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/macros.h"
#include "log/recovery.h"
#include "server/procs.h"

namespace next700 {
namespace shard {

using server::FrameType;
using server::PeerRole;

namespace {

/// Shard-link reconnect backoff (jittered doubling).
constexpr uint64_t kLinkBackoffMinMs = 20;
constexpr uint64_t kLinkBackoffMaxMs = 1000;

/// Wall-clock nanoseconds — deliberately not the monotonic clock: gtids
/// must stay unique across router restarts, and the monotonic epoch resets
/// at boot.
uint64_t WallNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t MonotonicMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

bool ParseHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  *host = addr.substr(0, colon);
  const long p = std::strtol(addr.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

uint32_t ResolveNumLoops(int requested) {
  if (requested > 0) return static_cast<uint32_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw / 2));
}

}  // namespace

/// One forwarding connection from an event loop to a shard server. The
/// owning loop is the only thread that touches it; the state machine runs
/// off read/write completions. A link accepts forwards only in kUp (after
/// handshake + in-doubt resolution); anything staged while down answers
/// kUnavailable immediately, which keeps the reply stream strictly
/// pairable against the expectation deque.
struct ShardRouter::ShardLink {
  enum class State : uint8_t {
    kDown,     // No connection; retry at retry_deadline_ms.
    kHello,    // Connect + Hello + InDoubtQuery sent; awaiting HelloAck.
    kResolve,  // Awaiting the in-doubt list, then its decision acks.
    kUp,       // Forwarding.
  };

  uint32_t shard_id = 0;
  State state = State::kDown;
  /// The framed transport, owned by the loop's connection table; null
  /// while kDown. A fresh Connection (and a fresh id) per connect attempt
  /// keeps stale completions from a dead socket unroutable.
  server::Connection* conn = nullptr;
  /// FIFO of what each kUp reply frame answers (shard servers reply in
  /// per-connection request order).
  std::deque<Expectation> expect;
  /// Decision acks still owed from in-doubt resolution; -1 until the list
  /// arrives.
  int resolve_pending = -1;
  uint64_t retry_deadline_ms = 0;
  uint64_t backoff_ms = 0;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
};

/// One event-loop thread: a connection loop holding every session and
/// shard link it owns, and the hooks that give them their protocol. Only
/// the owning thread touches anything outside `mu`; other threads reach in
/// through the inbox + Wakeup.
struct ShardRouter::RouterLoop : server::EventLoop::Handler {
  ShardRouter* router = nullptr;
  uint32_t index = 0;
  std::unique_ptr<server::EventLoop> net;
  std::vector<std::unique_ptr<ShardLink>> links;  // index == shard id

  // Cross-thread inbox, drained on Op::kWakeup.
  Mutex mu;
  std::vector<int> pending_fds GUARDED_BY(mu);
  std::vector<CoordinatorResult> pending_results GUARDED_BY(mu);

  /// The link `conn` belongs to, or null for a client session.
  ShardLink* LinkOf(const server::Connection* conn) const {
    for (const auto& link : links) {
      if (link->conn == conn) return link.get();
    }
    return nullptr;
  }

  /// Loop 0's accepts, round-robined across loops.
  void OnAccept(int fd) override;
  bool OnFrames(server::Connection* conn) override {
    if (ShardLink* link = LinkOf(conn)) {
      return router->DrainLinkFrames(this, link);
    }
    return router->DrainSessionFrames(this, conn);
  }
  bool OnPeerEof(server::Connection* conn) override {
    if (LinkOf(conn) == nullptr) return true;  // A session drains.
    net->Close(conn);  // The shard hung up.
    return false;
  }
  void OnClosed(server::Connection* conn) override {
    if (ShardLink* link = LinkOf(conn)) {
      router->TeardownLink(this, link);
      return;
    }
    // Link expectations and in-flight coordinator jobs that still name this
    // session id resolve to nothing at lookup time — no dangling state.
    router->stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  /// Adopts handed-over sessions and slots in finished 2PC replies.
  void OnWakeup() override;
  /// Redials every down link whose backoff expired; returns the earliest
  /// remaining retry deadline (UINT64_MAX when every link is connected).
  uint64_t RunTimers(uint64_t now_ms) override;
};

/// One blocking 2PC coordinator thread with its own shard connections
/// (lazily connected; each connect runs the in-doubt sweep first).
struct ShardRouter::Coordinator {
  std::thread thread;
  std::vector<std::unique_ptr<server::Client>> clients;  // index == shard id
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
  struct stat st;
  if (::stat(options_.log_dir.c_str(), &st) == 0) {
    std::vector<uint64_t> committed;
    NEXT700_RETURN_IF_ERROR(
        ScanCoordinatorDecisions(options_.log_dir, &committed));
    MutexLock lock(&committed_mu_);
    committed_.insert(committed.begin(), committed.end());
  }
  LogManagerOptions log_options;
  log_options.dir = options_.log_dir;
  log_options.sync_policy = LogSyncPolicy::kFdatasync;
  decision_log_ = std::make_unique<LogManager>(log_options);
  NEXT700_RETURN_IF_ERROR(decision_log_->Open());

  for (size_t i = 0; i < options_.shards.size(); ++i) {
    std::string host;
    uint16_t shard_port = 0;
    if (!ParseHostPort(options_.shards[i], &host, &shard_port)) {
      return Status::InvalidArgument("bad shard address: " +
                                     options_.shards[i]);
    }
    shard_addrs_.emplace_back(std::move(host), shard_port);
  }

  // Event loops (and their backends) before the listen socket so a
  // backend-creation failure (kUring on an old kernel) leaks nothing.
  const uint32_t nloops = ResolveNumLoops(options_.num_loops);
  for (uint32_t i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<RouterLoop>();
    loop->router = this;
    loop->index = i;
    NEXT700_RETURN_IF_ERROR(server::EventLoop::Create(
        options_.io_backend, loop.get(), &stats_, &loop->net));
    for (uint32_t s = 0; s < num_shards(); ++s) {
      auto link = std::make_unique<ShardLink>();
      link->shard_id = s;
      link->rng ^= i * 2654435761ull + s + 1;
      loop->links.push_back(std::move(link));
    }
    loops_.push_back(std::move(loop));
  }
  // Loop 0 owns the listener.
  NEXT700_RETURN_IF_ERROR(
      loops_[0]->net->Listen(options_.listen_host, options_.listen_port));
  port_ = loops_[0]->net->port();

  stop_.store(false, std::memory_order_release);
  {
    MutexLock lock(&shards_mu_);
    links_up_ = 0;
  }
  {
    MutexLock lock(&jobs_mu_);
    jobs_stopped_ = false;
  }
  const int ncoord = std::max(1, options_.coordinator_threads);
  for (int i = 0; i < ncoord; ++i) {
    auto coord = std::make_unique<Coordinator>();
    Coordinator* raw = coord.get();
    raw->thread = std::thread([this, raw] { CoordinatorRun(raw); });
    coordinators_.push_back(std::move(coord));
  }
  for (auto& loop : loops_) loop->net->Start();
  running_ = true;
  return Status::OK();
}

void ShardRouter::Stop() {
  if (loops_.empty() && coordinators_.empty()) {
    if (decision_log_ != nullptr) decision_log_->Close();
    return;
  }
  stop_.store(true, std::memory_order_release);

  // Coordinators first: they post into loop inboxes and Wakeup loop
  // backends, so the loops (and their backends) must outlive them.
  {
    MutexLock lock(&jobs_mu_);
    jobs_stopped_ = true;
  }
  jobs_cv_.NotifyAll();
  for (auto& coord : coordinators_) {
    if (coord->thread.joinable()) coord->thread.join();
  }

  for (auto& loop : loops_) loop->net->Stop();
  {
    MutexLock lock(&shards_mu_);
  }
  shards_cv_.NotifyAll();  // Unpark WaitShardsConnected; it observes stop_.

  // Loop threads are joined: this thread owns their state now.
  for (auto& loop : loops_) {
    for (const auto& [id, conn] : loop->net->connections()) {
      (void)id;
      if (loop->LinkOf(conn.get()) == nullptr) {
        stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    {
      MutexLock lock(&loop->mu);
      for (const int fd : loop->pending_fds) ::close(fd);
      loop->pending_fds.clear();
      loop->pending_results.clear();
    }
    io_syscalls_retired_.fetch_add(
        loop->net->io().counters().syscalls.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  loops_.clear();  // Closes every session, link and the listener.
  coordinators_.clear();
  if (decision_log_ != nullptr) decision_log_->Close();
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
  for (const auto& loop : loops_) {
    total += loop->net->io().counters().syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

// --- Event loop hooks ---------------------------------------------------

uint64_t ShardRouter::RouterLoop::RunTimers(uint64_t now_ms) {
  uint64_t next = UINT64_MAX;
  for (auto& link : links) {
    if (link->state != ShardLink::State::kDown) continue;
    if (link->retry_deadline_ms <= now_ms) {
      router->StartConnectLink(this, link.get());
    }
    if (link->state == ShardLink::State::kDown) {
      next = std::min(next, link->retry_deadline_ms);
    }
  }
  return next;
}

void ShardRouter::RouterLoop::OnWakeup() {
  std::vector<int> fds;
  std::vector<CoordinatorResult> results;
  {
    MutexLock lock(&mu);
    fds.swap(pending_fds);
    results.swap(pending_results);
  }
  for (const int fd : fds) {
    router->stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    net->Adopt(fd);
  }
  for (CoordinatorResult& result : results) {
    server::Connection* conn = net->Find(result.session_id);
    if (conn == nullptr) continue;  // Session died mid-2PC.
    conn->Complete(result.ticket, std::move(result.encoded));
    net->FlushReplies(conn);
  }
}

void ShardRouter::RouterLoop::OnAccept(int fd) {
  const uint32_t target_index =
      router->accept_rr_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(router->loops_.size());
  RouterLoop* target = router->loops_[target_index].get();
  if (target == this) {
    router->stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    net->Adopt(fd);
    return;
  }
  {
    MutexLock lock(&target->mu);
    target->pending_fds.push_back(fd);
  }
  target->net->Wakeup();
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
  server::Response response;
  response.request_id = request_id;
  response.status = code;
  std::vector<uint8_t> encoded;
  server::EncodeResponse(response, &encoded);
  conn->Complete(ticket, std::move(encoded));
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
  // Cross-shard: hand the 2PC run to the coordinator pool — the event loop
  // never blocks on votes. The reply comes back through this loop's inbox
  // and the session's reorder buffer slots it into request order.
  CrossShardJob job;
  job.loop_index = loop->index;
  job.session_id = conn->id();
  job.ticket = ticket;
  job.request_id = request.request_id;
  job.shard_keys = std::move(shard_keys);
  bool queued = false;
  {
    MutexLock lock(&jobs_mu_);
    if (!jobs_stopped_) {
      jobs_.push_back(std::move(job));
      queued = true;
    }
  }
  if (queued) {
    jobs_cv_.NotifyOne();
  } else {
    ReplyError(loop, conn, ticket, request.request_id,
               StatusCode::kUnavailable);
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
  link->conn->EnqueueRaw(bytes.data(), bytes.size());
  Expectation expectation;
  expectation.session_id = conn->id();
  expectation.ticket = ticket;
  expectation.request_id = request_id;
  link->expect.push_back(expectation);
  // Every forward staged on this link within one reap batch rides the
  // same gather write — the fast path's syscall budget.
  loop->net->MarkDirty(link->conn);
  stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
}

// --- Shard links ---------------------------------------------------------

void ShardRouter::StartConnectLink(RouterLoop* loop, ShardLink* link) {
  const auto& [host, shard_port] = shard_addrs_[link->shard_id];
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    TeardownLink(loop, link);
    return;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(shard_port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    TeardownLink(loop, link);
    return;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    TeardownLink(loop, link);
    return;
  }
  link->conn = loop->net->AddOutbound(fd);
  link->state = ShardLink::State::kHello;
  link->resolve_pending = -1;
  // Queue the handshake + in-doubt query now; the backend parks the writev
  // until the (possibly still in-progress) connect makes the socket
  // writable, and a failed connect surfaces as the write error. The read
  // is armed off the first write completion.
  std::vector<uint8_t> bytes;
  server::Hello hello;
  hello.role = PeerRole::kCoordinator;
  server::EncodeHello(hello, &bytes);
  server::EncodeInDoubtQuery(&bytes);
  link->conn->EnqueueRaw(bytes.data(), bytes.size());
  loop->net->MarkDirty(link->conn);
}

bool ShardRouter::DrainLinkFrames(RouterLoop* loop, ShardLink* link) {
  for (;;) {
    server::Frame frame;
    bool have = false;
    if (!link->conn->decoder()->Next(&frame, &have).ok()) {
      loop->net->Close(link->conn);
      return false;
    }
    if (!have) return true;
    const std::vector<uint8_t> body(frame.body, frame.body + frame.body_len);
    bool alive;
    if (link->state == ShardLink::State::kUp) {
      alive = HandleLinkForwardReply(loop, link, frame.type, body);
    } else {
      alive = HandleLinkHandshakeFrame(loop, link, frame.type, body);
    }
    if (!alive) return false;
  }
}

bool ShardRouter::HandleLinkHandshakeFrame(RouterLoop* loop, ShardLink* link,
                                           FrameType type,
                                           const std::vector<uint8_t>& body) {
  if (link->state == ShardLink::State::kHello) {
    server::HelloAck ack;
    if (type != FrameType::kHelloAck ||
        !server::DecodeHelloAck(body.data(), body.size(), &ack).ok()) {
      loop->net->Close(link->conn);
      return false;
    }
    link->state = ShardLink::State::kResolve;
    return true;
  }
  NEXT700_CHECK(link->state == ShardLink::State::kResolve);
  if (link->resolve_pending < 0) {
    // First frame after the HelloAck answers the in-doubt query.
    server::InDoubtList list;
    if (type != FrameType::kInDoubtList ||
        !server::DecodeInDoubtList(body.data(), body.size(), &list).ok()) {
      loop->net->Close(link->conn);
      return false;
    }
    int sent = 0;
    std::vector<uint8_t> enc;
    for (const uint64_t gtid : list.gtids) {
      bool commit = false;
      bool skip = false;
      ClassifyInDoubt(gtid, &commit, &skip);
      if (skip) continue;  // A live coordinator thread owns this outcome.
      server::Decision decision;
      decision.gtid = gtid;
      enc.clear();
      server::EncodeDecision(commit ? FrameType::kCommitDecision
                                    : FrameType::kAbortDecision,
                             decision, &enc);
      link->conn->EnqueueRaw(enc.data(), enc.size());
      ++sent;
    }
    link->resolve_pending = sent;
    if (sent == 0) {
      LinkUp(link);
      return true;
    }
    loop->net->MarkDirty(link->conn);
    return true;
  }
  server::DecisionAck ack;
  if (type != FrameType::kDecisionAck ||
      !server::DecodeDecisionAck(body.data(), body.size(), &ack).ok()) {
    loop->net->Close(link->conn);
    return false;
  }
  stats_.resolved_in_doubt.fetch_add(1, std::memory_order_relaxed);
  if (--link->resolve_pending == 0) LinkUp(link);
  return true;
}

bool ShardRouter::HandleLinkForwardReply(RouterLoop* loop, ShardLink* link,
                                         FrameType type,
                                         const std::vector<uint8_t>& body) {
  if (link->expect.empty() || type != FrameType::kResponse) {
    // A reply nothing asked for (or the wrong kind): the FIFO contract is
    // broken and the stream can no longer be paired up.
    loop->net->Close(link->conn);
    return false;
  }
  const Expectation e = link->expect.front();
  link->expect.pop_front();
  server::Connection* session = loop->net->Find(e.session_id);
  if (session == nullptr) return true;  // Session already closed.
  std::vector<uint8_t> out;
  AppendFrame(type, body.data(), body.size(), &out);
  session->Complete(e.ticket, std::move(out));
  loop->net->FlushReplies(session);
  return true;
}

void ShardRouter::LinkUp(ShardLink* link) {
  link->state = ShardLink::State::kUp;
  link->backoff_ms = 0;
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
  link->backoff_ms = link->backoff_ms == 0
                         ? kLinkBackoffMinMs
                         : std::min(link->backoff_ms * 2, kLinkBackoffMaxMs);
  const uint64_t half = link->backoff_ms / 2;
  link->retry_deadline_ms =
      MonotonicMs() + half + XorShift64(&link->rng) % (half + 1);
  for (const Expectation& e : orphans) {
    server::Connection* session = loop->net->Find(e.session_id);
    if (session == nullptr) continue;
    ReplyError(loop, session, e.ticket, e.request_id,
               StatusCode::kUnavailable);
  }
}

// --- Coordinator pool ----------------------------------------------------

void ShardRouter::CoordinatorRun(Coordinator* coord) {
  coord->clients.resize(num_shards());
  for (;;) {
    CrossShardJob job;
    {
      MutexLock lock(&jobs_mu_);
      while (jobs_.empty() && !jobs_stopped_) jobs_cv_.Wait(&jobs_mu_);
      if (jobs_stopped_) break;  // Queued jobs die with the sessions.
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    RunCrossShard(coord, job);
  }
  for (auto& client : coord->clients) {
    if (client != nullptr) client->Close();
  }
}

Status ShardRouter::RecvFrameSliced(server::Client* client, FrameType* type,
                                    std::vector<uint8_t>* body,
                                    int64_t deadline_ms) {
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      return Status::Unavailable("router stopping");
    }
    const uint64_t now = MonotonicMs();
    if (static_cast<int64_t>(now) >= deadline_ms) {
      return Status::DeadlineExceeded("frame wait timed out");
    }
    // Short slices keep Stop() prompt even mid-vote-wait.
    const int64_t slice =
        std::min<int64_t>(100, deadline_ms - static_cast<int64_t>(now));
    const Status s = client->RecvFrame(type, body, slice);
    if (!s.IsDeadlineExceeded()) return s;
  }
}

void ShardRouter::ClassifyInDoubt(uint64_t gtid, bool* commit, bool* skip) {
  MutexLock lock(&committed_mu_);
  *commit = committed_.count(gtid) != 0;
  // One critical section for both looks: a gtid that is neither committed
  // nor active is decidedly dead (presumed abort). Checking the two sets
  // under separate lock acquisitions would let a live transaction commit
  // between them and be wrongly aborted.
  *skip = !*commit && active_gtids_.count(gtid) != 0;
}

bool ShardRouter::EnsureShardClient(Coordinator* coord, uint32_t shard_id) {
  auto& client = coord->clients[shard_id];
  if (client == nullptr) client = std::make_unique<server::Client>();
  if (client->connected()) return true;
  if (stop_.load(std::memory_order_acquire)) return false;
  const auto& [host, shard_port] = shard_addrs_[shard_id];
  if (!client->Connect(host, shard_port, PeerRole::kCoordinator).ok()) {
    client->Close();
    return false;
  }
  // Resolve the shard's in-doubt backlog before using the connection; the
  // stream carries nothing else yet, so the replies are unambiguous. This
  // is also what un-parks a prepared branch orphaned by a vote timeout.
  if (!ResolveInDoubtOn(client.get()).ok()) {
    client->Close();
    return false;
  }
  return true;
}

Status ShardRouter::ResolveInDoubtOn(server::Client* client) {
  std::vector<uint8_t> enc;
  server::EncodeInDoubtQuery(&enc);
  NEXT700_RETURN_IF_ERROR(client->SendRaw(enc.data(), enc.size()));
  FrameType type;
  std::vector<uint8_t> body;
  NEXT700_RETURN_IF_ERROR(RecvFrameSliced(
      client, &type, &body, static_cast<int64_t>(MonotonicMs()) + 5000));
  if (type != FrameType::kInDoubtList) {
    return Status::InvalidArgument("shard answered in-doubt query with frame " +
                                   std::to_string(static_cast<int>(type)));
  }
  server::InDoubtList list;
  NEXT700_RETURN_IF_ERROR(
      server::DecodeInDoubtList(body.data(), body.size(), &list));
  for (const uint64_t gtid : list.gtids) {
    bool commit = false;
    bool skip = false;
    ClassifyInDoubt(gtid, &commit, &skip);
    if (skip) continue;  // A live coordinator thread owns this outcome.
    server::Decision decision;
    decision.gtid = gtid;
    enc.clear();
    server::EncodeDecision(
        commit ? FrameType::kCommitDecision : FrameType::kAbortDecision,
        decision, &enc);
    NEXT700_RETURN_IF_ERROR(client->SendRaw(enc.data(), enc.size()));
    NEXT700_RETURN_IF_ERROR(RecvFrameSliced(
        client, &type, &body, static_cast<int64_t>(MonotonicMs()) + 5000));
    server::DecisionAck ack;
    if (type != FrameType::kDecisionAck ||
        !server::DecodeDecisionAck(body.data(), body.size(), &ack).ok()) {
      return Status::InvalidArgument("bad decision ack during resolution");
    }
    stats_.resolved_in_doubt.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void ShardRouter::RunCrossShard(Coordinator* coord, const CrossShardJob& job) {
  const uint64_t gtid = NextGtid();
  {
    // Claim the gtid before any prepare leaves: a link's concurrent
    // in-doubt sweep must skip it, not presume abort.
    MutexLock lock(&committed_mu_);
    active_gtids_.insert(gtid);
  }

  std::vector<uint32_t> participants;
  for (uint32_t shard = 0; shard < job.shard_keys.size(); ++shard) {
    if (!job.shard_keys[shard].empty()) participants.push_back(shard);
  }

  // Phase one: one Prepare per participating shard, carrying that shard's
  // slice of the key set (kKvRmw argument encoding) and the global
  // partition ids those keys map to.
  bool any_no = false;
  StatusCode fail_code = StatusCode::kOk;
  std::vector<uint32_t> prepared;
  for (const uint32_t shard : participants) {
    if (!EnsureShardClient(coord, shard)) {
      any_no = true;
      if (fail_code == StatusCode::kOk) fail_code = StatusCode::kUnavailable;
      continue;
    }
    const std::vector<uint64_t>& keys = job.shard_keys[shard];
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
    if (coord->clients[shard]->SendRaw(bytes.data(), bytes.size()).ok()) {
      prepared.push_back(shard);
    } else {
      coord->clients[shard]->Close();
      any_no = true;
      if (fail_code == StatusCode::kOk) fail_code = StatusCode::kUnavailable;
    }
  }

  if (options_.crash_after_prepares_sent > 0 && !prepared.empty() &&
      cross_shard_started_.fetch_add(1, std::memory_order_relaxed) + 1 ==
          options_.crash_after_prepares_sent) {
    // Coordinator crash window: prepares are out, the decision is not
    // logged. Participants are left in doubt; recovery must abort this
    // gtid (presumed abort) without losing anything acked.
    std::fflush(nullptr);
    ::_exit(42);
  }

  // Collect votes in send order under one absolute deadline (each client
  // is exclusively this thread's, so the per-connection FIFO pairs votes
  // with prepares). A client whose vote never arrived is closed — its
  // stream still owes a frame and could not be paired afterwards.
  const int64_t vote_deadline =
      static_cast<int64_t>(MonotonicMs()) + options_.vote_timeout_ms;
  std::vector<uint32_t> yes_shards;
  bool timed_out = false;
  for (const uint32_t shard : prepared) {
    FrameType type;
    std::vector<uint8_t> body;
    const Status s =
        RecvFrameSliced(coord->clients[shard].get(), &type, &body,
                        vote_deadline);
    if (!s.ok()) {
      coord->clients[shard]->Close();
      any_no = true;
      if (s.IsDeadlineExceeded()) timed_out = true;
      if (fail_code == StatusCode::kOk) {
        fail_code = s.IsDeadlineExceeded() ? StatusCode::kDeadlineExceeded
                                           : StatusCode::kUnavailable;
      }
      continue;
    }
    server::Vote vote;
    if (type != FrameType::kVote ||
        !server::DecodeVote(body.data(), body.size(), &vote).ok() ||
        vote.gtid != gtid) {
      coord->clients[shard]->Close();
      any_no = true;
      if (fail_code == StatusCode::kOk) fail_code = StatusCode::kUnavailable;
      continue;
    }
    if (vote.status == StatusCode::kOk) {
      yes_shards.push_back(shard);
    } else {
      any_no = true;
      if (fail_code == StatusCode::kOk) fail_code = vote.status;
    }
  }
  if (timed_out) {
    stats_.vote_timeouts.fetch_add(1, std::memory_order_relaxed);
  }

  bool commit = !any_no;
  uint64_t decision_lsn = 0;
  if (commit) {
    // The commit point: the decision is durable in the coordinator log
    // before any reply or decision frame leaves this process. Aborts are
    // never logged (presumed abort).
    uint8_t decision_body[8];
    server::StoreLE64(gtid, decision_body);
    decision_lsn = decision_log_->Append(LogRecordType::kCoordDecision,
                                         decision_body, sizeof(decision_body));
    const Status durable = decision_log_->WaitDurable(decision_lsn);
    if (!durable.ok()) {
      // Decision log device failure: we cannot claim the commit point, and
      // we must not commit without it. Abort instead.
      commit = false;
      fail_code = durable.code();
    } else {
      MutexLock lock(&committed_mu_);
      committed_.insert(gtid);
    }
  }

  // Phase two: decisions to every shard that voted yes (the others already
  // rolled back when they voted no — presumed abort needs no message, but
  // a yes-voter is parked until told). Acks are awaited (bounded) so a
  // committed transaction is visible on every participant before the
  // client hears about it; a straggler resolves through in-doubt recovery.
  server::Decision decision;
  decision.gtid = gtid;
  std::vector<uint8_t> decision_bytes;
  server::EncodeDecision(
      commit ? FrameType::kCommitDecision : FrameType::kAbortDecision,
      decision, &decision_bytes);
  const int64_t ack_deadline =
      static_cast<int64_t>(MonotonicMs()) + options_.ack_timeout_ms;
  for (const uint32_t shard : yes_shards) {
    server::Client* client = coord->clients[shard].get();
    if (!client->SendRaw(decision_bytes.data(), decision_bytes.size()).ok()) {
      client->Close();  // In-doubt recovery replays the decision later.
      continue;
    }
    FrameType type;
    std::vector<uint8_t> body;
    const Status s = RecvFrameSliced(client, &type, &body, ack_deadline);
    server::DecisionAck ack;
    if (!s.ok() || type != FrameType::kDecisionAck ||
        !server::DecodeDecisionAck(body.data(), body.size(), &ack).ok()) {
      client->Close();
      continue;
    }
  }

  {
    MutexLock lock(&committed_mu_);
    active_gtids_.erase(gtid);
  }

  // Reconnect (with in-doubt sweep) any participant we closed above: a
  // branch that voted yes after the deadline is parked prepared, and the
  // sweep's presumed abort is what unwinds it now rather than at the next
  // cross-shard transaction.
  if (!stop_.load(std::memory_order_acquire)) {
    for (const uint32_t shard : participants) {
      auto& client = coord->clients[shard];
      if (client != nullptr && client->connected()) continue;
      EnsureShardClient(coord, shard);  // Best effort.
    }
  }

  if (commit) {
    stats_.cross_shard_commits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.cross_shard_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  server::Response response;
  response.request_id = job.request_id;
  response.status = commit ? StatusCode::kOk
                           : (fail_code == StatusCode::kOk
                                  ? StatusCode::kAborted
                                  : fail_code);
  response.commit_lsn = decision_lsn;
  CoordinatorResult result;
  result.session_id = job.session_id;
  result.ticket = job.ticket;
  server::EncodeResponse(response, &result.encoded);
  PostResult(job.loop_index, std::move(result));
}

void ShardRouter::PostResult(uint32_t loop_index, CoordinatorResult result) {
  // Stop() joins the coordinator pool before the loops, so the target loop
  // and its backend are alive for the Wakeup even mid-shutdown.
  RouterLoop* loop = loops_[loop_index].get();
  {
    MutexLock lock(&loop->mu);
    loop->pending_results.push_back(std::move(result));
  }
  loop->net->Wakeup();
}

}  // namespace shard
}  // namespace next700
