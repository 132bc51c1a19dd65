#ifndef NEXT700_SHARD_SHARD_ROUTER_H_
#define NEXT700_SHARD_SHARD_ROUTER_H_

/// \file
/// Shard router / two-phase-commit coordinator: presents the ordinary
/// next700 wire protocol to clients and spreads the "kv" stored-procedure
/// suite across N independent engine processes (shards), each owning the
/// keys where key % N == shard_id.
///
/// Single-shard requests take the fast path: the router parses just enough
/// of the argument encoding to pick the owning shard, then forwards the
/// client's frame bytes verbatim — no coordinator state, no extra round
/// trip — and relays the shard's response back in per-connection request
/// order. Requests it cannot route (unknown proc id, malformed arguments)
/// go to shard 0 verbatim so error behavior matches a direct connection.
///
/// A kKvRmw whose keys span shards becomes a distributed transaction: the
/// router splits the key set per shard, drives Prepare against every
/// participant, and on unanimous yes votes hardens a kCoordDecision record
/// in its own durable log *before* releasing the client reply or any
/// commit decision (the decision is the commit point). Aborts are not
/// logged — the protocol is presumed-abort: a gtid absent from the
/// decision log did not commit. On (re)connecting to a shard the router
/// asks for the shard's in-doubt gtids and replays decisions from the log
/// scan, which is how participants that crashed after preparing get
/// resolved. A participant that misses its vote deadline is aborted
/// (breaking the cross-shard deadlock of parked prepared transactions).
///
/// Threading: the session tier is N server::EventLoop threads — the
/// connection loop the server uses (event_loop.h). Loop 0 owns the
/// listener and round-robins accepted sockets across loops; each loop owns
/// its share of client sessions plus one *forwarding connection per shard*,
/// all in its one connection table. The fast path never leaves its loop:
/// forwards staged across one read burst go out with one gather write per
/// shard link, forward replies pair with a per-link FIFO expectation
/// deque, and the per-session ticket reorder buffer releases client
/// responses in request order. Shard links reconnect with jittered backoff
/// driven by the loop's reap timeout (never a blind sleep), and a link
/// resolves the shard's in-doubt backlog before accepting forwards.
///
/// Cross-shard 2PC runs on a small dedicated coordinator pool — blocking
/// threads with their own shard connections — so event loops never block
/// on votes; the finished reply is posted back to the owning loop through
/// its inbox + Wakeup, and the session's reorder buffer slots it into
/// order. A shared (committed, active) gtid map keeps a reconnecting
/// link's in-doubt sweep from aborting a transaction a coordinator thread
/// is still driving. Stop() is prompt: every blocking wait is sliced
/// against stop_, and WaitShardsConnected parks on a condvar with a
/// deadline rather than a poll loop.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "log/log_manager.h"
#include "server/client.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "server/protocol.h"

namespace next700 {
namespace shard {

struct ShardRouterOptions {
  std::string listen_host = "127.0.0.1";
  /// 0 = kernel-assigned; read the bound port back with port().
  uint16_t listen_port = 0;
  /// One "host:port" per shard; position in the vector is the shard id.
  std::vector<std::string> shards;
  /// The *global* partition count every shard's engine was configured
  /// with. Forwarded frames carry global partition ids verbatim; prepare
  /// frames derive their per-shard partition sets from this.
  uint32_t num_partitions = 8;
  /// Directory of the coordinator decision log. Commit decisions are
  /// durable here before any reply or decision leaves the router.
  std::string log_dir;
  /// How long the coordinator waits for votes before presuming abort.
  int64_t vote_timeout_ms = 5000;
  /// How long the coordinator waits for decision acks before replying
  /// anyway (the decision is already durable; a slow participant resolves
  /// through in-doubt recovery).
  int64_t ack_timeout_ms = 5000;
  /// Crash hook: _exit(42) right after the prepares of the Nth cross-shard
  /// transaction hit the wire — before the decision is logged. The
  /// crashtest harness uses this to create coordinator in-doubt windows.
  uint64_t crash_after_prepares_sent = 0;
  /// Async backend for the event-loop session tier (kAuto probes uring,
  /// falls back to epoll).
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
  /// Event-loop thread count; 0 = auto (min(4, cores/2), at least 1).
  int num_loops = 0;
  /// Blocking 2PC coordinator threads (cross-shard transactions only).
  int coordinator_threads = 2;
};

/// The LoopStats base (shared by every loop) carries accept_errors and the
/// fast path's gather ratio, frames_batched / writev_batches.
struct ShardRouterStats : server::LoopStats {
  std::atomic<uint64_t> forwarded{0};
  std::atomic<uint64_t> cross_shard_commits{0};
  std::atomic<uint64_t> cross_shard_aborts{0};
  std::atomic<uint64_t> vote_timeouts{0};
  std::atomic<uint64_t> resolved_in_doubt{0};
  /// Session lifecycle: live sessions == accepted - closed. The churn test
  /// pins this to zero after disconnect storms (the old thread-per-session
  /// tier leaked a session object + thread handle per dead client).
  std::atomic<uint64_t> sessions_accepted{0};
  std::atomic<uint64_t> sessions_closed{0};
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scans the decision log for prior commits, opens it for appending,
  /// binds the listen socket, and starts the event loops + coordinator
  /// pool. Shard links are established asynchronously; use
  /// WaitShardsConnected() for a deterministic ready point.
  Status Start();
  void Stop();

  /// Bound listen port (after Start()).
  uint16_t port() const { return port_; }

  /// Blocks until every loop's link to every shard is up (its in-doubt
  /// backlog resolved) or `timeout_ms` elapses. Returns true when all
  /// links are up.
  bool WaitShardsConnected(int64_t timeout_ms);

  const ShardRouterStats& stats() const { return stats_; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(options_.shards.size());
  }

  /// Resolved event-loop count (after Start()).
  uint32_t num_loops() const { return static_cast<uint32_t>(loops_.size()); }

  /// Kernel entries issued by the event-loop backends (live counters plus
  /// those of loops already stopped). Excludes the blocking coordinator
  /// pool — this measures the fast path's syscall budget. Safe to call
  /// while running or after Stop(); not concurrently *with* Stop().
  uint64_t io_syscalls() const;

 private:
  struct RouterLoop;
  struct ShardLink;
  struct Coordinator;

  /// A cross-shard kKvRmw handed from an event loop to the coordinator
  /// pool. Identifies the reply slot by (loop, session id, ticket) — never
  /// by pointer, so a session that dies mid-2PC just drops the result.
  struct CrossShardJob {
    uint32_t loop_index = 0;
    uint64_t session_id = 0;
    uint64_t ticket = 0;
    uint64_t request_id = 0;
    /// Per-shard key slices (index == shard id; empty == not a participant).
    std::vector<std::vector<uint64_t>> shard_keys;
  };

  /// Finished 2PC reply, posted back to the owning loop's inbox.
  struct CoordinatorResult {
    uint64_t session_id = 0;
    uint64_t ticket = 0;
    std::vector<uint8_t> encoded;
  };

  /// What the next reply frame on a shard link answers. The shard server
  /// guarantees per-connection FIFO replies, so a deque of these, pushed
  /// in send order by the owning loop, always matches.
  struct Expectation {
    uint64_t session_id = 0;
    uint64_t ticket = 0;
    /// Echoed in the kUnavailable reply when the link dies with the
    /// forward in flight — a reply with a made-up request id would
    /// desynchronize clients that match responses by id.
    uint64_t request_id = 0;
  };

  // --- Client sessions ----------------------------------------------------
  /// Decodes and routes buffered frames; returns false when the session
  /// was closed.
  bool DrainSessionFrames(RouterLoop* loop, server::Connection* conn);
  void ReplyError(RouterLoop* loop, server::Connection* conn, uint64_t ticket,
                  uint64_t request_id, StatusCode code);

  /// Routes one decoded client request. Single-shard forwards are staged
  /// on the owning loop's shard link (one gather write per link per reap
  /// batch); cross-shard kKvRmw is handed to the coordinator pool.
  void RouteRequest(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, const server::Frame& frame);
  void StageForward(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, uint32_t shard_id,
                    const server::Frame& frame, uint64_t request_id);

  // --- Shard links (per loop, event-driven) -------------------------------
  void StartConnectLink(RouterLoop* loop, ShardLink* link);
  /// Returns false when the link was torn down mid-drain (closing a link's
  /// connection tears the link down through the OnClosed hook).
  bool DrainLinkFrames(RouterLoop* loop, ShardLink* link);
  bool HandleLinkHandshakeFrame(RouterLoop* loop, ShardLink* link,
                                server::FrameType type,
                                const std::vector<uint8_t>& body);
  bool HandleLinkForwardReply(RouterLoop* loop, ShardLink* link,
                              server::FrameType type,
                              const std::vector<uint8_t>& body);
  void LinkUp(ShardLink* link);
  /// The link's connection is gone (or never came up): fails outstanding
  /// expectations with kUnavailable and schedules a jittered reconnect.
  void TeardownLink(RouterLoop* loop, ShardLink* link);

  // --- Coordinator pool (blocking 2PC) ------------------------------------
  void CoordinatorRun(Coordinator* coord);
  void RunCrossShard(Coordinator* coord, const CrossShardJob& job);
  bool EnsureShardClient(Coordinator* coord, uint32_t shard_id);
  /// In-doubt sweep over a fresh blocking connection; skips gtids a live
  /// coordinator still owns (the active set).
  Status ResolveInDoubtOn(server::Client* client);
  void PostResult(uint32_t loop_index, CoordinatorResult result);
  /// Bounded RecvFrame that slices the wait against stop_.
  Status RecvFrameSliced(server::Client* client, server::FrameType* type,
                         std::vector<uint8_t>* body, int64_t deadline_ms);

  /// committed/active check for one in-doubt gtid, one critical section:
  /// *commit set => replay commit; active set => skip (a live coordinator
  /// owns the outcome); neither => presumed abort.
  void ClassifyInDoubt(uint64_t gtid, bool* commit, bool* skip);

  uint64_t NextGtid() {
    return gtid_base_ + gtid_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  ShardRouterOptions options_;
  ShardRouterStats stats_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  uint16_t port_ = 0;

  /// Parsed options_.shards.
  std::vector<std::pair<std::string, uint16_t>> shard_addrs_;

  std::unique_ptr<LogManager> decision_log_;
  uint64_t gtid_base_ = 0;
  std::atomic<uint64_t> gtid_seq_{0};
  std::atomic<uint64_t> cross_shard_started_{0};

  mutable Mutex committed_mu_;
  /// Every gtid with a durable commit decision (log scan + runtime).
  std::unordered_set<uint64_t> committed_ GUARDED_BY(committed_mu_);
  /// Gtids whose 2PC a coordinator thread is currently driving. Guarded by
  /// the same mutex as committed_ so an in-doubt sweep classifies a gtid
  /// (committed / active / presumed-abort) in one atomic look — without
  /// this a link reconnect could presume-abort a healthy transaction whose
  /// commit decision is still being logged.
  std::unordered_set<uint64_t> active_gtids_ GUARDED_BY(committed_mu_);

  /// Link-up accounting for WaitShardsConnected.
  mutable Mutex shards_mu_;
  CondVar shards_cv_;
  uint32_t links_up_ GUARDED_BY(shards_mu_) = 0;

  std::vector<std::unique_ptr<RouterLoop>> loops_;
  std::atomic<uint32_t> accept_rr_{0};
  /// Syscalls of backends already destroyed (accumulated in Stop()).
  std::atomic<uint64_t> io_syscalls_retired_{0};

  // Cross-shard job queue feeding the coordinator pool.
  mutable Mutex jobs_mu_;
  CondVar jobs_cv_;
  std::deque<CrossShardJob> jobs_ GUARDED_BY(jobs_mu_);
  bool jobs_stopped_ GUARDED_BY(jobs_mu_) = false;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
};

}  // namespace shard
}  // namespace next700

#endif  // NEXT700_SHARD_SHARD_ROUTER_H_
