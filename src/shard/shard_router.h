#ifndef NEXT700_SHARD_SHARD_ROUTER_H_
#define NEXT700_SHARD_SHARD_ROUTER_H_

/// \file
/// Shard router / two-phase-commit coordinator: speaks the ordinary next700
/// wire protocol to clients and spreads the "kv" stored-procedure suite
/// across N shard servers, shard i owning the keys where key % N == i.
///
/// Single-shard requests take the fast path: the router parses just enough
/// of the arguments to pick the owning shard and forwards the client's
/// frame bytes verbatim (unroutable requests go to shard 0, so errors match
/// a direct connection), relaying replies in per-connection request order.
///
/// A kKvRmw whose keys span shards is a presumed-abort 2PC: Prepare to
/// every participant; on unanimous yes votes a kCoordDecision record is
/// durable in the router's log before the client reply or any commit
/// decision leaves (the commit point). Aborts are never logged. On
/// (re)connecting, a link asks the shard for its in-doubt gtids and answers
/// each from the log scan; a participant that misses its vote deadline is
/// aborted.
///
/// Threading: one server::EventLoopGroup (event_loop.h) of N loops, the
/// same group the transaction server runs on. The group's loop 0 owns the
/// listener and deals accepted sessions round-robin; the router supplies
/// each loop's hooks (RouterLoop). Each loop owns its sessions plus one
/// link per shard. Forwards staged in one read burst share one gather
/// write per link, replies pair with the link's FIFO expectation deque,
/// and a session's ticket reorder buffer keeps replies in order.
/// Links are their loop's outbound peers (event_loop.h): dialed, redialed
/// with jittered backoff, and closed when a reply stalls mid-frame.
///
/// Cross-shard 2PC is a per-gtid state machine on loop 0 over loop 0's
/// links, so votes and acks pair with the same deque; other loops hand jobs
/// over, and get replies back, through the group's Post() (a session id
/// names its loop). Deadlines run from
/// loop 0's timers: a missed vote closes the link, whose redial sweep
/// presume-aborts the orphan. The decision log's durable callback wakes
/// loop 0, which never blocks on it. In-doubt classification takes no
/// lock: the log scan is immutable after Start(), only loop 0 decides this
/// incarnation's gtids, and it forgets a commit once every yes-voter acked
/// it (shards ack a commit only once its outcome record is durable). Stop()
/// first lets loop 0 send every transaction in 2PC its decision.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "log/log_manager.h"
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
  /// anyway (a slow participant resolves through in-doubt recovery). Stop()
  /// waits up to this plus 1 s for 2PC in flight.
  int64_t ack_timeout_ms = 5000;
  /// Crash hook (crashtest): _exit(42) once every vote of the Nth
  /// cross-shard transaction is in, before its decision is logged.
  uint64_t crash_after_prepares_sent = 0;
  /// Event-loop backend (kAuto probes uring, falls back to epoll).
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
  /// Event-loop thread count; 0 = auto (EventLoopGroup::DefaultLoopCount).
  int num_loops = 0;
  /// Cap on cross-shard transactions in 2PC at once (the name predates the
  /// event-loop coordinator); the excess waits in FIFO order. A prepared
  /// branch parks a shard worker until decided: keep shard workers >= this.
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
  /// Gauge: runtime commits some yes-voter has not acked yet. Loop 0
  /// forgets a commit at its last ack (a shard acks a commit once its
  /// outcome record is durable), so this returns to 0 when idle.
  std::atomic<uint64_t> commits_unacked{0};
  /// Session lifecycle: live sessions == accepted - closed.
  std::atomic<uint64_t> sessions_accepted{0};
  std::atomic<uint64_t> sessions_closed{0};
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scans the decision log, opens it for appending, binds the listener and
  /// starts the loops. Links come up asynchronously: WaitShardsConnected().
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
  /// those of loops already stopped), 2PC traffic included: every shard
  /// connection the router has is a loop link. Safe to call while running
  /// or after Stop(); not concurrently *with* Stop().
  uint64_t io_syscalls() const;

 private:
  struct RouterLoop;
  struct ShardLink;
  struct CrossShardJob;
  struct CrossShardTxn;

  // --- Client sessions ----------------------------------------------------
  /// Routes buffered frames; returns false when the session was closed.
  bool DrainSessionFrames(RouterLoop* loop, server::Connection* conn);
  void ReplyError(RouterLoop* loop, server::Connection* conn, uint64_t ticket,
                  uint64_t request_id, StatusCode code);

  /// Single-shard requests are staged on this loop's link to the owning
  /// shard; a cross-shard kKvRmw is handed to loop 0's 2PC.
  void RouteRequest(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, const server::Frame& frame);
  void StageForward(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, uint32_t shard_id,
                    const server::Frame& frame, uint64_t request_id);

  // --- Shard links (per loop, event-driven) -------------------------------
  /// Returns false when the link was torn down mid-drain.
  bool DrainLinkFrames(RouterLoop* loop, ShardLink* link);
  /// Returns false when the frame breaks the link's protocol.
  bool HandleLinkFrame(RouterLoop* loop, ShardLink* link,
                       const server::Frame& frame);
  /// Sets *commit for an in-doubt gtid; returns false when `loop` must
  /// leave it alone (loop 0 owns it and may still commit it).
  bool ClassifyInDoubt(const RouterLoop* loop, uint64_t gtid,
                       bool* commit) const;
  void LinkUp(RouterLoop* loop, ShardLink* link);
  /// The link's connection is gone: fails what it owes (forwards answer
  /// kUnavailable); the loop redials it.
  void TeardownLink(RouterLoop* loop, ShardLink* link);

  // --- Cross-shard 2PC (loop 0 only) -------------------------------------
  /// Starts waiting jobs, in arrival order, while the cap allows.
  void StartWaiting(RouterLoop* loop);
  void StartCrossShard(RouterLoop* loop, CrossShardJob job);
  /// Records a vote (a lost one fails); once every vote is in, appends
  /// the commit decision or aborts.
  void OnVote(RouterLoop* loop, uint32_t shard_id, uint64_t gtid,
              StatusCode status);
  /// `acked` is false when the link died with the ack outstanding.
  void OnDecisionAck(RouterLoop* loop, uint32_t shard_id, uint64_t gtid,
                     bool acked);
  /// Commits whose decision is durable; aborts if the decision log failed.
  void CheckDecisionLog(RouterLoop* loop);
  void SendDecisions(RouterLoop* loop, CrossShardTxn* txn, bool commit);
  void FinishCrossShard(RouterLoop* loop, uint64_t gtid);
  /// Vote and ack deadlines, and Stop()'s abort of every transaction still
  /// voting; returns the next deadline (UINT64_MAX for none).
  uint64_t RunCrossShardTimers(RouterLoop* loop, uint64_t now_ms);
  /// Answers a cross-shard job on its session's loop.
  void ReplyCrossShard(RouterLoop* loop, const CrossShardJob& job,
                       StatusCode status, Lsn commit_lsn);

  ShardRouterOptions options_;
  ShardRouterStats stats_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  uint16_t port_ = 0;

  std::unique_ptr<LogManager> decision_log_;
  /// Earlier incarnations' commits (the log scan); immutable after Start().
  std::unordered_set<uint64_t> scanned_commits_;
  /// This incarnation's gtids are gtid_base_ + n (wall-clock nanoseconds
  /// at Start(), so earlier incarnations' gtids lie below it).
  uint64_t gtid_base_ = 0;

  /// Link-up accounting for WaitShardsConnected.
  mutable Mutex shards_mu_;
  CondVar shards_cv_;
  uint32_t links_up_ GUARDED_BY(shards_mu_) = 0;
  /// Set by loop 0 once stop_ is up and no transaction is in 2PC.
  bool xshard_drained_ GUARDED_BY(shards_mu_) = false;

  /// The loops' hooks (index == loop index); the group runs them.
  std::vector<std::unique_ptr<RouterLoop>> loops_;
  std::unique_ptr<server::EventLoopGroup> group_;
  /// Syscalls of backends already destroyed (accumulated in Stop()).
  std::atomic<uint64_t> io_syscalls_retired_{0};
};

}  // namespace shard
}  // namespace next700

#endif  // NEXT700_SHARD_SHARD_ROUTER_H_
