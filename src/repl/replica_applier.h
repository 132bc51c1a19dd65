#ifndef NEXT700_REPL_REPLICA_APPLIER_H_
#define NEXT700_REPL_REPLICA_APPLIER_H_

/// \file
/// Replica-side continuous apply of the primary's log stream.
///
/// Bootstrap contract: before Start(), the caller brings the replica
/// engine to a state consistent with its local log directory — either a
/// fresh engine with the same deterministically seeded data as the
/// primary (both logs empty, LSN 0) or RecoverEngine() from the replica's
/// own checkpoint + MANIFEST + log suffix (restart, or a copied primary
/// backup). The engine must be opened with logging pointed at the
/// replica's local log directory: the applier writes the primary's frame
/// bytes verbatim into it (LogManager::AppendRaw), so the two logs are
/// byte-identical and share one LSN space.
///
/// The applier runs one server::EventLoop of its own (on the engine log's
/// io backend kind) whose single outbound peer is the primary. On every
/// fresh connection it queues a PeerRole::kReplica Hello plus a ReplAck
/// subscribing from its local durable end, checks the HelloAck, and for
/// every received batch, on the loop thread:
/// append raw -> wait locally durable -> apply to the engine under the
/// write side of the read gate (RecoveryManager::ApplyFrames: Thomas-rule
/// value replay / serial command re-execution) -> advance applied LSN ->
/// ack. Acking only after the local durability barrier means an acked
/// byte survives a replica crash, which is what the primary's semisync
/// mode promises clients. Applying only after the same barrier keeps
/// applied_lsn <= local durable_lsn <= primary durable_lsn at all times.
///
/// Snapshot reads: the replica's server executes read-only procedures
/// between batches, serialized against raw apply by the ReadLock/
/// ReadUnlock gate (applier writes bypass CC, so reader/writer exclusion
/// is the isolation mechanism; the snapshot is the applied prefix of the
/// primary's commit order). Staleness is bounded by request.min_read_lsn.
///
/// Failover: promotion is a restart, not a code path — stop the replica
/// and start a primary on its directories. Crash recovery truncates any
/// torn tail the dying applier left, exactly as it would after a primary
/// crash; every byte the replica ever acked is below that tail.
///
/// A dead primary, a dropped or stalled connection, or a batch that fails
/// its checksum or does not continue the local log closes the connection,
/// and the loop redials (event_loop.h); reads go on meanwhile. A local
/// durability or apply failure sticks in stream_status() and ends the
/// redials. Blocking the loop on the local log stalls nothing else, and
/// Stop() returns within one loop wakeup (or one batch apply).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_safety.h"
#include "log/recovery.h"
#include "server/event_loop.h"
#include "server/server.h"
#include "txn/engine.h"

namespace next700 {
namespace repl {

struct ReplicaApplierOptions {
  /// The primary's "host:port".
  std::string primary;
};

class ReplicaApplier : public server::SnapshotSource,
                       private server::EventLoop::Handler {
 public:
  /// `engine` must outlive the applier, be bootstrapped as described
  /// above, and have a LogManager (logging enabled on the replica's own
  /// log directory).
  ReplicaApplier(Engine* engine, ReplicaApplierOptions options);
  ~ReplicaApplier() override;
  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Captures the local durable end as the applied watermark and starts
  /// the loop. kInvalidArgument for a bad primary address.
  Status Start();

  /// Stops the loop and disconnects. Idempotent.
  void Stop();

  // --- server::SnapshotSource (replica-role server integration) ---------

  Lsn applied_lsn() const override {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  /// Shared/exclusive gate between snapshot readers (server workers) and
  /// raw apply. Hand-built over Mutex+CondVar with writer priority so a
  /// continuous read load cannot starve the stream.
  void ReadLock() override;
  void ReadUnlock() override;

  // --- Observability ------------------------------------------------------

  /// Primary's durable LSN as of the last received batch (lag reference).
  Lsn primary_durable_lsn() const {
    return primary_durable_lsn_.load(std::memory_order_relaxed);
  }
  /// Replication lag in log bytes: primary durable minus locally applied.
  uint64_t lag_bytes() const {
    const Lsn primary = primary_durable_lsn();
    const Lsn applied = applied_lsn();
    return primary > applied ? primary - applied : 0;
  }
  uint64_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  uint64_t txns_applied() const {
    return txns_applied_.load(std::memory_order_relaxed);
  }
  /// Redials of the primary (connections closed while streaming).
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// The primary answered the handshake and the subscription is queued.
  bool connected() const {
    return connected_.load(std::memory_order_relaxed);
  }
  /// First fatal stream error (a local durability or apply failure), or
  /// OK. Connection loss and bad batches are not fatal: the loop redials.
  Status stream_status() const;

 private:
  // --- server::EventLoop::Handler (loop thread) ---------------------------
  void OnDialed(size_t peer, server::Connection* conn) override;
  /// The HelloAck, then per batch: append, make durable, apply, ack.
  bool OnFrames(server::Connection* conn) override;
  void OnClosed(server::Connection* conn) override;
  void WriteLock();
  void WriteUnlock();

  Engine* engine_;
  ReplicaApplierOptions options_;
  RecoveryManager recovery_;

  std::atomic<Lsn> applied_lsn_{0};
  std::atomic<Lsn> primary_durable_lsn_{0};
  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> txns_applied_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<bool> connected_{false};

  // Reader/writer gate: snapshot readers share; raw apply excludes.
  Mutex gate_mu_;
  CondVar gate_cv_;
  int readers_ GUARDED_BY(gate_mu_) = 0;
  int writers_waiting_ GUARDED_BY(gate_mu_) = 0;
  bool writer_ GUARDED_BY(gate_mu_) = false;

  mutable Mutex status_mu_;
  Status stream_status_ GUARDED_BY(status_mu_);

  server::LoopStats loop_stats_;
  /// Null while stopped; Start/Stop-caller-owned.
  std::unique_ptr<server::EventLoop> loop_;
};

}  // namespace repl
}  // namespace next700

#endif  // NEXT700_REPL_REPLICA_APPLIER_H_
