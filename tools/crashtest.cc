/// \file
/// Crash-fault injection driver for the log/recovery path.
///
/// Each round forks a child that runs a two-worker update workload against
/// an engine with sync_commit + fdatasync and a FaultInjectingLogFile
/// backend. Driven by the round's seed, the backend kills the child at a
/// chosen physical write, tears that write at a byte offset, or flips a bit
/// in a flushed batch. The child reports two event streams over a pipe:
/// 'A' records after each *acknowledged* transaction (RunProcedure returned
/// OK, i.e. WaitDurable passed) and 'W' records for each completed physical
/// write. The parent then recovers the log into a fresh engine and checks
/// the durability contract:
///
///   * every acknowledged transaction survives replay;
///   * recovered state is exactly the deterministic model prefix per
///     worker — no unacknowledged transaction is half-applied;
///   * a bit flip below the log tail is *detected* (kCorruption), never
///     silently replayed past — unless checkpoint-driven truncation retired
///     the damaged segment, in which case recovery must be clean and the
///     full model check must still pass.
///
/// Checkpoint lifecycle faults: a quarter of the rounds run with online
/// checkpointing (worker 0 triggers a checkpoint every few acked
/// transactions, some rounds also run the background checkpointer) and
/// crash at a named point inside the install sequence — mid checkpoint
/// write, before its rename, mid MANIFEST write, before its rename, before
/// or between segment unlinks, before old-file cleanup. Half of the
/// log-fault rounds also checkpoint, so log crashes land on truncated
/// logs. Recovery then goes through the MANIFEST (RecoverEngine) and the
/// same acked-survival + model-prefix contract is asserted.
///
/// Workload: worker t repeatedly runs procedure 1 on disjoint keys — its
/// cursor row (key = t) plus two data rows drawn from its private range.
/// Every row carries (count, stamp); the cursor count after seq s is s+1,
/// so replay reveals exactly how many of the worker's transactions
/// survived, and full-state comparison against the recomputed model
/// catches any partial application. Arguments are derived from the seed,
/// so the parent can rebuild the schedule without trusting the child.
///
/// Replication rounds (`crashtest repl [rounds] [base_seed]
/// [io-backend]`): each round
/// forks a real semisync primary server and a replica (engine + applier)
/// as separate processes, drives pipelined increments over TCP from the
/// parent, and kill -9s one side at a seed-chosen point:
///
///   * kill-primary: every semisync-acked transaction must survive
///     promotion — replaying the replica's own log into a fresh engine
///     must show at least the acked increments per key (and no more than
///     acked + in-flight-at-kill);
///   * kill-replica: the primary must keep acking commits (semisync
///     degrades to local durability) and lose nothing; the dead replica's
///     torn log must reopen cleanly (tail truncation only);
///   * both: the replica's log must be a byte prefix of the primary's —
///     the applied stream never runs ahead of what the primary wrote.
///
/// Sharded 2PC rounds (`crashtest shard [rounds] [base_seed]`): each round
/// forks two shard servers and a shard router (coordinator) as separate
/// processes and drives a pipelined mix of single-shard and deliberately
/// cross-shard kv_rmw transactions through the router. The seed picks one
/// of three crash points:
///
///   * coordinator crash: the router _exit(42)s right after the Nth
///     cross-shard transaction's prepares hit the wire, before its commit
///     decision is logged — both participants are left with parked
///     prepared branches (in doubt);
///   * participant crash: one shard _exit(42)s after its Nth prepare is
///     durable but before the vote leaves, so the coordinator aborts the
///     transaction while the dead shard holds an in-doubt prepare record;
///   * router SIGKILL: the parent kill -9s the router mid-pipeline at an
///     arbitrary point (decisions may be durable with replies unsent).
///
/// Every process is then restarted over the same directories (shards with
/// full-replay recovery, the router over the same decision log); the
/// reconnecting router replays commit decisions from its log scan and
/// presumes abort for the rest, which must clear every in-doubt branch.
/// The parent audits per-key counters through the router and asserts:
///
///   * every acked increment survived, and no key gained more than
///     acked + in-flight-at-kill increments;
///   * atomicity: cross-shard transactions touch a dedicated pair region
///     (keys {2j, 2j+1}, always on different shards), so the two counters
///     of a pair must always be equal — a prepared branch that committed
///     on one shard and aborted on the other would split them;
///   * liveness: after recovery one single-shard and one cross-shard
///     transaction must commit (the in-doubt gate cleared).
///
/// Usage: crashtest [rounds] [base_seed]
///        crashtest repl [rounds] [base_seed] [io-backend]
///        crashtest shard [rounds] [base_seed] [io-backend]
///
/// `io-backend` (auto|uring|epoll, default auto) selects, in repl rounds,
/// the primary's event loop and both engines' log device (the replica's
/// applier loop follows its log), and in shard rounds the router's event
/// loop; shard servers keep their own default.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "faultlog/fault_injection.h"
#include "log/checkpoint.h"
#include "log/log_file.h"
#include "log/log_manager.h"
#include "io/io_backend.h"
#include "log/recovery.h"
#include "repl/replica_applier.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/procs.h"
#include "server/server.h"
#include "shard/shard_router.h"
#include "txn/engine.h"

namespace next700 {
namespace {

constexpr int kThreads = 2;
constexpr uint64_t kTxnsPerThread = 200;
constexpr uint64_t kKeysPerThread = 64;
constexpr uint64_t kDataBase = 16;  // Data keys start here; cursors at 0..1.

/// Fixed-size pipe record; well under PIPE_BUF, so concurrent writers
/// (two workers acking, the flusher reporting writes) stay atomic.
struct Event {
  char tag;  // 'A' = acked txn {a=thread, b=seq}; 'W' = write {a=index}.
  char pad[7];
  uint64_t a;
  uint64_t b;
};

void SendEvent(int fd, char tag, uint64_t a, uint64_t b) {
  Event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.tag = tag;
  ev.a = a;
  ev.b = b;
  for (;;) {
    const ssize_t n = ::write(fd, &ev, sizeof(ev));
    if (n == static_cast<ssize_t>(sizeof(ev))) return;
    if (n < 0 && errno == EINTR) continue;
    ::_exit(99);  // Pipe broken: the parent is gone, nothing to salvage.
  }
}

/// One transaction's deterministic argument block.
struct TxnArgs {
  uint64_t thread;
  uint64_t seq;
  uint64_t key_a;
  uint64_t key_b;
};

/// Rebuilds worker t's argument schedule from the round seed. Child and
/// parent call this independently; the child never has to report what it
/// intended to run.
std::vector<TxnArgs> MakeSchedule(uint64_t seed, uint64_t thread) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + thread + 1);
  const uint64_t base = kDataBase + thread * kKeysPerThread;
  std::vector<TxnArgs> schedule;
  schedule.reserve(kTxnsPerThread);
  for (uint64_t seq = 0; seq < kTxnsPerThread; ++seq) {
    const uint64_t a = rng.NextUint64(kKeysPerThread);
    // Distinct second key so each transaction touches exactly three rows.
    const uint64_t b = (a + 1 + rng.NextUint64(kKeysPerThread - 1)) %
                       kKeysPerThread;
    schedule.push_back({thread, seq, base + a, base + b});
  }
  return schedule;
}

/// Every named point the checkpoint install sequence passes through, in
/// order. Checkpoint-crash rounds pick one and _exit there.
constexpr const char* kCkptCrashPoints[] = {
    "checkpoint:mid-write",       "checkpoint:before-rename",
    "checkpoint:before-manifest", "manifest:mid-write",
    "manifest:before-rename",     "checkpoint:before-retire",
    "checkpoint:mid-retire",      "checkpoint:before-cleanup",
};
constexpr int kNumCkptCrashPoints =
    static_cast<int>(sizeof(kCkptCrashPoints) / sizeof(kCkptCrashPoints[0]));

/// Per-round fault plan, derived from the seed by parent and child alike.
struct FaultPlan {
  bool log_fault;       // False on checkpoint-crash rounds.
  FaultPoint::Kind kind;
  uint64_t write_index;
  uint64_t tear_bytes;
  uint64_t flip_offset;
  LoggingKind logging;
  bool checkpointing;
  bool ckpt_background;      // Also run the interval checkpointer thread.
  int ckpt_crash_point;      // Index into kCkptCrashPoints, or -1.
  uint64_t ckpt_crash_hits;  // Crash at the Nth occurrence of that point.
  uint64_t ckpt_every;       // Worker 0 checkpoints every N acked txns.
};

FaultPlan MakePlan(uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  FaultPlan plan;
  const uint64_t kind_sel = seed % 4;
  plan.log_fault = kind_sel != 3;
  switch (kind_sel) {
    case 0:
      plan.kind = FaultPoint::Kind::kCrashBeforeWrite;
      break;
    case 1:
      plan.kind = FaultPoint::Kind::kTornWrite;
      break;
    default:
      plan.kind = FaultPoint::Kind::kBitFlip;
      break;
  }
  plan.write_index = 1 + rng.NextUint64(200);
  plan.tear_bytes = rng.Next();
  plan.flip_offset = rng.Next();
  plan.logging = (seed / 4) % 2 == 0 ? LoggingKind::kValue
                                     : LoggingKind::kCommand;
  // Checkpoint-crash rounds always checkpoint; so do half the log-fault
  // rounds, putting log crashes on truncated logs.
  plan.checkpointing = !plan.log_fault || (seed / 8) % 2 == 0;
  plan.ckpt_background = plan.checkpointing && (seed / 16) % 2 == 0;
  plan.ckpt_crash_point =
      plan.log_fault ? -1
                     : static_cast<int>(rng.NextUint64(kNumCkptCrashPoints));
  plan.ckpt_crash_hits = 1 + rng.NextUint64(3);
  plan.ckpt_every = 20 + rng.NextUint64(40);
  return plan;
}

/// Registers the crashtest schema + procedure on a fresh engine.
/// Procedure 1 bumps count and stamps seq+1 on the worker's cursor row and
/// both data rows, creating rows on first touch.
struct Fixture {
  Table* table = nullptr;
  Index* index = nullptr;
};

std::unique_ptr<Engine> MakeEngine(EngineOptions options, Fixture* fx) {
  auto engine = std::make_unique<Engine>(std::move(options));
  Schema schema;
  schema.AddUint64("count");
  schema.AddUint64("stamp");
  fx->table = engine->CreateTable("ct", std::move(schema));
  fx->index = engine->CreateIndex("ct_pk", fx->table, IndexKind::kHash, 4096);
  engine->RegisterProcedure(
      1, [fx](Engine* e, TxnContext* txn, const uint8_t* args,
              size_t len) -> Status {
        NEXT700_CHECK(len == sizeof(TxnArgs));
        TxnArgs in;
        std::memcpy(&in, args, sizeof(in));
        const uint64_t keys[3] = {in.thread, in.key_a, in.key_b};
        for (uint64_t key : keys) {
          uint8_t buf[16];
          Status s = e->ReadForUpdate(txn, fx->index, key, buf);
          if (s.IsNotFound()) {
            fx->table->schema().SetUint64(buf, 0, 1);
            fx->table->schema().SetUint64(buf, 1, in.seq + 1);
            Result<Row*> row = e->Insert(txn, fx->table, 0, key, buf);
            NEXT700_RETURN_IF_ERROR(row.status());
            e->AddIndexInsert(txn, fx->index, key, row.value());
            continue;
          }
          NEXT700_RETURN_IF_ERROR(s);
          fx->table->schema().SetUint64(
              buf, 0, fx->table->schema().GetUint64(buf, 0) + 1);
          fx->table->schema().SetUint64(buf, 1, in.seq + 1);
          NEXT700_RETURN_IF_ERROR(e->Update(txn, fx->index, key, buf));
        }
        return Status::OK();
      });
  return engine;
}

/// Child process body: run the workload under injection. Exits 42 when the
/// scheduled fault fires, 0 when the run completes without reaching it.
void RunChild(uint64_t seed, const std::string& log_dir, int event_fd) {
  const FaultPlan plan = MakePlan(seed);
  FaultInjector injector;
  if (plan.log_fault) {
    FaultPoint fault;
    fault.kind = plan.kind;
    fault.write_index = plan.write_index;
    fault.tear_bytes = plan.tear_bytes;
    fault.flip_offset = plan.flip_offset;
    injector.AddFault(fault);
    if (plan.kind == FaultPoint::Kind::kBitFlip) {
      // Let a few more batches land after the flip so the damage sits below
      // the log tail, then crash: recovery must *detect* it, not skip it.
      FaultPoint crash;
      crash.kind = FaultPoint::Kind::kCrashBeforeWrite;
      crash.write_index = plan.write_index + 3;
      injector.AddFault(crash);
    }
  }
  injector.set_write_observer(
      [event_fd](uint64_t index) { SendEvent(event_fd, 'W', index, 0); });

  EngineOptions options;
  options.cc_scheme = CcScheme::kNoWait;
  options.max_threads = kThreads;
  options.logging = plan.logging;
  options.log_dir = log_dir;
  options.sync_commit = true;
  options.log_sync = LogSyncPolicy::kFdatasync;
  options.log_segment_bytes = 4096;  // Small: force rotation mid-run.
  options.log_file_factory = injector.factory();
  std::atomic<uint64_t> point_hits{0};
  if (plan.checkpointing) {
    options.checkpoint_dir = log_dir + ".ckpt";
    if (plan.ckpt_background) options.checkpoint_interval_ms = 5;
    const char* target = plan.ckpt_crash_point >= 0
                             ? kCkptCrashPoints[plan.ckpt_crash_point]
                             : nullptr;
    options.checkpoint_crash_hook = [&point_hits, &plan,
                                     target](const char* point) {
      if (target != nullptr && std::strcmp(point, target) == 0 &&
          point_hits.fetch_add(1) + 1 == plan.ckpt_crash_hits) {
        ::_exit(42);
      }
    };
  }
  Fixture fx;
  {
    auto engine = MakeEngine(options, &fx);
    if (plan.checkpointing && plan.ckpt_background) {
      engine->StartCheckpointer();
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::vector<TxnArgs> schedule = MakeSchedule(seed, t);
        for (const TxnArgs& args : schedule) {
          // Disjoint key ranges: no conflicts, so only a durability failure
          // can surface here — and under injection the process just dies.
          const Status s =
              engine->RunProcedure(1, t, &args, sizeof(args));
          NEXT700_CHECK_MSG(s.ok(), "workload txn failed");
          SendEvent(event_fd, 'A', args.thread, args.seq);
          if (plan.checkpointing && t == 0 &&
              (args.seq + 1) % plan.ckpt_every == 0) {
            // Online: worker 1 keeps committing while this runs.
            NEXT700_CHECK_MSG(engine->TriggerCheckpoint(nullptr).ok(),
                              "checkpoint failed");
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }  // Engine destruction closes the log.
  // Clean finish: the fault never triggered. Durability must have been
  // real — the injector saw the fdatasync barriers.
  NEXT700_CHECK_MSG(injector.syncs() > 0, "no durability barriers issued");
  ::_exit(0);
}

/// The plan fields a log-mode FAIL line carries, so a failing seed names
/// its fault and crash point without a rerun.
std::string PlanSummary(const FaultPlan& plan) {
  static const char* const kKindNames[] = {"crash-before-write",
                                           "torn-write", "bit-flip"};
  return std::string(" [logging=") +
         (plan.logging == LoggingKind::kValue ? "value" : "command") +
         " log_fault=" +
         (plan.log_fault
              ? std::string(kKindNames[static_cast<int>(plan.kind)]) +
                    " write_index=" + std::to_string(plan.write_index)
              : std::string("none")) +
         " checkpointing=" + std::to_string(plan.checkpointing) +
         " ckpt_background=" + std::to_string(plan.ckpt_background) +
         " ckpt_crash_point=" +
         (plan.ckpt_crash_point >= 0 ? kCkptCrashPoints[plan.ckpt_crash_point]
                                     : "none") +
         " ckpt_crash_hits=" + std::to_string(plan.ckpt_crash_hits) + "]";
}

struct RoundResult {
  bool ok = false;
  std::string detail;
};

RoundResult Fail(std::string detail) { return {false, std::move(detail)}; }

/// Parent-side verification after the child exited.
RoundResult VerifyRound(uint64_t seed, const std::string& log_dir,
                        const std::vector<uint64_t>& acked,
                        uint64_t max_write_index, bool child_crashed) {
  const FaultPlan plan = MakePlan(seed);

  EngineOptions clean;
  clean.cc_scheme = CcScheme::kNoWait;
  clean.max_threads = kThreads;
  clean.logging = LoggingKind::kNone;
  Fixture fx;
  auto engine = MakeEngine(clean, &fx);
  Status replay;
  std::string how = "replayed";
  if (plan.checkpointing) {
    // Recover the way a real restart would: MANIFEST-named checkpoint
    // (if one was installed before the crash) + log suffix.
    RecoverOutcome outcome;
    replay = RecoverEngine(engine.get(), log_dir + ".ckpt", log_dir,
                           /*rebuilder=*/nullptr, &outcome);
    how = outcome.used_checkpoint ? "checkpoint+suffix" : "full replay";
  } else {
    RecoveryManager recovery(engine.get());
    RecoveryStats stats;
    replay = recovery.Replay(log_dir, &stats);
  }

  const bool flip_round = child_crashed && plan.log_fault &&
                          plan.kind == FaultPoint::Kind::kBitFlip;
  if (flip_round && max_write_index > plan.write_index) {
    // Writes landed after the flipped batch, so the damaged frame sits
    // mid-log: replay must refuse it rather than lose acked transactions.
    // With checkpointing the damaged segment may instead have been retired
    // below the checkpoint — then recovery is clean and the full model
    // check below must pass.
    if (replay.code() == StatusCode::kCorruption) {
      return {true, "corruption detected"};
    }
    if (!plan.checkpointing || !replay.ok()) {
      return Fail("bit flip below the tail not detected: " +
                  replay.ToString());
    }
  } else if (flip_round) {
    // The flipped batch was the last one written; its frames are
    // indistinguishable from a torn tail. Either outcome is legal, but
    // acked-transaction accounting is off the table.
    if (!replay.ok() && replay.code() != StatusCode::kCorruption) {
      return Fail("unexpected replay status: " + replay.ToString());
    }
    return {true, "flip at tail (lenient)"};
  }
  if (!replay.ok()) {
    return Fail("recovery failed: " + replay.ToString());
  }

  // Reconstruct the surviving prefix length per worker from its cursor row,
  // then compare the whole database against the recomputed model.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> model;  // key -> row.
  for (int t = 0; t < kThreads; ++t) {
    uint64_t applied = 0;
    if (Row* cursor = fx.index->Lookup(t)) {
      applied = fx.table->schema().GetUint64(engine->RawImage(cursor), 0);
      const uint64_t stamp =
          fx.table->schema().GetUint64(engine->RawImage(cursor), 1);
      if (stamp != applied) {
        return Fail("worker " + std::to_string(t) +
                    " cursor stamp/count mismatch");
      }
    }
    if (applied > kTxnsPerThread) {
      return Fail("worker " + std::to_string(t) + " over-applied");
    }
    if (applied < acked[t]) {
      return Fail("worker " + std::to_string(t) + " lost acked txns: " +
                  std::to_string(applied) + " survived < " +
                  std::to_string(acked[t]) + " acked");
    }
    if (!child_crashed && applied != kTxnsPerThread) {
      return Fail("clean run lost transactions");
    }
    const std::vector<TxnArgs> schedule = MakeSchedule(seed, t);
    for (uint64_t seq = 0; seq < applied; ++seq) {
      const TxnArgs& args = schedule[seq];
      for (uint64_t key : {args.thread, args.key_a, args.key_b}) {
        auto& row = model[key];
        row.first += 1;
        row.second = seq + 1;
      }
    }
  }
  for (uint64_t key = 0; key < kDataBase + kThreads * kKeysPerThread; ++key) {
    Row* row = fx.index->Lookup(key);
    const auto it = model.find(key);
    if (it == model.end()) {
      if (row != nullptr) {
        return Fail("key " + std::to_string(key) +
                    " exists but no surviving txn wrote it");
      }
      continue;
    }
    if (row == nullptr) {
      return Fail("key " + std::to_string(key) + " missing after replay");
    }
    const uint8_t* image = engine->RawImage(row);
    const uint64_t count = fx.table->schema().GetUint64(image, 0);
    const uint64_t stamp = fx.table->schema().GetUint64(image, 1);
    if (count != it->second.first || stamp != it->second.second) {
      return Fail("key " + std::to_string(key) + " diverges from model: (" +
                  std::to_string(count) + "," + std::to_string(stamp) +
                  ") != (" + std::to_string(it->second.first) + "," +
                  std::to_string(it->second.second) + ")");
    }
  }
  return {true, (child_crashed ? std::string("state matches model prefix")
                               : std::string("clean run complete")) +
                    ", " + how};
}

int RunRound(uint64_t seed, const std::string& log_dir) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return 1;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork failed\n");
    return 1;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    RunChild(seed, log_dir, pipe_fds[1]);
    ::_exit(0);  // Unreachable; RunChild always _exits.
  }
  ::close(pipe_fds[1]);

  std::vector<uint64_t> acked(kThreads, 0);
  uint64_t max_write_index = 0;
  bool saw_write = false;
  Event ev;
  size_t have = 0;
  auto* raw = reinterpret_cast<uint8_t*>(&ev);
  for (;;) {
    const ssize_t n =
        ::read(pipe_fds[0], raw + have, sizeof(ev) - have);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: child exited (possibly mid-record).
    have += static_cast<size_t>(n);
    if (have < sizeof(ev)) continue;
    have = 0;
    if (ev.tag == 'A') {
      // Acks per worker arrive in seq order; count is enough.
      if (ev.a < kThreads) acked[ev.a] = ev.b + 1;
    } else if (ev.tag == 'W') {
      max_write_index = std::max(max_write_index, ev.a);
      saw_write = true;
    }
  }
  ::close(pipe_fds[0]);

  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    std::fprintf(stderr, "waitpid failed\n");
    return 1;
  }
  if (!WIFEXITED(wstatus)) {
    std::fprintf(stderr, "seed %llu: child did not exit normally\n",
                 static_cast<unsigned long long>(seed));
    return 1;
  }
  const int code = WEXITSTATUS(wstatus);
  if (code != 0 && code != 42) {
    std::fprintf(stderr, "seed %llu: child exited %d\n",
                 static_cast<unsigned long long>(seed), code);
    return 1;
  }

  const RoundResult result =
      VerifyRound(seed, log_dir, acked, saw_write ? max_write_index : 0,
                  /*child_crashed=*/code == 42);
  if (!result.ok) {
    std::fprintf(stderr, "seed %llu: FAIL: %s%s\n",
                 static_cast<unsigned long long>(seed), result.detail.c_str(),
                 PlanSummary(MakePlan(seed)).c_str());
    return 1;
  }
  std::printf("seed %llu: %s (%s, acked %llu+%llu)\n",
              static_cast<unsigned long long>(seed),
              code == 42 ? "crashed+recovered" : "completed",
              result.detail.c_str(),
              static_cast<unsigned long long>(acked[0]),
              static_cast<unsigned long long>(acked[1]));
  return 0;
}

// --- Replication rounds -----------------------------------------------------

constexpr uint64_t kReplRecords = 512;
constexpr int kReplPipelineDepth = 4;

struct ReplPlan {
  bool kill_primary;        // Else kill the replica.
  LoggingKind logging;
  uint64_t kill_after;      // Acked txns before the kill.
  uint64_t post_kill_txns;  // Kill-replica rounds: acks demanded after.
};

ReplPlan MakeReplPlan(uint64_t seed) {
  Rng rng(seed ^ 0x5EED5EEDF00DBEEFull);
  ReplPlan plan;
  plan.kill_primary = seed % 2 == 0;
  plan.logging =
      (seed / 2) % 2 == 0 ? LoggingKind::kValue : LoggingKind::kCommand;
  plan.kill_after = 20 + rng.NextUint64(120);
  plan.post_kill_txns = 20 + rng.NextUint64(40);
  return plan;
}

EngineOptions ReplEngineOptions(LoggingKind logging,
                                const std::string& dir) {
  EngineOptions options;
  options.cc_scheme = CcScheme::kNoWait;
  options.max_threads = 2;
  options.logging = logging;
  options.log_dir = dir;
  options.sync_commit = true;
  options.log_sync = LogSyncPolicy::kFdatasync;
  options.log_segment_bytes = 16384;  // Rotate under the shipper.
  return options;
}

/// The optional `io-backend` argument of repl and shard rounds. Inherited
/// across fork.
io::IoBackendKind g_io_backend = io::IoBackendKind::kAuto;

/// Engine options of a repl round's primary or replica process.
EngineOptions ReplNodeOptions(LoggingKind logging, const std::string& dir) {
  EngineOptions options = ReplEngineOptions(logging, dir);
  options.log_io_backend = g_io_backend;
  return options;
}

volatile std::sig_atomic_t g_repl_child_stop = 0;
void OnReplChildSignal(int) { g_repl_child_stop = 1; }

void ReplChildWait() {
  while (!g_repl_child_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Primary child: a real semisync server; reports its ephemeral port over
/// the pipe, then serves until SIGTERM (clean close) or SIGKILL (the
/// crash under test).
void RunReplPrimaryChild(const ReplPlan& plan, const std::string& dir,
                         int port_fd) {
  std::signal(SIGTERM, OnReplChildSignal);
  {
    Engine engine(ReplNodeOptions(plan.logging, dir));
    server::KvServiceOptions kv;
    kv.num_records = kReplRecords;
    server::RegisterKvService(&engine, kv);
    server::ServerOptions srv;
    srv.num_workers = 2;
    srv.repl_ack = server::ReplAckMode::kSemisync;
    srv.io_backend = g_io_backend;
    server::Server server(&engine, srv);
    if (!server.Start().ok()) ::_exit(99);
    const uint16_t port = server.port();
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) ::_exit(99);
    ::close(port_fd);
    ReplChildWait();
    server.Stop();
  }  // Engine destruction closes (flushes) the log.
  ::_exit(0);
}

/// Replica child: engine + applier tailing the primary. Reports readiness
/// only once subscribed, so every round's kill lands on a live stream.
void RunReplReplicaChild(const ReplPlan& plan, const std::string& dir,
                         uint16_t primary_port, int ready_fd) {
  std::signal(SIGTERM, OnReplChildSignal);
  {
    Engine engine(ReplNodeOptions(plan.logging, dir));
    server::KvServiceOptions kv;
    kv.num_records = kReplRecords;
    server::RegisterKvService(&engine, kv);
    repl::ReplicaApplierOptions opts;
    opts.primary = "127.0.0.1:" + std::to_string(primary_port);
    repl::ReplicaApplier applier(&engine, opts);
    if (!applier.Start().ok()) ::_exit(99);
    while (!applier.connected() && !g_repl_child_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const uint8_t ready = 1;
    if (::write(ready_fd, &ready, sizeof(ready)) != sizeof(ready)) {
      ::_exit(99);
    }
    ::close(ready_fd);
    ReplChildWait();
    applier.Stop();
  }
  ::_exit(0);
}

/// A kv_rmw over `keys`; the pipeline driver assigns its request id.
server::Request RmwRequest(const std::vector<uint64_t>& keys) {
  server::Request request;
  request.proc_id = server::kKvRmw;
  server::WireWriter args(&request.args);
  args.PutU16(static_cast<uint16_t>(keys.size()));
  for (const uint64_t key : keys) args.PutU64(key);
  return request;
}

/// Concatenated bytes of every `log.*` segment in index order — segment
/// boundaries may differ between primary and replica, the byte stream may
/// not.
bool ReadLogBytes(const std::string& dir, std::vector<uint8_t>* out) {
  out->clear();
  std::vector<LogSegment> segments;
  if (!ListLogSegments(dir, &segments).ok()) return false;
  for (const LogSegment& segment : segments) {
    std::ifstream f(segment.path, std::ios::binary);
    if (!f) return false;
    out->insert(out->end(), std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
  }
  return true;
}

struct AckedCounts {
  std::map<uint64_t, uint64_t> acked;     // key -> committed increments.
  std::map<uint64_t, uint64_t> inflight;  // Sent, outcome unknown.
};

/// Books one load op of a kv_rmw pipeline against its keys: OK is acked;
/// kAborted is definitive (nothing was, or ever will be, applied); any
/// other status, or an unknown outcome, may be durable with its reply
/// lost, so it widens the upper bound.
void CountOutcome(const server::Request& request,
                  const server::Response* response, AckedCounts* counts) {
  if (response != nullptr && response->status == StatusCode::kAborted) {
    return;
  }
  auto& bucket = response != nullptr && response->status == StatusCode::kOk
                     ? counts->acked
                     : counts->inflight;
  server::WireReader args(request.args.data(), request.args.size());
  uint16_t n = 0;
  uint64_t key = 0;
  args.GetU16(&n);
  for (uint16_t i = 0; i < n && args.GetU64(&key); ++i) ++bucket[key];
}

/// The durability bound on one key's counter delta: at least every acked
/// increment, at most acked + in-flight. `prefix` leads the FAIL text.
RoundResult CheckAckedBounds(const AckedCounts& counts, uint64_t key,
                             uint64_t delta, const std::string& prefix) {
  const auto acked_it = counts.acked.find(key);
  const uint64_t acked =
      acked_it == counts.acked.end() ? 0 : acked_it->second;
  const auto inflight_it = counts.inflight.find(key);
  const uint64_t inflight =
      inflight_it == counts.inflight.end() ? 0 : inflight_it->second;
  if (delta < acked) {
    return Fail(prefix + "key " + std::to_string(key) +
                " lost acked increments: " + std::to_string(delta) +
                " survived < " + std::to_string(acked) + " acked");
  }
  if (delta > acked + inflight) {
    return Fail(prefix + "key " + std::to_string(key) + " over-applied: " +
                std::to_string(delta) + " > acked " + std::to_string(acked) +
                " + inflight " + std::to_string(inflight));
  }
  return {true, ""};
}

/// Verifies per-key counters of a recovered engine against the ack record.
RoundResult CheckCounters(Engine* engine, const AckedCounts& counts,
                          const char* which) {
  Index* index = engine->catalog()->GetIndex("kv_pk");
  if (index == nullptr) return Fail("kv_pk index missing after recovery");
  for (uint64_t key = 0; key < kReplRecords; ++key) {
    Row* row = index->Lookup(key);
    if (row == nullptr) {
      return Fail(std::string(which) + ": key " + std::to_string(key) +
                  " missing after recovery");
    }
    uint64_t counter;
    std::memcpy(&counter, engine->RawImage(row), sizeof(counter));
    // Seed counter equals the key.
    const RoundResult bounds = CheckAckedBounds(
        counts, key, counter - key, std::string(which) + ": ");
    if (!bounds.ok) return bounds;
  }
  return {true, ""};
}

/// The replica's log must be a byte prefix of the primary's: it holds
/// nothing the primary did not write first.
RoundResult CheckLogPrefix(const std::string& primary_dir,
                           const std::string& replica_dir) {
  std::vector<uint8_t> primary_bytes, replica_bytes;
  if (!ReadLogBytes(primary_dir, &primary_bytes)) {
    return Fail("cannot read primary log");
  }
  if (!ReadLogBytes(replica_dir, &replica_bytes)) {
    return Fail("cannot read replica log");
  }
  if (replica_bytes.size() > primary_bytes.size()) {
    return Fail("replica log ran ahead of the primary: " +
                std::to_string(replica_bytes.size()) + " > " +
                std::to_string(primary_bytes.size()));
  }
  if (!std::equal(replica_bytes.begin(), replica_bytes.end(),
                  primary_bytes.begin())) {
    return Fail("replica log diverges from the primary's byte stream");
  }
  return {true, ""};
}

bool ReapChild(pid_t pid, bool killed, const char* who) {
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    std::fprintf(stderr, "waitpid(%s) failed\n", who);
    return false;
  }
  if (killed) return true;  // SIGKILL: any termination is expected.
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "%s child did not exit cleanly (status %d)\n", who,
                 wstatus);
    return false;
  }
  return true;
}

int RunReplRound(uint64_t seed, const std::string& base_dir) {
  const ReplPlan plan = MakeReplPlan(seed);
  const std::string pdir = base_dir + "_p";
  const std::string rdir = base_dir + "_r";

  int port_pipe[2];
  if (::pipe(port_pipe) != 0) return 1;
  const pid_t primary_pid = ::fork();
  if (primary_pid < 0) return 1;
  if (primary_pid == 0) {
    ::close(port_pipe[0]);
    RunReplPrimaryChild(plan, pdir, port_pipe[1]);
  }
  ::close(port_pipe[1]);
  uint16_t port = 0;
  if (::read(port_pipe[0], &port, sizeof(port)) != sizeof(port)) {
    std::fprintf(stderr, "seed %llu: primary never reported a port\n",
                 static_cast<unsigned long long>(seed));
    ::kill(primary_pid, SIGKILL);
    ReapChild(primary_pid, true, "primary");
    return 1;
  }
  ::close(port_pipe[0]);

  int ready_pipe[2];
  if (::pipe(ready_pipe) != 0) return 1;
  const pid_t replica_pid = ::fork();
  if (replica_pid < 0) return 1;
  if (replica_pid == 0) {
    ::close(ready_pipe[0]);
    ::close(port_pipe[0]);
    RunReplReplicaChild(plan, rdir, port, ready_pipe[1]);
  }
  ::close(ready_pipe[1]);
  uint8_t ready = 0;
  const bool subscribed =
      ::read(ready_pipe[0], &ready, sizeof(ready)) == sizeof(ready);
  ::close(ready_pipe[0]);

  auto fail_round = [&](const std::string& detail) {
    std::fprintf(stderr, "seed %llu: FAIL: %s\n",
                 static_cast<unsigned long long>(seed), detail.c_str());
    ::kill(primary_pid, SIGKILL);
    ::kill(replica_pid, SIGKILL);
    ReapChild(primary_pid, true, "primary");
    ReapChild(replica_pid, true, "replica");
    return 1;
  };
  if (!subscribed) return fail_round("replica never subscribed");

  // Pipelined increment load against the primary; the kill lands with
  // requests in flight, so the crash hits mid-commit, not between them.
  Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  AckedCounts counts;
  uint64_t acked_total = 0;
  bool load_error = false;
  const auto next_rmw = [&] {
    return RmwRequest({rng.NextUint64(kReplRecords)});
  };
  const auto count = [&](const server::Request& request,
                         const server::Response* response, uint64_t,
                         uint64_t) {
    // kAborted is a legitimate NO_WAIT conflict between the pipelined
    // requests: nothing was logged. Anything else but OK ends the load.
    if (response != nullptr && response->status == StatusCode::kOk) {
      ++acked_total;
    } else if (response == nullptr ||
               response->status != StatusCode::kAborted) {
      load_error = true;
    }
    CountOutcome(request, response, &counts);
  };
  server::PipelineDriver load(kReplPipelineDepth, /*deadline_ms=*/10000,
                              next_rmw, count);
  if (!load.Connect("127.0.0.1", port)) {
    return fail_round("cannot connect to primary");
  }
  load.Run([&] { return acked_total >= plan.kill_after || load_error; });
  if (acked_total < plan.kill_after) {
    return fail_round("load stalled before the kill point: " +
                      std::to_string(acked_total) + " acked");
  }
  uint64_t load_acked = acked_total;  // The round's report line.

  RoundResult result{true, ""};
  if (plan.kill_primary) {
    // Crash the primary with requests in flight; anything unacked may or
    // may not have reached the replica.
    ::kill(primary_pid, SIGKILL);
    load.Abandon();
    if (!ReapChild(primary_pid, true, "primary")) {
      return fail_round("primary reap failed");
    }
    // The replica survives the failover; stop it cleanly and promote.
    ::kill(replica_pid, SIGTERM);
    if (!ReapChild(replica_pid, false, "replica")) {
      return fail_round("replica did not survive the primary's crash");
    }
    // Promotion = ordinary recovery over the replica's own directories.
    EngineOptions clean = ReplEngineOptions(plan.logging, "");
    clean.logging = LoggingKind::kNone;
    clean.log_dir.clear();
    Engine promoted(clean);
    server::KvServiceOptions kv;
    kv.num_records = kReplRecords;
    server::RegisterKvService(&promoted, kv);
    RecoveryManager recovery(&promoted);
    RecoveryStats stats;
    const Status replay = recovery.Replay(rdir, &stats);
    if (!replay.ok()) {
      result = Fail("promotion replay failed: " + replay.ToString());
    } else {
      result = CheckCounters(&promoted, counts, "promotion");
    }
  } else {
    // Crash the replica; the primary must keep acking (semisync degrades
    // to local durability) and lose nothing.
    ::kill(replica_pid, SIGKILL);
    if (!ReapChild(replica_pid, true, "replica")) {
      return fail_round("replica reap failed");
    }
    load.Drain();
    if (load_error) {
      return fail_round("primary dropped in-flight requests at replica "
                        "death");
    }
    // Then one at a time: every commit must be acked.
    load_acked = acked_total;
    uint64_t issued = 0;
    server::PipelineDriver post(
        1, /*deadline_ms=*/10000,
        [&] {
          ++issued;
          return next_rmw();
        },
        count);
    if (post.Connect("127.0.0.1", port)) {
      post.Run([&] { return issued >= plan.post_kill_txns || load_error; });
      post.Drain();
    }
    if (acked_total - load_acked < plan.post_kill_txns) {
      return fail_round("primary stopped acking after replica death "
                        "(semisync failed to degrade)");
    }
    ::kill(primary_pid, SIGTERM);
    if (!ReapChild(primary_pid, false, "primary")) {
      return fail_round("primary did not shut down cleanly");
    }
    EngineOptions clean = ReplEngineOptions(plan.logging, "");
    clean.logging = LoggingKind::kNone;
    clean.log_dir.clear();
    Engine recovered(clean);
    server::KvServiceOptions kv;
    kv.num_records = kReplRecords;
    server::RegisterKvService(&recovered, kv);
    RecoveryManager recovery(&recovered);
    RecoveryStats stats;
    const Status replay = recovery.Replay(pdir, &stats);
    if (!replay.ok()) {
      result = Fail("primary replay failed: " + replay.ToString());
    } else {
      result = CheckCounters(&recovered, counts, "primary");
    }
    if (result.ok) {
      // The dead replica's log must reopen cleanly: at worst a torn tail,
      // never mid-log damage.
      LogManagerOptions ropts;
      ropts.dir = rdir;
      ropts.segment_bytes = 16384;
      LogManager rlog(ropts);
      const Status reopened = rlog.Open();
      if (!reopened.ok()) {
        result =
            Fail("dead replica log corrupt beyond its tail: " +
                 reopened.ToString());
      }
      rlog.Close();
    }
  }
  if (result.ok) result = CheckLogPrefix(pdir, rdir);

  if (!result.ok) {
    std::fprintf(stderr, "seed %llu: FAIL: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.detail.c_str());
    return 1;
  }
  std::printf("seed %llu: %s survived (%llu acked, logging=%s)\n",
              static_cast<unsigned long long>(seed),
              plan.kill_primary ? "kill-primary" : "kill-replica",
              static_cast<unsigned long long>(load_acked),
              plan.logging == LoggingKind::kValue ? "value" : "command");
  return 0;
}

int ReplMain(uint64_t rounds, uint64_t base_seed) {
  char dir_template[] = "/tmp/next700_replcrash_XXXXXX";
  const char* base_dir = ::mkdtemp(dir_template);
  if (base_dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  int failures = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    const uint64_t seed = base_seed + i;
    const std::string round_dir =
        std::string(base_dir) + "/round_" + std::to_string(seed);
    failures += RunReplRound(seed, round_dir);
    RemoveLogDir(round_dir + "_p");
    RemoveLogDir(round_dir + "_r");
  }
  ::rmdir(base_dir);
  std::printf("%llu repl rounds, %d failures\n",
              static_cast<unsigned long long>(rounds), failures);
  return failures == 0 ? 0 : 1;
}

// --- Sharded 2PC rounds -----------------------------------------------------

constexpr int kNumShards = 2;
constexpr uint64_t kShardRecords = 256;
/// Cross-shard rmws touch exactly the pair {2j, 2j+1} — adjacent keys are
/// always on different shards under key % 2 — and single-shard rmws draw
/// one key from [kShardSingleBase, kShardRecords). Disjoint ranges turn
/// the audit into an atomicity proof: both counters of a pair move
/// together or not at all, no matter where the crash landed.
constexpr uint64_t kShardPairKeys = 128;  // Keys 0..127: 64 pairs.
constexpr uint64_t kShardSingleBase = 128;
constexpr uint32_t kShardPartitions = 8;
constexpr int kShardPipelineDepth = 4;

struct ShardPlan {
  enum class Kill {
    kCoordinator,  // Router _exit(42)s after the Nth cross-shard txn's
                   // prepares hit the wire, before its decision is logged.
    kParticipant,  // One shard _exit(42)s after its Nth durable prepare,
                   // vote unsent.
    kRouterKill,   // Parent SIGKILLs the router mid-pipeline.
  };
  Kill kill;
  int victim_shard;     // kParticipant only.
  uint64_t kill_after;  // Cross-shard txns (crash hooks) or acks (SIGKILL).
};

ShardPlan MakeShardPlan(uint64_t seed) {
  Rng rng(seed ^ 0xA5A5D00DCAFEF00Dull);
  ShardPlan plan;
  switch (seed % 3) {
    case 0: plan.kill = ShardPlan::Kill::kCoordinator; break;
    case 1: plan.kill = ShardPlan::Kill::kParticipant; break;
    default: plan.kill = ShardPlan::Kill::kRouterKill; break;
  }
  plan.victim_shard = static_cast<int>((seed / 3) % kNumShards);
  plan.kill_after = 8 + rng.NextUint64(32);
  return plan;
}

/// Shard server child: a real 2PC-capable server over a value-logged
/// engine holding the keys where key % kNumShards == shard_id. Reports its
/// ephemeral port over the pipe, then serves until SIGTERM (clean close,
/// in-doubt branches released to the log) or _exit(42) from the
/// crash_after_prepares hook.
void RunShardServerChild(int shard_id, const std::string& dir,
                         uint64_t crash_after_prepares, bool recover,
                         int port_fd) {
  std::signal(SIGTERM, OnReplChildSignal);
  {
    EngineOptions eng = ReplEngineOptions(LoggingKind::kValue, dir);
    eng.num_partitions = kShardPartitions;
    Engine engine(eng);
    server::KvServiceOptions kv;
    kv.num_records = kShardRecords;
    kv.num_shards = kNumShards;
    kv.shard_id = static_cast<uint32_t>(shard_id);
    server::RegisterKvService(&engine, kv);
    if (recover) {
      RecoverOutcome outcome;
      if (!RecoverEngine(&engine, /*checkpoint_dir=*/"", dir,
                         /*rebuilder=*/nullptr, &outcome)
               .ok()) {
        ::_exit(98);
      }
    }
    server::ServerOptions srv;
    srv.num_workers = 2;
    srv.crash_after_prepares = crash_after_prepares;
    server::Server server(&engine, srv);
    if (!server.Start().ok()) ::_exit(99);
    const uint16_t port = server.port();
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) ::_exit(99);
    ::close(port_fd);
    ReplChildWait();
    server.Stop();
  }
  ::_exit(0);
}

/// Router child: the 2PC coordinator. Reports its port only after every
/// shard connection is up (in-doubt backlogs resolved), so the parent's
/// first request always lands on a ready topology.
void RunShardRouterChild(const std::vector<uint16_t>& shard_ports,
                         const std::string& dir,
                         uint64_t crash_after_prepares_sent, int port_fd) {
  std::signal(SIGTERM, OnReplChildSignal);
  {
    shard::ShardRouterOptions opts;
    for (const uint16_t shard_port : shard_ports) {
      opts.shards.push_back("127.0.0.1:" + std::to_string(shard_port));
    }
    opts.num_partitions = kShardPartitions;
    opts.log_dir = dir;
    opts.vote_timeout_ms = 2000;
    opts.io_backend = g_io_backend;
    opts.crash_after_prepares_sent = crash_after_prepares_sent;
    shard::ShardRouter router(opts);
    if (!router.Start().ok()) ::_exit(99);
    if (!router.WaitShardsConnected(15000)) ::_exit(97);
    const uint16_t port = router.port();
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) ::_exit(99);
    ::close(port_fd);
    ReplChildWait();
    router.Stop();
  }
  ::_exit(0);
}

/// Forks `child` with the write end of a fresh pipe and reads the port it
/// reports back. Returns -1 (no child) or the pid; *port stays 0 when the
/// child died before reporting.
pid_t ForkWithPort(const std::function<void(int)>& child, uint16_t* port) {
  *port = 0;
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child(fds[1]);
    ::_exit(99);  // The child entry point never returns.
  }
  ::close(fds[1]);
  if (::read(fds[0], port, sizeof(*port)) != sizeof(*port)) *port = 0;
  ::close(fds[0]);
  return pid;
}

struct ShardTopology {
  pid_t shard_pids[kNumShards] = {-1, -1};
  uint16_t shard_ports[kNumShards] = {0, 0};
  pid_t router_pid = -1;
  uint16_t router_port = 0;
};

/// Starts both shards and the router. Crash hooks arm only on the first
/// (pre-crash) incarnation; the recovery incarnation replays the same
/// directories with no hooks.
bool StartShardTopology(const ShardPlan& plan, const std::string& base_dir,
                        bool recover, ShardTopology* topo) {
  for (int i = 0; i < kNumShards; ++i) {
    const uint64_t crash_after =
        !recover && plan.kill == ShardPlan::Kill::kParticipant &&
                plan.victim_shard == i
            ? plan.kill_after
            : 0;
    const std::string dir = base_dir + "_s" + std::to_string(i);
    topo->shard_pids[i] = ForkWithPort(
        [&](int fd) {
          RunShardServerChild(i, dir, crash_after, recover, fd);
        },
        &topo->shard_ports[i]);
    if (topo->shard_pids[i] < 0 || topo->shard_ports[i] == 0) return false;
  }
  const uint64_t router_crash =
      !recover && plan.kill == ShardPlan::Kill::kCoordinator
          ? plan.kill_after
          : 0;
  const std::vector<uint16_t> ports(topo->shard_ports,
                                    topo->shard_ports + kNumShards);
  topo->router_pid = ForkWithPort(
      [&](int fd) {
        RunShardRouterChild(ports, base_dir + "_rt", router_crash, fd);
      },
      &topo->router_port);
  return topo->router_pid > 0 && topo->router_port != 0;
}

/// Reaps *pid (which must have terminated or been signalled) and marks it
/// reaped so the fail path does not double-wait.
bool ReapShardMember(pid_t* pid, bool killed, const char* who) {
  if (*pid <= 0) return true;
  const bool ok = ReapChild(*pid, killed, who);
  *pid = -1;
  return ok;
}

/// Reaps a member that must have died through its _exit(42) crash hook.
bool ReapCrashedMember(pid_t* pid, const char* who) {
  if (*pid <= 0) return true;
  int wstatus = 0;
  const pid_t reaped = ::waitpid(*pid, &wstatus, 0);
  const pid_t pid_was = *pid;
  *pid = -1;
  if (reaped != pid_was) {
    std::fprintf(stderr, "waitpid(%s) failed\n", who);
    return false;
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 42) {
    std::fprintf(stderr, "%s died outside its crash hook (status %d)\n",
                 who, wstatus);
    return false;
  }
  return true;
}

/// SIGTERMs a live member and demands a clean exit.
bool StopShardMember(pid_t* pid, const char* who) {
  if (*pid <= 0) return true;
  ::kill(*pid, SIGTERM);
  return ReapShardMember(pid, /*killed=*/false, who);
}

void KillShardTopology(ShardTopology* topo) {
  pid_t* pids[] = {&topo->shard_pids[0], &topo->shard_pids[1],
                   &topo->router_pid};
  for (pid_t* pid : pids) {
    if (*pid > 0) ::kill(*pid, SIGKILL);
  }
  for (pid_t* pid : pids) ReapShardMember(pid, /*killed=*/true, "topology");
}

/// Reads every key through the (recovered) router, retrying kUnavailable
/// while in-doubt gates clear, and checks the durability + atomicity
/// contract against the parent's ack record. Finishes with a liveness
/// probe: one single-shard and one cross-shard rmw must commit.
RoundResult AuditShardRound(uint16_t router_port, const AckedCounts& counts) {
  server::Client client;
  if (!client.Connect("127.0.0.1", router_port).ok()) {
    return Fail("audit: cannot connect to recovered router");
  }
  uint64_t next_id = 1;
  std::vector<uint64_t> deltas(kShardRecords, 0);
  for (uint64_t key = 0; key < kShardRecords; ++key) {
    server::Response response;
    for (int attempt = 0;; ++attempt) {
      server::Request request;
      request.request_id = next_id++;
      request.proc_id = server::kKvGet;
      server::WireWriter args(&request.args);
      args.PutU64(key);
      if (!client.Call(request, &response).ok()) {
        return Fail("audit transport failure at key " + std::to_string(key));
      }
      if (response.status != StatusCode::kUnavailable) break;
      if (attempt >= 200) {
        return Fail("in-doubt gate never cleared (key " +
                    std::to_string(key) + ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (response.status != StatusCode::kOk) {
      return Fail("audit read of key " + std::to_string(key) +
                  " failed with status " +
                  std::to_string(static_cast<int>(response.status)));
    }
    if (response.payload.size() < sizeof(uint64_t)) {
      return Fail("audit read of key " + std::to_string(key) +
                  " returned a short payload");
    }
    uint64_t counter;
    std::memcpy(&counter, response.payload.data(), sizeof(counter));
    deltas[key] = counter - key;  // Seed counter equals the key.
  }
  for (uint64_t key = 0; key < kShardRecords; ++key) {
    const RoundResult bounds = CheckAckedBounds(counts, key, deltas[key], "");
    if (!bounds.ok) return bounds;
  }
  for (uint64_t key = 0; key < kShardPairKeys; key += 2) {
    if (deltas[key] != deltas[key + 1]) {
      return Fail("atomicity violation: pair {" + std::to_string(key) + "," +
                  std::to_string(key + 1) + "} diverged: " +
                  std::to_string(deltas[key]) + " vs " +
                  std::to_string(deltas[key + 1]));
    }
  }
  const std::vector<std::vector<uint64_t>> probes = {
      {kShardSingleBase}, {0, 1}};
  for (const auto& keys : probes) {
    bool committed = false;
    for (int attempt = 0; attempt < 100 && !committed; ++attempt) {
      server::Response response;
      server::Request request = RmwRequest(keys);
      request.request_id = next_id++;
      if (!client.Call(request, &response).ok()) {
        return Fail("liveness probe transport failure");
      }
      if (response.status == StatusCode::kOk) {
        committed = true;
      } else if (response.status == StatusCode::kUnavailable ||
                 response.status == StatusCode::kAborted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      } else {
        return Fail("liveness probe failed with status " +
                    std::to_string(static_cast<int>(response.status)));
      }
    }
    if (!committed) {
      return Fail(keys.size() > 1
                      ? "cross-shard transactions never recovered"
                      : "single-shard transactions never recovered");
    }
  }
  return {true, ""};
}

int RunShardRound(uint64_t seed, const std::string& base_dir) {
  const ShardPlan plan = MakeShardPlan(seed);
  ShardTopology topo;
  auto fail_round = [&](const std::string& detail) {
    std::fprintf(stderr, "seed %llu: FAIL: %s\n",
                 static_cast<unsigned long long>(seed), detail.c_str());
    KillShardTopology(&topo);
    return 1;
  };
  if (!StartShardTopology(plan, base_dir, /*recover=*/false, &topo)) {
    return fail_round("shard topology failed to start");
  }

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 13);
  AckedCounts counts;
  uint64_t acked_txns = 0;
  uint64_t sent_txns = 0;
  bool shard_unavailable = false;
  constexpr uint64_t kMaxTxns = 4000;
  server::PipelineDriver load(
      kShardPipelineDepth, /*deadline_ms=*/10000,
      [&] {
        // Half the mix is a deliberate cross-shard pair; the rest is one
        // single-shard key from the disjoint upper range.
        ++sent_txns;
        if (rng.NextUint64(100) < 50) {
          const uint64_t pair = rng.NextUint64(kShardPairKeys / 2) * 2;
          return RmwRequest({pair, pair + 1});
        }
        return RmwRequest({kShardSingleBase +
                           rng.NextUint64(kShardRecords - kShardSingleBase)});
      },
      [&](const server::Request& request, const server::Response* response,
          uint64_t, uint64_t) {
        if (response != nullptr && response->status == StatusCode::kOk) {
          ++acked_txns;
        }
        if (response != nullptr &&
            response->status == StatusCode::kUnavailable) {
          shard_unavailable = true;
        }
        CountOutcome(request, response, &counts);
      });
  if (!load.Connect("127.0.0.1", topo.router_port)) {
    return fail_round("cannot connect to router");
  }
  const bool sigkill_mode = plan.kill == ShardPlan::Kill::kRouterKill;
  load.Run([&] {
    return shard_unavailable || sent_txns >= kMaxTxns ||
           (sigkill_mode && acked_txns >= plan.kill_after);
  });
  // A failed router connection ends every in-flight op as unknown.
  const bool transport_down = load.failures() > 0;

  const char* mode = "?";
  switch (plan.kill) {
    case ShardPlan::Kill::kCoordinator: {
      mode = "coordinator-crash";
      if (!transport_down) {
        return fail_round("coordinator crash hook never fired");
      }
      if (!ReapCrashedMember(&topo.router_pid, "router")) {
        return fail_round("router reap failed");
      }
      for (int i = 0; i < kNumShards; ++i) {
        if (!StopShardMember(&topo.shard_pids[i], "shard")) {
          return fail_round("shard did not survive the coordinator crash");
        }
      }
      break;
    }
    case ShardPlan::Kill::kParticipant: {
      mode = "participant-crash";
      if (transport_down) {
        return fail_round("router connection broke before the participant "
                          "crash");
      }
      if (!shard_unavailable) {
        return fail_round("participant crash hook never fired");
      }
      // The router is alive: every outstanding request gets some reply.
      load.Drain();
      if (!ReapCrashedMember(&topo.shard_pids[plan.victim_shard],
                             "victim shard")) {
        return fail_round("victim shard reap failed");
      }
      if (!StopShardMember(&topo.router_pid, "router")) {
        return fail_round("router did not survive the participant crash");
      }
      const int survivor = 1 - plan.victim_shard;
      if (!StopShardMember(&topo.shard_pids[survivor], "surviving shard")) {
        return fail_round("surviving shard did not stop cleanly");
      }
      break;
    }
    case ShardPlan::Kill::kRouterKill: {
      mode = "router-sigkill";
      if (transport_down || shard_unavailable) {
        return fail_round("topology degraded before the kill point");
      }
      ::kill(topo.router_pid, SIGKILL);
      load.Abandon();
      if (!ReapShardMember(&topo.router_pid, /*killed=*/true, "router")) {
        return fail_round("router reap failed");
      }
      for (int i = 0; i < kNumShards; ++i) {
        if (!StopShardMember(&topo.shard_pids[i], "shard")) {
          return fail_round("shard did not survive the router kill");
        }
      }
      break;
    }
  }

  // Recovery incarnation: same directories, no crash hooks. The router's
  // decision-log scan + in-doubt resolution must clear every branch.
  topo = ShardTopology();
  if (!StartShardTopology(plan, base_dir, /*recover=*/true, &topo)) {
    return fail_round("recovered topology failed to start");
  }
  RoundResult result = AuditShardRound(topo.router_port, counts);
  if (!StopShardMember(&topo.router_pid, "recovered router") && result.ok) {
    result = Fail("recovered router did not stop cleanly");
  }
  for (int i = 0; i < kNumShards; ++i) {
    if (!StopShardMember(&topo.shard_pids[i], "recovered shard") &&
        result.ok) {
      result = Fail("recovered shard did not stop cleanly");
    }
  }
  if (!result.ok) {
    std::fprintf(stderr, "seed %llu: FAIL: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.detail.c_str());
    return 1;
  }
  std::printf("seed %llu: %s survived (%llu acked of %llu sent)\n",
              static_cast<unsigned long long>(seed), mode,
              static_cast<unsigned long long>(acked_txns),
              static_cast<unsigned long long>(sent_txns));
  return 0;
}

int ShardMain(uint64_t rounds, uint64_t base_seed) {
  char dir_template[] = "/tmp/next700_shardcrash_XXXXXX";
  const char* base_dir = ::mkdtemp(dir_template);
  if (base_dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  int failures = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    const uint64_t seed = base_seed + i;
    const std::string round_dir =
        std::string(base_dir) + "/round_" + std::to_string(seed);
    failures += RunShardRound(seed, round_dir);
    RemoveLogDir(round_dir + "_s0");
    RemoveLogDir(round_dir + "_s1");
    RemoveLogDir(round_dir + "_rt");
  }
  ::rmdir(base_dir);
  std::printf("%llu shard rounds, %d failures\n",
              static_cast<unsigned long long>(rounds), failures);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Children embed real servers; a peer killed mid-write must surface as
  // EPIPE, not SIGPIPE-terminate the surviving processes. Inherited
  // across fork.
  std::signal(SIGPIPE, SIG_IGN);
  // Children flush inherited stdio on their crash hooks; keep the parent's
  // buffer empty so round banners are not replayed by forked children.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool shard = argc > 1 && std::strcmp(argv[1], "shard") == 0;
  if (shard || (argc > 1 && std::strcmp(argv[1], "repl") == 0)) {
    const uint64_t rounds =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
    const uint64_t base_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    if (argc > 4 && !io::ParseIoBackendKind(argv[4], &g_io_backend)) {
      std::fprintf(stderr, "bad io-backend: %s (auto|uring|epoll)\n",
                   argv[4]);
      return 2;
    }
    return shard ? ShardMain(rounds, base_seed)
                 : ReplMain(rounds, base_seed);
  }
  const uint64_t rounds = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
  const uint64_t base_seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  char dir_template[] = "/tmp/next700_crashtest_XXXXXX";
  const char* base_dir = ::mkdtemp(dir_template);
  if (base_dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  int failures = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    const uint64_t seed = base_seed + i;
    const std::string log_dir =
        std::string(base_dir) + "/round_" + std::to_string(seed);
    failures += RunRound(seed, log_dir);
    RemoveLogDir(log_dir);
    RemoveDirContents(log_dir + ".ckpt");
  }
  ::rmdir(base_dir);
  std::printf("%llu rounds, %d failures\n",
              static_cast<unsigned long long>(rounds), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace next700

int main(int argc, char** argv) { return next700::Main(argc, argv); }
