/// next700_run — command-line entry point. Two subcommands:
///
///   run (default)  Composes an engine from flags, loads a workload, runs a
///                  timed measurement in-process, and prints throughput plus
///                  latency percentiles — the "I just want to try a
///                  configuration" path; the bench_* binaries regenerate the
///                  paper's fixed experiment suite.
///   serve          Composes an engine, loads the KV stored-procedure
///                  service, and exposes it over TCP until SIGINT (or
///                  --seconds elapses). Drive it with next700_loadgen.
///                  --role=replica tails a primary's log stream and serves
///                  read-only snapshot transactions; --recover bootstraps
///                  from checkpoint + log instead of a fresh load (also
///                  how a replica is promoted: restart its directories
///                  with --role=primary --recover).
///   io-probe       Reports whether the kernel offers a usable io_uring
///                  (exit 0) or only the epoll fallback (exit 1) — CI
///                  matrix jobs use this to skip uring legs gracefully.
///
/// Examples:
///   next700_run --workload=ycsb --cc=SILO --threads=4 --theta=0.9
///   next700_run run --workload=tpcc --cc=WAIT_DIE --warehouses=4
///       --logging=command --log-dir=/tmp/tpcc.logd
///   next700_run serve --cc=HSTORE --workers=4 --partitions=4 --port=7700
///   next700_run serve --cc=SILO --logging=value --log-sync=fdatasync
///       --log-dir=/tmp/kv.logd
///   next700_run serve --logging=value --log-dir=/tmp/p.logd --port=7700
///       --repl-ack=semisync
///   next700_run serve --role=replica --primary-addr=127.0.0.1:7700
///       --logging=value --log-dir=/tmp/r.logd --port=7701

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "io/io_backend.h"
#include "log/checkpoint.h"
#include "log/manifest.h"
#include "repl/replica_applier.h"
#include "server/procs.h"
#include "server/server.h"
#include "shard/shard_router.h"
#include "flags.h"
#include "workload/driver.h"
#include "workload/smallbank.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace next700 {
namespace {

using tools::Flags;

void Usage() {
  std::fprintf(
      stderr,
      "usage: next700_run [run] --workload=ycsb|tpcc|tatp|smallbank "
      "[--cc=SCHEME] [--threads=N]\n"
      "  [--seconds=S] [--warmup=S] [--partitions=N] [--index=hash|btree]\n"
      "  [--logging=none|value|command] [--log-dir=DIR] "
      "[--log-sync=none|fdatasync|odsync]\n"
      "  [--log-segment-mb=N] [--log-latency-us=N] [--async-commit]\n"
      "  [--checkpoint-dir=DIR] [--checkpoint-interval-ms=N] "
      "[--checkpoint-no-truncate]\n"
      "  YCSB: [--records=N] [--theta=T] [--writes=F] [--ops=N] [--rmw]\n"
      "  TPC-C: [--warehouses=N]   TATP/SmallBank: [--records=N]\n"
      "\n"
      "usage: next700_run serve [--cc=SCHEME] [--workers=N] "
      "[--partitions=N]\n"
      "  [--host=ADDR] [--port=P] [--records=N] [--value-size=B] "
      "[--index=hash|btree]\n"
      "  [--logging=none|value|command] [--log-dir=DIR] "
      "[--log-sync=none|fdatasync|odsync]\n"
      "  [--log-segment-mb=N] [--log-latency-us=N] [--async-commit]\n"
      "  [--checkpoint-dir=DIR] [--checkpoint-interval-ms=N] "
      "[--checkpoint-no-truncate]\n"
      "  [--max-inflight=N] [--queue-capacity=N] [--seconds=S]  "
      "(seconds=0: serve until SIGINT)\n"
      "  [--io-backend=auto|uring|epoll]  (network + log submission "
      "backend; uring fails loudly if unsupported)\n"
      "  [--loops=N]  (event loops; 0 = auto: one per two CPUs, max 4, "
      "at most --workers)\n"
      "  [--role=primary|replica|shard-router] [--primary-addr=HOST:PORT] "
      "[--repl-ack=async|semisync]\n"
      "  [--recover]  (bootstrap from checkpoint + log; promotion = "
      "--role=primary --recover)\n"
      "  [--shard-id=N --num-shards=N]  (this server owns keys where "
      "key %% num-shards == shard-id)\n"
      "\n"
      "usage: next700_run serve --role=shard-router "
      "--shards=HOST:PORT,HOST:PORT,...\n"
      "  --log-dir=DIR  (coordinator decision log)  [--host=ADDR] "
      "[--port=P]\n"
      "  [--partitions=N]  (the shards' *global* partition count)\n"
      "  [--io-backend=auto|uring|epoll] [--loops=N]  (0 = auto: "
      "one event loop per two CPUs, max 4)\n"
      "  [--vote-timeout-ms=N] [--seconds=S]\n");
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

/// CcSchemeFromName() CHECK-aborts on unknown names; here a typo should
/// print usage instead of a stack trace.
CcScheme ParseCcScheme(Flags* flags) {
  const std::string name = flags->GetString("cc", "SILO");
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "OCC") upper = "SILO";
  for (CcScheme scheme : AllCcSchemes()) {
    if (upper == CcSchemeName(scheme)) return scheme;
  }
  flags->Die("bad --cc: " + name);
}

/// Engine-composition flags shared by both subcommands.
EngineOptions ParseEngineOptions(Flags* flags, int threads,
                                 uint32_t default_partitions) {
  EngineOptions eng;
  eng.cc_scheme = ParseCcScheme(flags);
  eng.max_threads = threads;
  eng.num_partitions = static_cast<uint32_t>(
      flags->GetInt("partitions", default_partitions));
  if (eng.num_partitions == 0) flags->Die("--partitions must be >= 1");
  const std::string logging = flags->GetString("logging", "none");
  if (logging == "value") {
    eng.logging = LoggingKind::kValue;
  } else if (logging == "command") {
    eng.logging = LoggingKind::kCommand;
  } else if (logging != "none") {
    flags->Die("bad --logging: " + logging);
  }
  eng.log_dir = flags->GetString("log-dir", "/tmp/next700_run.logd");
  const std::string sync = flags->GetString("log-sync", "none");
  if (sync == "fdatasync") {
    eng.log_sync = LogSyncPolicy::kFdatasync;
  } else if (sync == "odsync") {
    eng.log_sync = LogSyncPolicy::kODsync;
  } else if (sync != "none") {
    flags->Die("bad --log-sync: " + sync);
  }
  eng.log_segment_bytes =
      static_cast<uint64_t>(flags->GetInt("log-segment-mb", 64)) << 20;
  eng.log_device_latency_us =
      static_cast<uint64_t>(flags->GetInt("log-latency-us", 0));
  eng.sync_commit = !flags->GetBool("async-commit", false);
  eng.checkpoint_dir = flags->GetString("checkpoint-dir", "");
  eng.checkpoint_interval_ms =
      static_cast<uint64_t>(flags->GetInt("checkpoint-interval-ms", 0));
  eng.checkpoint_truncates_log =
      !flags->GetBool("checkpoint-no-truncate", false);
  if (!eng.checkpoint_dir.empty() && eng.logging == LoggingKind::kNone) {
    flags->Die("--checkpoint-dir requires --logging=value|command");
  }
  return eng;
}

/// Spawns the interval checkpointer once DDL + bulk load are done (the
/// snapshot scan must not race table creation or CC-free load writes).
void MaybeStartCheckpointer(Engine* engine) {
  if (engine->options().checkpoint_dir.empty()) return;
  engine->StartCheckpointer();
  std::printf("checkpointer: dir=%s interval=%llums truncate=%s\n",
              engine->options().checkpoint_dir.c_str(),
              static_cast<unsigned long long>(
                  engine->options().checkpoint_interval_ms),
              engine->options().checkpoint_truncates_log ? "yes" : "no");
}

io::IoBackendKind ParseIoBackend(Flags* flags) {
  const std::string name = flags->GetString("io-backend", "auto");
  io::IoBackendKind kind;
  if (!io::ParseIoBackendKind(name, &kind)) {
    flags->Die("bad --io-backend: " + name);
  }
  return kind;
}

/// --loops, shared by the server and shard-router roles (0 = auto).
int ParseLoops(Flags* flags) {
  const int loops = static_cast<int>(flags->GetInt("loops", 0));
  if (loops < 0) flags->Die("--loops must be >= 0");
  return loops;
}

IndexKind ParseIndexKind(Flags* flags) {
  const std::string index = flags->GetString("index", "hash");
  if (index == "hash") return IndexKind::kHash;
  if (index == "btree") return IndexKind::kBTree;
  flags->Die("bad --index: " + index);
}

/// `serve --role=shard-router`: no engine of its own — a routing tier in
/// front of N `serve --shard-id=I --num-shards=N` processes.
int RunShardRouter(Flags* flags) {
  shard::ShardRouterOptions opt;
  opt.listen_host = flags->GetString("host", "127.0.0.1");
  opt.listen_port = static_cast<uint16_t>(flags->GetInt("port", 0));
  const std::string shards = flags->GetString("shards", "");
  if (shards.empty()) {
    flags->Die("--role=shard-router requires --shards=HOST:PORT,...");
  }
  size_t pos = 0;
  while (pos <= shards.size()) {
    const size_t comma = shards.find(',', pos);
    const size_t end = comma == std::string::npos ? shards.size() : comma;
    if (end > pos) opt.shards.push_back(shards.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  opt.num_partitions =
      static_cast<uint32_t>(flags->GetInt("partitions", 8));
  opt.log_dir = flags->GetString("log-dir", "");
  if (opt.log_dir.empty()) {
    flags->Die("--role=shard-router requires --log-dir (decision log)");
  }
  opt.vote_timeout_ms = flags->GetInt("vote-timeout-ms", 5000);
  opt.io_backend = ParseIoBackend(flags);
  opt.num_loops = ParseLoops(flags);
  opt.crash_after_prepares_sent = static_cast<uint64_t>(
      flags->GetInt("crash-after-prepares-sent", 0));
  const double seconds = flags->GetDouble("seconds", 0.0);
  flags->RejectUnknown();

  shard::ShardRouter router(opt);
  const Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u (shard-router, %u shards, %u loops)\n",
              opt.listen_host.c_str(), router.port(), router.num_shards(),
              router.num_loops());
  std::fflush(stdout);
  if (router.WaitShardsConnected(15000)) {
    std::printf("all %u shards connected\n", router.num_shards());
  } else {
    std::printf("warning: not all shards reachable yet (still retrying)\n");
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const uint64_t deadline_ns =
      seconds > 0 ? NowNanos() + static_cast<uint64_t>(seconds * 1e9) : 0;
  while (!g_stop && (deadline_ns == 0 || NowNanos() < deadline_ns)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.Stop();
  const shard::ShardRouterStats& stats = router.stats();
  std::printf("\nforwarded:            %llu\n",
              static_cast<unsigned long long>(stats.forwarded.load()));
  std::printf("cross-shard commits:  %llu\n",
              static_cast<unsigned long long>(
                  stats.cross_shard_commits.load()));
  std::printf("cross-shard aborts:   %llu (%llu vote timeouts)\n",
              static_cast<unsigned long long>(
                  stats.cross_shard_aborts.load()),
              static_cast<unsigned long long>(stats.vote_timeouts.load()));
  std::printf("in-doubt resolved:    %llu\n",
              static_cast<unsigned long long>(
                  stats.resolved_in_doubt.load()));
  const uint64_t batches = stats.writev_batches.load();
  const uint64_t frames = stats.frames_batched.load();
  std::printf("io syscalls:          %llu\n",
              static_cast<unsigned long long>(router.io_syscalls()));
  std::printf("frames per writev:    %.2f (%llu frames / %llu batches)\n",
              batches > 0 ? static_cast<double>(frames) /
                                static_cast<double>(batches)
                          : 0.0,
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(batches));
  return 0;
}

int RunServe(Flags* flags) {
  if (flags->GetString("role", "primary") == "shard-router") {
    return RunShardRouter(flags);
  }
  const int workers = static_cast<int>(flags->GetInt("workers", 4));
  if (workers < 1) flags->Die("--workers must be >= 1");
  EngineOptions eng = ParseEngineOptions(
      flags, workers,
      /*default_partitions=*/static_cast<uint32_t>(workers));

  server::KvServiceOptions kv;
  kv.num_records = static_cast<uint64_t>(flags->GetInt("records", 100000));
  kv.value_size = static_cast<uint32_t>(flags->GetInt("value-size", 64));
  if (kv.value_size < 8) flags->Die("--value-size must be >= 8");
  kv.index_kind = ParseIndexKind(flags);
  kv.num_shards = static_cast<uint32_t>(flags->GetInt("num-shards", 1));
  if (kv.num_shards == 0) flags->Die("--num-shards must be >= 1");
  kv.shard_id = static_cast<uint32_t>(flags->GetInt("shard-id", 0));
  if (kv.shard_id >= kv.num_shards) {
    flags->Die("--shard-id must be < --num-shards");
  }

  server::ServerOptions srv;
  srv.host = flags->GetString("host", "127.0.0.1");
  srv.port = static_cast<uint16_t>(flags->GetInt("port", 0));
  srv.num_workers = workers;
  srv.max_inflight =
      static_cast<uint32_t>(flags->GetInt("max-inflight", 256));
  srv.queue_capacity =
      static_cast<size_t>(flags->GetInt("queue-capacity", 1024));
  // Crash-fault test hook (see ServerOptions::crash_after_prepares).
  srv.crash_after_prepares = static_cast<uint64_t>(
      flags->GetInt("crash-after-prepares", 0));
  srv.io_backend = ParseIoBackend(flags);
  srv.num_loops = ParseLoops(flags);
  eng.log_io_backend = srv.io_backend;

  const std::string role = flags->GetString("role", "primary");
  const bool is_replica = role == "replica";
  if (!is_replica && role != "primary") flags->Die("bad --role: " + role);
  const std::string repl_ack = flags->GetString("repl-ack", "async");
  if (repl_ack == "semisync") {
    srv.repl_ack = server::ReplAckMode::kSemisync;
  } else if (repl_ack != "async") {
    flags->Die("bad --repl-ack: " + repl_ack);
  }
  repl::ReplicaApplierOptions applier_opts;
  if (is_replica) {
    if (eng.logging == LoggingKind::kNone) {
      flags->Die("--role=replica requires --logging=value|command "
                 "(the replica keeps its own copy of the stream)");
    }
    if (!eng.checkpoint_dir.empty()) {
      flags->Die("--role=replica does not support --checkpoint-dir "
                 "(the snapshot gate cannot see the applier's raw writes)");
    }
    // The applier's Start() rejects a malformed address.
    applier_opts.primary = flags->GetString("primary-addr", "");
    if (applier_opts.primary.empty()) {
      flags->Die("--role=replica requires --primary-addr=HOST:PORT");
    }
  }
  const bool recover = flags->GetBool("recover", false);
  if (recover && eng.logging == LoggingKind::kNone) {
    flags->Die("--recover requires --logging=value|command");
  }
  const double seconds = flags->GetDouble("seconds", 0.0);
  flags->RejectUnknown();

  std::printf("composition: cc=%s workers=%d partitions=%u logging=%s%s "
              "role=%s\n",
              CcSchemeName(eng.cc_scheme), workers, eng.num_partitions,
              flags->GetString("logging", "none").c_str(),
              eng.sync_commit ? "" : " (async)", role.c_str());
  Engine engine(eng);
  const uint64_t load_start = NowNanos();
  // With --recover, rows come from the MANIFEST-named checkpoint (the
  // loader must leave the engine empty) or, when no checkpoint was ever
  // installed, from the deterministic seed load that full replay then
  // overlays — the same seed a fresh primary/replica pair starts from.
  const bool have_manifest =
      !eng.checkpoint_dir.empty() &&
      ::access(ManifestPath(eng.checkpoint_dir).c_str(), F_OK) == 0;
  kv.load_rows = !(recover && have_manifest);
  const uint64_t loaded = server::RegisterKvService(&engine, kv);
  std::printf("loaded %llu kv rows in %.2fs\n",
              static_cast<unsigned long long>(loaded),
              static_cast<double>(NowNanos() - load_start) / 1e9);
  if (recover) {
    RecoverOutcome outcome;
    const Status recovered = RecoverEngine(
        &engine, eng.checkpoint_dir, eng.log_dir, /*rebuilder=*/nullptr,
        &outcome);
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
    std::printf("recovered via %s: %llu txns replayed, durable_lsn=%llu\n",
                outcome.used_checkpoint ? "checkpoint+suffix" : "full replay",
                static_cast<unsigned long long>(outcome.log.txns_replayed),
                static_cast<unsigned long long>(
                    engine.log_manager()->durable_lsn()));
    if (engine.has_in_doubt()) {
      std::printf("in-doubt 2PC branches: %zu (refusing requests until the "
                  "coordinator resolves them)\n",
                  engine.InDoubtGtids().size());
    }
  }
  MaybeStartCheckpointer(&engine);

  std::unique_ptr<repl::ReplicaApplier> applier;
  if (is_replica) {
    applier = std::make_unique<repl::ReplicaApplier>(&engine, applier_opts);
    const Status applier_started = applier->Start();
    if (!applier_started.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   applier_started.ToString().c_str());
      return 1;
    }
    srv.snapshot_source = applier.get();
    std::printf("tailing primary at %s from lsn %llu\n",
                applier_opts.primary.c_str(),
                static_cast<unsigned long long>(applier->applied_lsn()));
  }

  server::Server srv_instance(&engine, srv);
  const Status started = srv_instance.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf(
      "listening on %s:%u (io backend: %s, log device: %s, %zu loops)\n",
      srv.host.c_str(), srv_instance.port(), srv_instance.io_backend_name(),
      engine.log_manager() != nullptr
          ? engine.log_manager()->io_backend_name()
          : "none",
      srv_instance.num_loops());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const uint64_t deadline_ns =
      seconds > 0 ? NowNanos() + static_cast<uint64_t>(seconds * 1e9) : 0;
  while (!g_stop && (deadline_ns == 0 || NowNanos() < deadline_ns)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Snapshot the network-path io counters before Stop() tears the backend
  // down.
  const char* io_name = srv_instance.io_backend_name();
  uint64_t io_reads = 0, io_writes = 0, io_accepts = 0, io_submissions = 0,
           io_syscalls = 0, io_waits = 0;
  if (const io::IoCounters* io = srv_instance.io_counters()) {
    io_reads = io->read_ops.load();
    io_writes = io->write_ops.load();
    io_accepts = io->accept_ops.load();
    io_submissions = io->submissions.load();
    io_syscalls = io->syscalls.load();
    io_waits = io->waits.load();
  }
  srv_instance.Stop();
  if (applier != nullptr) applier->Stop();

  const server::ServerStats& stats = srv_instance.stats();
  std::printf("\nconnections accepted: %llu\n",
              static_cast<unsigned long long>(
                  stats.connections_accepted.load()));
  std::printf("requests dispatched:  %llu (%llu run on the event loop)\n",
              static_cast<unsigned long long>(
                  stats.requests_dispatched.load()),
              static_cast<unsigned long long>(stats.requests_inline.load()));
  std::printf("responses sent:       %llu\n",
              static_cast<unsigned long long>(stats.responses_sent.load()));
  std::printf("protocol errors:      %llu\n",
              static_cast<unsigned long long>(stats.protocol_errors.load()));
  std::printf("admission rejects:    %llu\n",
              static_cast<unsigned long long>(
                  stats.admission_rejects.load()));
  std::printf("replies held durable: %llu\n",
              static_cast<unsigned long long>(
                  stats.replies_held_durable.load()));
  std::printf("io (%s): %llu reads, %llu writes, %llu accepts, "
              "%llu submissions over %llu syscalls (%llu waits)\n",
              io_name, static_cast<unsigned long long>(io_reads),
              static_cast<unsigned long long>(io_writes),
              static_cast<unsigned long long>(io_accepts),
              static_cast<unsigned long long>(io_submissions),
              static_cast<unsigned long long>(io_syscalls),
              static_cast<unsigned long long>(io_waits));
  std::printf("reply batching:       %llu frames over %llu writev "
              "(%.1f frames/writev)\n",
              static_cast<unsigned long long>(stats.frames_batched.load()),
              static_cast<unsigned long long>(stats.writev_batches.load()),
              stats.writev_batches.load() > 0
                  ? static_cast<double>(stats.frames_batched.load()) /
                        static_cast<double>(stats.writev_batches.load())
                  : 0.0);
  if (engine.log_manager() != nullptr) {
    std::printf("log device writes:    %llu (%s)\n",
                static_cast<unsigned long long>(
                    engine.log_manager()->write_syscalls()),
                engine.log_manager()->io_backend_name());
    const LogManager::FlushStats flushes =
        engine.log_manager()->TakeFlushStats();
    std::printf("group commit:         %llu flushes, txns/flush p50=%llu "
                "max=%llu, oldest-byte wait p50=%.1fus p99=%.1fus\n",
                static_cast<unsigned long long>(flushes.batch_records.count()),
                static_cast<unsigned long long>(
                    flushes.batch_records.Percentile(0.50)),
                static_cast<unsigned long long>(flushes.batch_records.max()),
                static_cast<double>(flushes.oldest_wait_ns.Percentile(0.50)) /
                    1e3,
                static_cast<double>(flushes.oldest_wait_ns.Percentile(0.99)) /
                    1e3);
  }
  if (stats.repl_batches_shipped.load() > 0 ||
      stats.repl_acks_received.load() > 0) {
    std::printf("repl batches shipped: %llu (%llu acks, %llu semisync "
                "degrades)\n",
                static_cast<unsigned long long>(
                    stats.repl_batches_shipped.load()),
                static_cast<unsigned long long>(
                    stats.repl_acks_received.load()),
                static_cast<unsigned long long>(
                    stats.semisync_degraded.load()));
  }
  if (applier != nullptr) {
    std::printf("replica applied:      lsn=%llu (%llu batches, %llu txns, "
                "%llu reconnects, lag=%llu bytes)\n",
                static_cast<unsigned long long>(applier->applied_lsn()),
                static_cast<unsigned long long>(applier->batches_applied()),
                static_cast<unsigned long long>(applier->txns_applied()),
                static_cast<unsigned long long>(applier->reconnects()),
                static_cast<unsigned long long>(applier->lag_bytes()));
    const Status stream = applier->stream_status();
    if (!stream.ok()) {
      std::printf("replica stream error: %s\n", stream.ToString().c_str());
    }
  }
  if (engine.checkpointer() != nullptr) {
    std::printf("checkpoints taken:    %llu\n",
                static_cast<unsigned long long>(
                    engine.checkpointer()->checkpoints_taken()));
    const Status bg = engine.checkpointer()->background_status();
    if (!bg.ok()) {
      std::printf("checkpointer error:   %s\n", bg.ToString().c_str());
    }
  }
  return 0;
}

int RunBench(Flags* flags) {
  const std::string workload_name = flags->GetString("workload", "ycsb");
  const int threads = static_cast<int>(flags->GetInt("threads", 4));
  if (threads < 1) flags->Die("--threads must be >= 1");

  EngineOptions eng = ParseEngineOptions(
      flags, threads, /*default_partitions=*/static_cast<uint32_t>(threads));

  std::unique_ptr<Workload> workload;
  if (workload_name == "ycsb") {
    YcsbOptions ycsb;
    ycsb.num_records =
        static_cast<uint64_t>(flags->GetInt("records", 1 << 20));
    ycsb.theta = flags->GetDouble("theta", 0.0);
    ycsb.write_fraction = flags->GetDouble("writes", 0.05);
    ycsb.ops_per_txn = static_cast<int>(flags->GetInt("ops", 16));
    ycsb.read_modify_write = flags->GetBool("rmw", false);
    ycsb.index_kind = ParseIndexKind(flags);
    ycsb.partitioned = eng.cc_scheme == CcScheme::kHstore;
    workload = std::make_unique<YcsbWorkload>(ycsb);
  } else if (workload_name == "tpcc") {
    TpccOptions tpcc;
    tpcc.num_warehouses =
        static_cast<uint32_t>(flags->GetInt("warehouses", threads));
    eng.num_partitions = tpcc.num_warehouses;
    workload = std::make_unique<TpccWorkload>(tpcc);
  } else if (workload_name == "tatp") {
    TatpOptions tatp;
    tatp.num_subscribers =
        static_cast<uint64_t>(flags->GetInt("records", 100000));
    workload = std::make_unique<TatpWorkload>(tatp);
  } else if (workload_name == "smallbank") {
    SmallBankOptions bank;
    bank.num_accounts =
        static_cast<uint64_t>(flags->GetInt("records", 100000));
    bank.theta = flags->GetDouble("theta", 0.0);
    workload = std::make_unique<SmallBankWorkload>(bank);
  } else {
    flags->Die("bad --workload: " + workload_name);
  }

  DriverOptions driver;
  driver.num_threads = threads;
  driver.measure_seconds = flags->GetDouble("seconds", 2.0);
  driver.warmup_seconds = flags->GetDouble("warmup", 0.25);
  flags->RejectUnknown();

  std::printf("composition: cc=%s threads=%d partitions=%u logging=%s%s\n",
              CcSchemeName(eng.cc_scheme), threads, eng.num_partitions,
              flags->GetString("logging", "none").c_str(),
              eng.sync_commit ? "" : " (async)");
  Engine engine(eng);
  std::printf("loading %s ...\n", workload->name());
  const uint64_t load_start = NowNanos();
  workload->Load(&engine);
  std::printf("loaded in %.2fs; measuring %.1fs on %d workers ...\n",
              static_cast<double>(NowNanos() - load_start) / 1e9,
              driver.measure_seconds, threads);
  MaybeStartCheckpointer(&engine);

  const RunStats stats = Driver::Run(&engine, workload.get(), driver);
  std::printf("\nthroughput: %.0f txn/s\n", stats.Throughput());
  std::printf("commits:    %llu\n",
              static_cast<unsigned long long>(stats.commits));
  std::printf("cc aborts:  %llu (ratio %.4f)\n",
              static_cast<unsigned long long>(stats.aborts),
              stats.AbortRatio());
  std::printf("user aborts:%llu\n",
              static_cast<unsigned long long>(stats.user_aborts));
  std::printf("latency:    %s\n", stats.commit_latency_ns.Summary().c_str());
  if (stats.log_bytes > 0) {
    std::printf("log bytes:  %.2f MB\n",
                static_cast<double>(stats.log_bytes) / (1024.0 * 1024.0));
  }
  if (engine.checkpointer() != nullptr) {
    std::printf("checkpoints:%llu\n",
                static_cast<unsigned long long>(
                    engine.checkpointer()->checkpoints_taken()));
  }
  return 0;
}

/// Exit 0 when the kernel offers a ring the backends can actually use
/// (setup + the features the implementation requires), 1 otherwise. The
/// CI io-backend matrix keys its uring leg off this.
int RunIoProbe(Flags* flags) {
  flags->RejectUnknown();
  if (io::UringSupported()) {
    std::printf("io_uring: supported\n");
    return 0;
  }
  std::printf("io_uring: unsupported (epoll fallback only)\n");
  return 1;
}

}  // namespace
}  // namespace next700

int main(int argc, char** argv) {
  using namespace next700;
  // A peer that disconnects mid-write must surface as EPIPE on that
  // connection, never kill the whole server.
  std::signal(SIGPIPE, SIG_IGN);
  Flags flags(argc, argv, Usage, /*allow_subcommand=*/true);
  const std::string& sub = flags.subcommand();
  if (sub == "serve") return RunServe(&flags);
  if (sub == "io-probe") return RunIoProbe(&flags);
  if (sub.empty() || sub == "run") return RunBench(&flags);
  flags.Die("unknown subcommand: " + sub);
}
