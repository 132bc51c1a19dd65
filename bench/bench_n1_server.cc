/// N1 — Networked service throughput and latency over loopback.
/// Starts the transaction service in-process (async submit/reap I/O spine,
/// KV stored-procedure suite, value logging so group commit gates replies)
/// and drives it with the pipelined load generator. Three sweeps:
///
///   1. pipeline depth x worker count for two compositions: H-STORE
///      (per-partition queue affinity) and SILO (shared run queue). Depth 1
///      is dominated by round-trip latency; deeper pipelines amortize the
///      wire and group-commit waits until workers saturate.
///   2. io backend (batched-epoll fallback vs io_uring, where the kernel
///      allows it) at fixed shape — the syscalls-per-txn series that the
///      async spine exists to improve: reply frames gathered into one
///      writev per readiness event, log writes batched by group commit.
///   3. connection count {64, 256, 1024} under the multiplexed load
///      generator (RLIMIT_NOFILE raised first) — scaling the number of
///      sockets must scale kernel entries sublinearly, not per-connection.
///
/// Every point carries syscalls_per_txn, log_writes_per_txn and
/// frames_per_writev so regressions in batching are visible in the JSON,
/// not just in throughput, plus the group-commit layer itself:
/// txns_per_flush (mean write txns per log flush) and commit_wait_us_p50
/// (median age of a flush's oldest byte when it became durable), and
/// inline_share: the fraction of dispatched requests the event loops ran
/// themselves instead of handing them to a worker (run-to-completion).
///
/// Sweep 1 also runs each cell on one event loop and on the automatic loop
/// count (the `loops` column), and every point reports the CPU each named
/// server thread used (n7-loop<i>, n7-worker<i>, n7-flush), as a share of
/// one core over the load run: the layer evidence for where a loop
/// saturates. Read from /proc/self/task/*/{comm,stat}.

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>

#include "bench_common.h"
#include "io/io_backend.h"
#include "server/loadgen.h"
#include "server/procs.h"
#include "server/server.h"

using namespace next700;
using namespace next700::bench;

namespace {

struct Composition {
  CcScheme scheme;
  bool declare_partitions;
};

std::vector<int> WorkerSweep() {
  return QuickMode() ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
}

std::vector<int> PipelineSweep() { return {1, 8, 64}; }

/// One event loop, and the server's automatic count (0).
std::vector<int> LoopSweep() { return {1, 0}; }

/// CPU seconds (user + system) of this process's threads, summed by thread
/// name, from /proc/self/task/*/{comm,stat}.
std::map<std::string, double> ThreadCpuByName() {
  std::map<std::string, double> cpu;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return cpu;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string task = std::string("/proc/self/task/") + entry->d_name;
    std::string name;
    std::getline(std::ifstream(task + "/comm"), name);
    std::string stat;
    std::getline(std::ifstream(task + "/stat"), stat);
    // Fields after the parenthesized name: state is field 3, utime 14 and
    // stime 15.
    const size_t close = stat.rfind(')');
    if (name.empty() || close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    cpu[name] += ticks / tick;
  }
  ::closedir(dir);
  return cpu;
}

std::vector<int> ConnectionSweep() {
  return QuickMode() ? std::vector<int>{64, 256}
                     : std::vector<int>{64, 256, 1024};
}

/// 1024-connection cells need ~2x that many fds between server and
/// in-process loadgen; lift the soft limit toward the hard one.
void RaiseFdLimit(rlim_t want) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = want < lim.rlim_max ? want : lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

/// Cumulative kernel-entry counters around one load run; per-server and
/// per-log totals only grow, so deltas isolate a single sweep point.
struct IoSnapshot {
  uint64_t io_syscalls = 0;
  uint64_t writev_batches = 0;
  uint64_t frames_batched = 0;
  uint64_t log_writes = 0;
  uint64_t requests_dispatched = 0;
  uint64_t requests_inline = 0;
};

IoSnapshot Snap(const server::Server& srv, Engine& engine) {
  IoSnapshot s;
  if (const io::IoCounters* c = srv.io_counters()) {
    s.io_syscalls = c->syscalls.load(std::memory_order_relaxed);
  }
  s.writev_batches = srv.stats().writev_batches.load(std::memory_order_relaxed);
  s.frames_batched = srv.stats().frames_batched.load(std::memory_order_relaxed);
  s.requests_dispatched =
      srv.stats().requests_dispatched.load(std::memory_order_relaxed);
  s.requests_inline =
      srv.stats().requests_inline.load(std::memory_order_relaxed);
  if (engine.log_manager() != nullptr) {
    s.log_writes = engine.log_manager()->write_syscalls();
  }
  return s;
}

/// Runs one load point against a running server and emits the CSV row and
/// JSON point. Returns false on transport errors (which fail the bench).
bool RunPoint(JsonOutput* json, const char* axis, server::Server* srv,
              Engine* engine, const Composition& comp, int workers,
              int connections, int pipeline,
              const server::LoadGenOptions& base) {
  const int loops = static_cast<int>(srv->num_loops());
  server::LoadGenOptions load = base;
  load.port = srv->port();
  load.connections = connections;
  load.pipeline_depth = pipeline;
  load.declare_partitions = comp.declare_partitions;
  // Beyond a handful of connections, multiplex them over a few poll()
  // threads instead of one OS thread each.
  load.threads = connections > 8 ? 8 : 0;

  LogManager* log = engine->log_manager();
  if (log != nullptr) (void)log->TakeFlushStats();  // Start the interval.
  const IoSnapshot before = Snap(*srv, *engine);
  const std::map<std::string, double> cpu_before = ThreadCpuByName();
  const uint64_t start_ns = NowNanos();
  const server::LoadGenStats stats = server::RunLoadGen(load);
  const double wall_s = static_cast<double>(NowNanos() - start_ns) / 1e9;
  const std::map<std::string, double> cpu_after = ThreadCpuByName();
  const IoSnapshot after = Snap(*srv, *engine);
  const LogManager::FlushStats flushes =
      log != nullptr ? log->TakeFlushStats() : LogManager::FlushStats{};
  const double txns_per_flush = flushes.batch_records.Mean();
  const double commit_wait_us_p50 =
      static_cast<double>(flushes.oldest_wait_ns.Percentile(0.50)) / 1e3;

  const double txns = stats.ok > 0 ? static_cast<double>(stats.ok) : 1.0;
  const double syscalls_per_txn =
      static_cast<double>(after.io_syscalls - before.io_syscalls) / txns;
  const double log_writes_per_txn =
      static_cast<double>(after.log_writes - before.log_writes) / txns;
  const uint64_t writevs = after.writev_batches - before.writev_batches;
  const double frames_per_writev =
      writevs > 0 ? static_cast<double>(after.frames_batched -
                                        before.frames_batched) /
                        static_cast<double>(writevs)
                  : 0.0;
  const uint64_t dispatched =
      after.requests_dispatched - before.requests_dispatched;
  const double inline_share =
      dispatched > 0 ? static_cast<double>(after.requests_inline -
                                           before.requests_inline) /
                           static_cast<double>(dispatched)
                     : 0.0;
  const double p50_us =
      static_cast<double>(stats.latency_ns.Percentile(0.50)) / 1e3;
  const double p95_us =
      static_cast<double>(stats.latency_ns.Percentile(0.95)) / 1e3;
  const double p99_us =
      static_cast<double>(stats.latency_ns.Percentile(0.99)) / 1e3;

  // Server threads only: each as a share of one core over the load run.
  std::vector<JsonOutput::Field> thread_cpu;
  std::string cpu_line;
  double loop_cpu_max = 0;
  for (const auto& [name, seconds] : cpu_after) {
    if (name.rfind("n7-", 0) != 0) continue;
    const auto it = cpu_before.find(name);
    const double share =
        (seconds - (it == cpu_before.end() ? 0.0 : it->second)) / wall_s;
    if (name.rfind("n7-loop", 0) == 0) {
      loop_cpu_max = std::max(loop_cpu_max, share);
    }
    thread_cpu.emplace_back("cpu_" + name, JsonOutput::Num(share));
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.2f", name.c_str(), share);
    cpu_line += buf;
  }

  std::printf(
      "%s,%s,%d,%d,%d,%d,%s,%.0f,%llu,%llu,%llu,%.0f,%.0f,%.0f,%.2f,%.3f,"
      "%.1f,%.2f,%.1f,%.3f,%.2f\n",
      axis, CcSchemeName(comp.scheme), workers, loops, connections, pipeline,
      srv->io_backend_name(), stats.Throughput(),
      static_cast<unsigned long long>(stats.ok),
      static_cast<unsigned long long>(stats.aborted),
      static_cast<unsigned long long>(stats.resource_exhausted), p50_us,
      p95_us, p99_us, syscalls_per_txn, log_writes_per_txn,
      frames_per_writev, txns_per_flush, commit_wait_us_p50, inline_share,
      loop_cpu_max);
  std::printf("# thread cpu (cores):%s\n", cpu_line.c_str());
  std::fflush(stdout);
  std::vector<JsonOutput::Field> point = {
      {"axis", JsonOutput::Str(axis)},
      {"scheme", JsonOutput::Str(CcSchemeName(comp.scheme))},
      {"workers", JsonOutput::Num(workers)},
      {"loops", JsonOutput::Num(loops)},
      {"connections", JsonOutput::Num(connections)},
      {"pipeline", JsonOutput::Num(pipeline)},
      {"io_backend", JsonOutput::Str(srv->io_backend_name())},
      {"log_device", JsonOutput::Str(
                         engine->log_manager() != nullptr
                             ? engine->log_manager()->io_backend_name()
                             : "none")},
      {"throughput_txn_s", JsonOutput::Num(stats.Throughput())},
      {"ok", JsonOutput::Num(static_cast<double>(stats.ok))},
      {"aborted", JsonOutput::Num(static_cast<double>(stats.aborted))},
      {"rejected",
       JsonOutput::Num(static_cast<double>(stats.resource_exhausted))},
      {"transport_errors",
       JsonOutput::Num(static_cast<double>(stats.transport_errors))},
      {"p50_us", JsonOutput::Num(p50_us)},
      {"p95_us", JsonOutput::Num(p95_us)},
      {"p99_us", JsonOutput::Num(p99_us)},
      {"syscalls_per_txn", JsonOutput::Num(syscalls_per_txn)},
      {"log_writes_per_txn", JsonOutput::Num(log_writes_per_txn)},
      {"frames_per_writev", JsonOutput::Num(frames_per_writev)},
      {"txns_per_flush", JsonOutput::Num(txns_per_flush)},
      {"commit_wait_us_p50", JsonOutput::Num(commit_wait_us_p50)},
      {"inline_share", JsonOutput::Num(inline_share)},
      {"loop_cpu_max", JsonOutput::Num(loop_cpu_max)}};
  point.insert(point.end(), thread_cpu.begin(), thread_cpu.end());
  json->AddPoint(std::move(point));
  if (stats.transport_errors != 0) {
    std::fprintf(stderr, "transport errors: %llu\n",
                 static_cast<unsigned long long>(stats.transport_errors));
    return false;
  }
  return true;
}

struct Service {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<server::Server> server;
};

Service StartService(const Composition& comp, int workers, int loops,
                     uint64_t records, const std::string& log_dir,
                     io::IoBackendKind backend) {
  EngineOptions eng;
  eng.cc_scheme = comp.scheme;
  eng.max_threads = workers;
  eng.num_partitions = static_cast<uint32_t>(workers);
  eng.logging = LoggingKind::kValue;
  RemoveLogDir(log_dir);  // Reset between sweep cells.
  eng.log_dir = log_dir;
  eng.log_io_backend = backend;
  Service service;
  service.engine = std::make_unique<Engine>(eng);
  server::KvServiceOptions kv;
  kv.num_records = records;
  server::RegisterKvService(service.engine.get(), kv);
  server::ServerOptions srv;
  srv.num_workers = workers;
  srv.num_loops = loops;
  srv.io_backend = backend;
  service.server =
      std::make_unique<server::Server>(service.engine.get(), srv);
  const Status started = service.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    service.server.reset();
  }
  return service;
}

}  // namespace

int main(int argc, char** argv) {
  JsonOutput json(argc, argv);
  json.SetExperiment(
      "N1", "networked service: loopback throughput/latency vs pipeline "
            "depth x workers x loops x composition x io backend x "
            "connections");
  PrintHeader("N1",
              "networked service: loopback throughput/latency vs pipeline "
              "depth x workers x loops x composition x io backend x "
              "connections",
              "axis,scheme,workers,loops,connections,pipeline,io_backend,"
              "throughput_txn_s,ok,aborted,rejected,p50_us,p95_us,p99_us,"
              "syscalls_per_txn,log_writes_per_txn,frames_per_writev,"
              "txns_per_flush,commit_wait_us_p50,inline_share,loop_cpu_max");

  const uint64_t records = QuickMode() ? 20000 : 100000;
  const double seconds = QuickMode() ? 0.3 : 2.0;
  const double warmup = QuickMode() ? 0.1 : 0.5;
  const std::string log_dir = "/tmp/next700_bench_n1.logd";
  RaiseFdLimit(8192);

  server::LoadGenOptions base;
  base.warmup_seconds = warmup;
  base.seconds = seconds;
  base.num_records = records;
  base.get_fraction = 0.5;
  base.put_fraction = 0.25;
  base.rmw_keys = 2;

  // Sweep 1: composition x workers x loops x pipeline.
  for (const Composition& comp :
       {Composition{CcScheme::kHstore, true},
        Composition{CcScheme::kOcc, false}}) {
    for (int workers : WorkerSweep()) {
      for (int loops : LoopSweep()) {
        Service service = StartService(comp, workers, loops, records,
                                       log_dir, io::IoBackendKind::kAuto);
        if (service.server == nullptr) return 1;
        for (int pipeline : PipelineSweep()) {
          server::LoadGenOptions load = base;
          load.num_partitions = static_cast<uint32_t>(workers);
          if (!RunPoint(&json, "pipeline", service.server.get(),
                        service.engine.get(), comp, workers,
                        /*connections=*/4, pipeline, load)) {
            return 1;
          }
        }
        service.server->Stop();
      }
    }
  }

  // Sweeps 2 + 3: io backend x connection count at a fixed composition.
  // The backend axis is the headline of the async spine: same workload,
  // fewer kernel entries. The connection axis shows batching holding up
  // as sockets multiply.
  const Composition occ{CcScheme::kOcc, false};
  const int conn_workers = QuickMode() ? 2 : 4;
  std::vector<io::IoBackendKind> backends = {io::IoBackendKind::kEpoll};
  if (io::UringSupported()) {
    backends.push_back(io::IoBackendKind::kUring);
  } else {
    std::fprintf(stderr,
                 "# io_uring unavailable on this kernel/sandbox — "
                 "connection sweep runs the epoll fallback only\n");
  }
  for (const io::IoBackendKind backend : backends) {
    Service service = StartService(occ, conn_workers, /*loops=*/0, records,
                                   log_dir, backend);
    if (service.server == nullptr) return 1;
    for (int connections : ConnectionSweep()) {
      server::LoadGenOptions load = base;
      load.num_partitions = static_cast<uint32_t>(conn_workers);
      if (!RunPoint(&json, "connections", service.server.get(),
                    service.engine.get(), occ, conn_workers, connections,
                    /*pipeline=*/8, load)) {
        return 1;
      }
    }
    service.server->Stop();
  }
  return 0;
}
