/// N2 — Replication cost and staleness over loopback.
/// Starts the transaction service in-process with value logging and
/// attaches 0..2 in-process replicas (engine + log applier per replica),
/// then drives the pipelined load generator against the primary for three
/// ack modes: no replication, async shipping (commit acks gate only on
/// local durability), and semisync (acks additionally wait for one replica
/// to report the bytes durable on its own log). Reported per point:
/// primary throughput/latency and the replication lag the replicas showed
/// during the measurement window (primary durable LSN minus replica
/// applied LSN, sampled every few milliseconds). Expected shape: async
/// shipping costs a few percent of primary throughput (the event loop
/// shares cycles with the shippers) at a small steady-state lag; semisync
/// adds a loopback round trip plus the replica's group-commit interval to
/// every commit ack, which pipelining largely hides at the throughput
/// level but which is visible in p50.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "repl/replica_applier.h"
#include "server/loadgen.h"
#include "server/procs.h"
#include "server/server.h"

using namespace next700;
using namespace next700::bench;

namespace {

struct Mode {
  const char* name;
  server::ReplAckMode ack;
  std::vector<int> replica_counts;
};

struct ReplicaNode {
  std::string log_dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<repl::ReplicaApplier> applier;
};

EngineOptions NodeEngineOptions(int workers, const std::string& log_dir) {
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = workers;
  eng.num_partitions = static_cast<uint32_t>(workers);
  eng.logging = LoggingKind::kValue;
  eng.log_dir = log_dir;
  return eng;
}

}  // namespace

int main(int argc, char** argv) {
  JsonOutput json(argc, argv);
  json.SetExperiment(
      "N2", "replication: primary throughput and replica lag vs ack mode "
            "x replica count");
  PrintHeader("N2",
              "replication: primary throughput and replica lag vs ack mode "
              "x replica count",
              "mode,replicas,throughput_txn_s,ok,p50_us,p99_us,"
              "lag_mean_bytes,lag_max_bytes");

  const uint64_t records = QuickMode() ? 20000 : 100000;
  const double seconds = QuickMode() ? 0.3 : 2.0;
  const double warmup = QuickMode() ? 0.1 : 0.5;
  const int workers = 2;
  const std::string base_dir = "/tmp/next700_bench_n2";

  const std::vector<Mode> modes = {
      {"no-repl", server::ReplAckMode::kAsync, {0}},
      {"async", server::ReplAckMode::kAsync, {1, 2}},
      {"semisync", server::ReplAckMode::kSemisync, {1, 2}},
  };

  for (const Mode& mode : modes) {
    for (int num_replicas : mode.replica_counts) {
      const std::string primary_dir = base_dir + "_p.logd";
      RemoveLogDir(primary_dir);
      Engine engine(NodeEngineOptions(workers, primary_dir));
      server::KvServiceOptions kv;
      kv.num_records = records;
      server::RegisterKvService(&engine, kv);

      server::ServerOptions srv;
      srv.num_workers = workers;
      srv.repl_ack = mode.ack;
      server::Server server(&engine, srv);
      const Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }

      std::vector<std::unique_ptr<ReplicaNode>> replicas;
      for (int r = 0; r < num_replicas; ++r) {
        auto node = std::make_unique<ReplicaNode>();
        node->log_dir = base_dir + "_r" + std::to_string(r) + ".logd";
        RemoveLogDir(node->log_dir);
        node->engine = std::make_unique<Engine>(
            NodeEngineOptions(workers, node->log_dir));
        server::KvServiceOptions rkv;
        rkv.num_records = records;
        server::RegisterKvService(node->engine.get(), rkv);
        repl::ReplicaApplierOptions opts;
        opts.primary = "127.0.0.1:" + std::to_string(server.port());
        node->applier = std::make_unique<repl::ReplicaApplier>(
            node->engine.get(), opts);
        const Status s = node->applier->Start();
        if (!s.ok()) {
          std::fprintf(stderr, "replica start failed: %s\n",
                       s.ToString().c_str());
          return 1;
        }
        replicas.push_back(std::move(node));
      }

      // Lag sampler: max over replicas of (primary durable - applied),
      // every 5ms for the duration of the load.
      std::atomic<bool> sampling{num_replicas > 0};
      uint64_t lag_sum = 0, lag_samples = 0, lag_max = 0;
      std::thread sampler;
      if (num_replicas > 0) {
        sampler = std::thread([&] {
          while (sampling.load(std::memory_order_acquire)) {
            uint64_t worst = 0;
            // Applied first: sampling durable before applied could show a
            // negative (wrapped) lag when the replica advances in between.
            for (const auto& node : replicas) {
              const Lsn applied = node->applier->applied_lsn();
              const Lsn durable = engine.log_manager()->durable_lsn();
              worst = std::max<uint64_t>(
                  worst, durable >= applied ? durable - applied : 0);
            }
            lag_sum += worst;
            ++lag_samples;
            lag_max = std::max(lag_max, worst);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        });
      }

      server::LoadGenOptions load;
      load.port = server.port();
      load.connections = 4;
      load.pipeline_depth = 8;
      load.warmup_seconds = warmup;
      load.seconds = seconds;
      load.num_records = records;
      load.num_partitions = static_cast<uint32_t>(workers);
      load.get_fraction = 0.5;
      load.put_fraction = 0.25;
      load.rmw_keys = 2;
      const server::LoadGenStats stats = server::RunLoadGen(load);

      if (sampler.joinable()) {
        sampling.store(false, std::memory_order_release);
        sampler.join();
      }
      const double lag_mean =
          lag_samples > 0 ? static_cast<double>(lag_sum) /
                                static_cast<double>(lag_samples)
                          : 0.0;
      const double p50_us =
          static_cast<double>(stats.latency_ns.Percentile(0.50)) / 1e3;
      const double p99_us =
          static_cast<double>(stats.latency_ns.Percentile(0.99)) / 1e3;

      std::printf("%s,%d,%.0f,%llu,%.0f,%.0f,%.0f,%llu\n", mode.name,
                  num_replicas, stats.Throughput(),
                  static_cast<unsigned long long>(stats.ok), p50_us, p99_us,
                  lag_mean, static_cast<unsigned long long>(lag_max));
      std::fflush(stdout);
      json.AddPoint(
          {{"mode", JsonOutput::Str(mode.name)},
           {"replicas", JsonOutput::Num(num_replicas)},
           {"throughput_txn_s", JsonOutput::Num(stats.Throughput())},
           {"ok", JsonOutput::Num(static_cast<double>(stats.ok))},
           {"transport_errors",
            JsonOutput::Num(static_cast<double>(stats.transport_errors))},
           {"p50_us", JsonOutput::Num(p50_us)},
           {"p99_us", JsonOutput::Num(p99_us)},
           {"lag_mean_bytes", JsonOutput::Num(lag_mean)},
           {"lag_max_bytes",
            JsonOutput::Num(static_cast<double>(lag_max))}});
      if (stats.transport_errors != 0) {
        std::fprintf(stderr, "transport errors: %llu\n",
                     static_cast<unsigned long long>(stats.transport_errors));
        return 1;
      }

      server.Stop();
      for (auto& node : replicas) node->applier->Stop();
      for (auto& node : replicas) RemoveLogDir(node->log_dir);
      replicas.clear();
      RemoveLogDir(primary_dir);
    }
  }
  return 0;
}
