/// next700_loadgen — multi-threaded load generator for a running
/// `next700_run serve` instance. One poll thread per pipelined connection
/// (or --threads shared among them), driving the KV stored-procedure
/// suite with a configurable get/put/rmw mix over Zipf-skewed keys;
/// prints throughput, outcome counts, and client-observed latency
/// percentiles.
///
/// The key-space flags (--records, --partitions, --value-size) must match
/// the server's composition; --declare-partitions is required when the
/// server runs an H-Store composition.
///
/// Examples:
///   next700_loadgen --port=7700 --connections=8 --pipeline=16 --seconds=10
///   next700_loadgen --port=7700 --partitions=4 --declare-partitions
///       --get=0.0 --put=0.0 --rmw-keys=1

#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/loadgen.h"
#include "flags.h"

namespace next700 {
namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: next700_loadgen --port=P [--host=ADDR] [--connections=N]\n"
      "  [--pipeline=N] [--threads=N] [--seconds=S] [--warmup=S] "
      "[--records=N]\n"
      "  [--partitions=N] [--value-size=B] [--declare-partitions] "
      "[--get=F]\n"
      "  [--put=F] [--rmw-keys=N] [--theta=T] [--seed=N] "
      "[--deadline-ms=N]\n"
      "  [--check] [--audit] [--min-read-lsn=N] [--num-shards=N]\n"
      "  [--multi-shard=F]\n"
      "\n"
      "Op mix: get + put fractions; the remainder is read-modify-write.\n"
      "--num-shards > 1 (driving a shard router) makes rmw key sets\n"
      "shard-aware; --multi-shard is the fraction of rmws that span two\n"
      "shards (cross-shard 2PC transactions).\n"
      "--threads=0 (default) runs one poll thread per connection;\n"
      "--threads=N multiplexes the connections over N poll() threads —\n"
      "required to drive hundreds or thousands of connections.\n"
      "--check exits nonzero unless the run had OK commits and no "
      "transport errors.\n"
      "--audit scans every key instead of generating load and prints a\n"
      "machine-readable 'AUDIT ...' line (counter deltas prove how many\n"
      "acked increments the store retains); --min-read-lsn demands a\n"
      "replica snapshot at least that fresh.\n");
}

}  // namespace
}  // namespace next700

int main(int argc, char** argv) {
  using namespace next700;
  tools::Flags flags(argc, argv, Usage);

  server::LoadGenOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  const int64_t port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) flags.Die("--port is required (1..65535)");
  options.port = static_cast<uint16_t>(port);
  options.connections = static_cast<int>(flags.GetInt("connections", 4));
  if (options.connections < 1) flags.Die("--connections must be >= 1");
  options.pipeline_depth = static_cast<int>(flags.GetInt("pipeline", 8));
  if (options.pipeline_depth < 1) flags.Die("--pipeline must be >= 1");
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  if (options.threads < 0) flags.Die("--threads must be >= 0");
  options.warmup_seconds = flags.GetDouble("warmup", 0.0);
  options.seconds = flags.GetDouble("seconds", 5.0);
  if (options.seconds <= 0) flags.Die("--seconds must be > 0");
  options.num_records =
      static_cast<uint64_t>(flags.GetInt("records", 100000));
  options.num_partitions =
      static_cast<uint32_t>(flags.GetInt("partitions", 1));
  if (options.num_partitions == 0) flags.Die("--partitions must be >= 1");
  options.value_size =
      static_cast<uint32_t>(flags.GetInt("value-size", 64));
  options.declare_partitions = flags.GetBool("declare-partitions", false);
  options.get_fraction = flags.GetDouble("get", 0.5);
  options.put_fraction = flags.GetDouble("put", 0.0);
  if (options.get_fraction < 0 || options.put_fraction < 0 ||
      options.get_fraction + options.put_fraction > 1.0) {
    flags.Die("--get/--put must be nonnegative and sum to <= 1.0");
  }
  options.rmw_keys = static_cast<uint16_t>(flags.GetInt("rmw-keys", 4));
  options.theta = flags.GetDouble("theta", 0.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.deadline_ms = flags.GetInt("deadline-ms", 10000);
  options.num_shards = static_cast<uint32_t>(flags.GetInt("num-shards", 1));
  if (options.num_shards == 0) flags.Die("--num-shards must be >= 1");
  options.multi_shard_fraction = flags.GetDouble("multi-shard", 0.0);
  if (options.multi_shard_fraction < 0 || options.multi_shard_fraction > 1) {
    flags.Die("--multi-shard must be in [0, 1]");
  }
  const bool check = flags.GetBool("check", false);
  const bool audit = flags.GetBool("audit", false);
  const uint64_t min_read_lsn =
      static_cast<uint64_t>(flags.GetInt("min-read-lsn", 0));
  flags.RejectUnknown();

  if (audit) {
    server::KvAuditResult result;
    const Status status =
        server::RunKvAudit(options, min_read_lsn, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "AUDIT FAIL transport: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    std::printf("AUDIT keys=%llu missing=%llu errors=%llu "
                "increments=%llu snapshot_lsn=%llu\n",
                static_cast<unsigned long long>(result.keys_checked),
                static_cast<unsigned long long>(result.missing),
                static_cast<unsigned long long>(result.errors),
                static_cast<unsigned long long>(result.increment_sum),
                static_cast<unsigned long long>(result.snapshot_lsn));
    return result.errors == 0 ? 0 : 1;
  }

  std::printf("driving %s:%u: %d conns x depth %d, %.1fs "
              "(get=%.2f put=%.2f rmw=%.2f theta=%.2f)\n",
              options.host.c_str(), options.port, options.connections,
              options.pipeline_depth, options.seconds, options.get_fraction,
              options.put_fraction,
              1.0 - options.get_fraction - options.put_fraction,
              options.theta);
  std::fflush(stdout);

  const server::LoadGenStats stats = server::RunLoadGen(options);

  std::printf("\nthroughput: %.0f txn/s\n", stats.Throughput());
  std::printf("ok:         %llu\n",
              static_cast<unsigned long long>(stats.ok));
  std::printf("aborted:    %llu\n",
              static_cast<unsigned long long>(stats.aborted));
  std::printf("rejected:   %llu (admission)\n",
              static_cast<unsigned long long>(stats.resource_exhausted));
  std::printf("errors:     %llu other, %llu transport\n",
              static_cast<unsigned long long>(stats.other_errors),
              static_cast<unsigned long long>(stats.transport_errors));
  std::printf("unknown:    %llu (in flight on failed connections)\n",
              static_cast<unsigned long long>(stats.unknown));
  std::printf("latency:    %s\n", stats.latency_ns.Summary().c_str());

  if (check && (stats.ok == 0 || stats.transport_errors != 0)) {
    std::fprintf(stderr, "check failed: ok=%llu transport_errors=%llu\n",
                 static_cast<unsigned long long>(stats.ok),
                 static_cast<unsigned long long>(stats.transport_errors));
    return 1;
  }
  return 0;
}
