#ifndef NEXT700_SERVER_LOADGEN_H_
#define NEXT700_SERVER_LOADGEN_H_

/// \file
/// Pipelined client driver for the transaction service, and the load
/// generator and key-scan audit built on it. PipelineDriver is the one
/// loop that keeps requests in flight: nonblocking connections under
/// poll(), each topped up to a fixed depth from a caller-supplied source,
/// replies paired with requests in FIFO order, and every op reported once
/// to a completion callback, with its reply or as *unknown*. RunLoadGen
/// drives the KV procedure suite (server/procs.h) with a configurable
/// get/put/rmw mix over Zipf-skewed keys from one or more driver threads;
/// it is the measurement core of the N1 experiment and of
/// `next700_loadgen`. crashtest's load phases use the driver directly.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "server/protocol.h"

namespace next700 {
namespace server {

/// Single-threaded; the callbacks run on the caller's thread and must not
/// call back into the driver. A connection fails (and counts once in
/// failures()) on a connect or handshake error, EOF, a send error, a
/// decode error, a reply whose frame type or request id is out of order,
/// or when it has ops in flight and no reply for `deadline_ms` (<= 0: no
/// limit). Every op still in flight on a failed connection completes as
/// unknown.
class PipelineDriver {
 public:
  /// The next request to issue; the driver assigns its request_id.
  using Source = std::function<Request()>;
  /// Called exactly once per issued op: with its reply, or with
  /// `response == nullptr` when the outcome is unknown. Latency runs from
  /// `invoke_ns` (the request was encoded) to `complete_ns` (its reply was
  /// decoded, or the driver gave up on it).
  using Completion =
      std::function<void(const Request& request, const Response* response,
                         uint64_t invoke_ns, uint64_t complete_ns)>;

  PipelineDriver(int depth, int64_t deadline_ms, Source source,
                 Completion complete);
  /// Abandons whatever is still in flight (the completion still runs).
  ~PipelineDriver();
  PipelineDriver(const PipelineDriver&) = delete;
  PipelineDriver& operator=(const PipelineDriver&) = delete;

  /// Opens one more connection: the handshake runs through a Client, the
  /// released fd is then driven nonblocking. False if it failed.
  bool Connect(const std::string& host, uint16_t port);

  /// Keeps every live connection topped up to the depth until `stop()`
  /// returns true (checked before each issue and each reply) or no
  /// connection is live. Ops still in flight, including any whose reply
  /// was read but not yet paired, stay in flight for Drain() or Abandon().
  void Run(const std::function<bool()>& stop);
  /// Issues nothing more and reads until nothing is in flight; a
  /// connection that stalls past the deadline fails as above.
  void Drain();
  /// Ends every in-flight op as unknown without reading and closes every
  /// connection. Not a failure.
  void Abandon();

  uint64_t failures() const { return failures_; }

 private:
  struct Conn;
  bool Poll(const std::function<bool()>* stop);
  void Read(Conn* conn, const std::function<bool()>* stop);
  void Decode(Conn* conn, const std::function<bool()>* stop);
  void Issue(Conn* conn);
  void Flush(Conn* conn);
  void Fail(Conn* conn);
  void Close(Conn* conn);

  const size_t depth_;
  const uint64_t deadline_ns_;  // 0: no stall limit.
  Source source_;
  Completion complete_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t failures_ = 0;
};

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 4;
  int pipeline_depth = 8;  // Requests kept in flight per connection.
  /// Driver threads, each polling an even share of the connections. 0 (or
  /// >= connections) means one thread per connection; a few threads drive
  /// connection counts in the hundreds or thousands.
  int threads = 0;
  double warmup_seconds = 0.0;
  double seconds = 5.0;
  /// Key space / partition map; must match the server's KvServiceOptions
  /// and engine partition count.
  uint64_t num_records = 100000;
  uint32_t num_partitions = 1;
  uint32_t value_size = 64;
  /// Declare per-request partition sets (required for correctness-checked
  /// H-Store compositions; harmless elsewhere).
  bool declare_partitions = false;
  /// Op mix: get + put + (remainder) rmw.
  double get_fraction = 0.5;
  double put_fraction = 0.0;
  uint16_t rmw_keys = 4;
  double theta = 0.0;  // Zipf skew over the key space.
  uint64_t seed = 42;
  /// A connection with requests in flight and no reply for this long
  /// fails; <= 0 waits forever.
  int64_t deadline_ms = 10000;
  /// Sharded deployments (driving a shard router): with num_shards > 1,
  /// rmw key sets are shard-aware — a `multi_shard_fraction` slice becomes
  /// deliberate cross-shard transactions ({k, k+1}: adjacent keys always
  /// land on different shards under the modulo map), the rest have every
  /// key coerced onto one shard so they take the router's fast path. The
  /// N3 experiment sweeps this fraction. num_shards = 1 leaves the
  /// classic key generation untouched.
  uint32_t num_shards = 1;
  double multi_shard_fraction = 0.0;
};

struct LoadGenStats {
  uint64_t requests_sent = 0;
  uint64_t ok = 0;
  uint64_t aborted = 0;            // kAborted responses (CC conflicts).
  uint64_t resource_exhausted = 0;  // Admission-control rejections.
  uint64_t other_errors = 0;       // Any other non-OK response status.
  /// In-flight requests whose outcome a failed connection lost; they may
  /// or may not have committed. requests_sent == ok + aborted +
  /// resource_exhausted + other_errors + unknown.
  uint64_t unknown = 0;
  /// Failed connections (connect failure, stall past deadline_ms, EOF or
  /// protocol violation), once each. unknown > 0 implies this is > 0.
  uint64_t transport_errors = 0;
  double elapsed_seconds = 0;
  Histogram latency_ns;

  double Throughput() const {
    return elapsed_seconds > 0
               ? static_cast<double>(ok) / elapsed_seconds
               : 0.0;
  }
};

/// Runs the load and blocks until the measurement window ends and every
/// outstanding request is drained. Requests issued during warmup stay out
/// of every count.
LoadGenStats RunLoadGen(const LoadGenOptions& options);

/// Full-keyspace consistency audit: reads every key with kKvGet on one
/// pipelined connection and sums the counter deltas. Seed counters equal
/// their key, and every successful rmw increments each touched counter by
/// one, so `increment_sum` equals the number of increments the store
/// retains — comparing it against the acked count proves (or disproves)
/// that acked work survived a crash or failover. A missing key counts in
/// `missing` and contributes zero.
struct KvAuditResult {
  uint64_t keys_checked = 0;
  uint64_t missing = 0;      // kNotFound responses.
  uint64_t errors = 0;       // Any other non-OK response.
  uint64_t increment_sum = 0;
  /// commit_lsn of the last response: on a replica, the applied snapshot
  /// LSN the audit observed.
  uint64_t snapshot_lsn = 0;
};

/// `min_read_lsn` is stamped on every audit request — against a replica it
/// demands a snapshot at least that fresh (kUnavailable otherwise).
/// Returns non-OK only on transport failure.
Status RunKvAudit(const LoadGenOptions& options, uint64_t min_read_lsn,
                  KvAuditResult* out);

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_LOADGEN_H_
