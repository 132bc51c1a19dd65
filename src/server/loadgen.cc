#include "server/loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "server/client.h"
#include "server/procs.h"

namespace next700 {
namespace server {

struct PipelineDriver::Conn {
  struct Op {
    Request request;
    uint64_t invoke_ns;
  };
  int fd = -1;
  FrameDecoder decoder;
  std::deque<Op> inflight;   // Issue order; replies arrive in this order.
  std::vector<uint8_t> out;  // Encoded requests send() has not taken yet.
  size_t out_off = 0;
  uint64_t next_request_id = 1;
  uint64_t progress_ns = 0;  // Last reply, or issue onto an empty pipeline.
};

PipelineDriver::PipelineDriver(int depth, int64_t deadline_ms, Source source,
                               Completion complete)
    : depth_(depth > 0 ? static_cast<size_t>(depth) : 1),
      deadline_ns_(deadline_ms > 0
                       ? static_cast<uint64_t>(deadline_ms) * 1000000
                       : 0),
      source_(std::move(source)),
      complete_(std::move(complete)) {}

PipelineDriver::~PipelineDriver() { Abandon(); }

bool PipelineDriver::Connect(const std::string& host, uint16_t port) {
  Client client;
  if (client.Connect(host, port).ok()) {
    auto conn = std::make_unique<Conn>();
    conn->fd = client.ReleaseFd();
    const int fl = ::fcntl(conn->fd, F_GETFL, 0);
    if (fl >= 0 && ::fcntl(conn->fd, F_SETFL, fl | O_NONBLOCK) == 0) {
      conns_.push_back(std::move(conn));
      return true;
    }
    ::close(conn->fd);
  }
  ++failures_;
  return false;
}

void PipelineDriver::Run(const std::function<bool()>& stop) {
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) Decode(conn.get(), &stop);
  }
  while (!stop() && Poll(&stop)) {
  }
}

void PipelineDriver::Drain() {
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) Decode(conn.get(), nullptr);
  }
  const auto in_flight = [this] {
    return std::any_of(conns_.begin(), conns_.end(), [](const auto& conn) {
      return !conn->inflight.empty();
    });
  };
  while (in_flight() && Poll(nullptr)) {
  }
}

void PipelineDriver::Abandon() {
  for (const auto& conn : conns_) Close(conn.get());
  conns_.clear();
}

/// One poll() round over the live connections: read and pair replies,
/// flush pending sends, fail stalled connections. False when none is live.
bool PipelineDriver::Poll(const std::function<bool()>* stop) {
  std::erase_if(conns_, [](const auto& conn) { return conn->fd < 0; });
  if (conns_.empty()) return false;
  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size());
  for (const auto& conn : conns_) {
    const bool unsent = conn->out_off < conn->out.size();
    pfds.push_back(pollfd{conn->fd,
                          static_cast<short>(POLLIN | (unsent ? POLLOUT : 0)),
                          0});
  }
  // A short timeout bounds how late a stall or the caller's stop
  // predicate is noticed.
  const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/50);
  const uint64_t now = NowNanos();
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn* conn = conns_[i].get();
    const short revents = ready > 0 ? pfds[i].revents : 0;
    if (revents & (POLLIN | POLLERR | POLLHUP)) Read(conn, stop);
    if (conn->fd >= 0 && (revents & POLLOUT)) Flush(conn);
    // Progress made after `now` (this round's replies) is not a stall.
    if (conn->fd >= 0 && deadline_ns_ > 0 && !conn->inflight.empty() &&
        conn->progress_ns + deadline_ns_ < now) {
      Fail(conn);
    }
  }
  return true;
}

void PipelineDriver::Read(Conn* conn, const std::function<bool()>* stop) {
  // One read per readiness event: poll() is level-triggered, so anything
  // left in the socket wakes the next round.
  uint8_t buf[64 * 1024];
  const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;
  }
  if (n <= 0) {
    Fail(conn);  // EOF or a hard error.
    return;
  }
  conn->decoder.Feed(buf, static_cast<size_t>(n));
  Decode(conn, stop);
}

void PipelineDriver::Decode(Conn* conn, const std::function<bool()>* stop) {
  // Like a blocking client: top up, then take one reply. A reply decoded
  // after `stop` turned true stays in flight, as if never read.
  for (;;) {
    if (stop != nullptr) {
      while (conn->inflight.size() < depth_ && !(*stop)()) Issue(conn);
      if ((*stop)()) break;
    }
    Frame frame;
    bool have = false;
    Response response;
    const bool framed = conn->decoder.Next(&frame, &have).ok();
    if (framed && !have) break;
    // The server answers each connection in request order; anything else
    // is a protocol violation, not a latency artifact.
    if (!framed || frame.type != FrameType::kResponse ||
        !DecodeResponse(frame.body, frame.body_len, &response).ok() ||
        conn->inflight.empty() ||
        response.request_id != conn->inflight.front().request.request_id) {
      Fail(conn);
      return;
    }
    const Conn::Op op = std::move(conn->inflight.front());
    conn->inflight.pop_front();
    conn->progress_ns = NowNanos();
    complete_(op.request, &response, op.invoke_ns, conn->progress_ns);
  }
  Flush(conn);
}

void PipelineDriver::Issue(Conn* conn) {
  Request request = source_();
  request.request_id = conn->next_request_id++;
  EncodeRequest(request, &conn->out);
  const uint64_t now = NowNanos();
  if (conn->inflight.empty()) conn->progress_ns = now;
  conn->inflight.push_back(Conn::Op{std::move(request), now});
}

void PipelineDriver::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // The server applies backpressure; POLLOUT resumes.
    } else if (n == 0 || errno != EINTR) {
      Fail(conn);
      return;
    }
  }
  conn->out.clear();
  conn->out_off = 0;
}

void PipelineDriver::Fail(Conn* conn) {
  ++failures_;
  Close(conn);
}

void PipelineDriver::Close(Conn* conn) {
  if (conn->fd < 0) return;
  ::close(conn->fd);
  conn->fd = -1;
  const uint64_t now = NowNanos();
  for (const Conn::Op& op : conn->inflight) {
    complete_(op.request, nullptr, op.invoke_ns, now);
  }
  conn->inflight.clear();
}

namespace {

Request MakeRequest(const LoadGenOptions& options, Rng* rng,
                    ZipfGenerator* zipf) {
  Request request;
  WireWriter args(&request.args);
  const double op = rng->NextDouble();
  if (op < options.get_fraction) {
    request.proc_id = kKvGet;
    const uint64_t key = zipf->Next(rng);
    args.PutU64(key);
    if (options.declare_partitions) {
      request.partitions.push_back(
          KvPartitionOf(key, options.num_partitions));
    }
  } else if (op < options.get_fraction + options.put_fraction) {
    request.proc_id = kKvPut;
    const uint64_t key = zipf->Next(rng);
    args.PutU64(key);
    for (uint32_t i = 0; i < options.value_size; ++i) {
      args.PutU8(static_cast<uint8_t>(rng->Next()));
    }
    if (options.declare_partitions) {
      request.partitions.push_back(
          KvPartitionOf(key, options.num_partitions));
    }
  } else {
    request.proc_id = kKvRmw;
    std::vector<uint64_t> keys;
    if (options.num_shards > 1 &&
        rng->NextDouble() < options.multi_shard_fraction) {
      // Deliberate cross-shard transaction: adjacent keys always map to
      // different shards under key % num_shards.
      uint64_t k = zipf->Next(rng);
      if (k + 1 >= options.num_records) k = 0;
      keys = {k, k + 1};
    } else {
      keys.reserve(options.rmw_keys);
      uint64_t home_shard = 0;
      for (uint16_t i = 0; i < options.rmw_keys; ++i) {
        uint64_t key = zipf->Next(rng);
        if (options.num_shards > 1) {
          // Coerce every key onto the first key's shard so the request
          // stays single-shard (the router fast path).
          if (i == 0) {
            home_shard = key % options.num_shards;
          } else {
            key = key - (key % options.num_shards) + home_shard;
            if (key >= options.num_records) {
              key = key < options.num_shards ? home_shard
                                             : key - options.num_shards;
            }
          }
        }
        keys.push_back(key);
      }
    }
    args.PutU16(static_cast<uint16_t>(keys.size()));
    for (const uint64_t key : keys) {
      args.PutU64(key);
      if (options.declare_partitions) {
        request.partitions.push_back(
            KvPartitionOf(key, options.num_partitions));
      }
    }
  }
  if (!request.partitions.empty()) {
    std::sort(request.partitions.begin(), request.partitions.end());
    request.partitions.erase(
        std::unique(request.partitions.begin(), request.partitions.end()),
        request.partitions.end());
  }
  return request;
}

void CountResponse(const Response& response, LoadGenStats* stats) {
  switch (response.status) {
    case StatusCode::kOk:
      ++stats->ok;
      break;
    case StatusCode::kAborted:
      ++stats->aborted;
      break;
    case StatusCode::kResourceExhausted:
      ++stats->resource_exhausted;
      break;
    default:
      ++stats->other_errors;
      break;
  }
}

/// One driver thread: `connections` connections fed from one key stream.
void LoadThread(const LoadGenOptions& options, int thread_index,
                int connections, LoadGenStats* local) {
  Rng rng(options.seed + static_cast<uint64_t>(thread_index) * 7919);
  ZipfGenerator zipf(options.num_records, options.theta);
  uint64_t measure_start_ns = 0;
  PipelineDriver driver(
      options.pipeline_depth, options.deadline_ms,
      [&] {
        ++local->requests_sent;
        return MakeRequest(options, &rng, &zipf);
      },
      [&](const Request&, const Response* response, uint64_t invoke_ns,
          uint64_t complete_ns) {
        if (invoke_ns < measure_start_ns) {
          --local->requests_sent;  // Warmup ops leave the books.
        } else if (response == nullptr) {
          ++local->unknown;
        } else {
          local->latency_ns.Record(complete_ns - invoke_ns);
          CountResponse(*response, local);
        }
      });
  for (int i = 0; i < connections; ++i) {
    driver.Connect(options.host, options.port);
  }
  measure_start_ns =
      NowNanos() + static_cast<uint64_t>(options.warmup_seconds * 1e9);
  const uint64_t end_ns =
      measure_start_ns + static_cast<uint64_t>(options.seconds * 1e9);
  driver.Run([end_ns] { return NowNanos() >= end_ns; });
  driver.Drain();
  local->transport_errors = driver.failures();
  // Report the window actually measured: a thread whose connections all
  // died early measured less than the configured one.
  const uint64_t measured_end = std::min(NowNanos(), end_ns);
  local->elapsed_seconds =
      measured_end > measure_start_ns
          ? static_cast<double>(measured_end - measure_start_ns) / 1e9
          : 0.0;
}

}  // namespace

Status RunKvAudit(const LoadGenOptions& options, uint64_t min_read_lsn,
                  KvAuditResult* out) {
  *out = KvAuditResult{};
  Status status;
  uint64_t next_key = 0;
  PipelineDriver driver(
      options.pipeline_depth, options.deadline_ms,
      [&] {
        Request request;
        request.proc_id = kKvGet;
        request.min_read_lsn = min_read_lsn;
        WireWriter(&request.args).PutU64(next_key);
        if (options.declare_partitions) {
          request.partitions.push_back(
              KvPartitionOf(next_key, options.num_partitions));
        }
        ++next_key;
        return request;
      },
      [&](const Request& request, const Response* response, uint64_t,
          uint64_t) {
        if (response == nullptr) return;  // Counted in failures().
        uint64_t key = 0;
        WireReader(request.args.data(), request.args.size()).GetU64(&key);
        ++out->keys_checked;
        out->snapshot_lsn = response->commit_lsn;
        if (response->status == StatusCode::kOk) {
          if (response->payload.size() < sizeof(uint64_t)) {
            status = Status::Corruption("audit: short kv_get payload");
            return;
          }
          uint64_t counter;
          std::memcpy(&counter, response->payload.data(), sizeof(counter));
          out->increment_sum += counter - key;  // Seed counter is the key.
        } else if (response->status == StatusCode::kNotFound) {
          ++out->missing;
        } else {
          ++out->errors;
        }
      });
  if (!driver.Connect(options.host, options.port)) {
    return Status::Unavailable("audit: cannot connect");
  }
  driver.Run([&] { return next_key >= options.num_records || !status.ok(); });
  driver.Drain();
  if (driver.failures() > 0) {
    return Status::Unavailable("audit: connection failed mid-scan");
  }
  return status;
}

LoadGenStats RunLoadGen(const LoadGenOptions& options) {
  const int n = options.connections > 0 ? options.connections : 1;
  const int thread_count =
      options.threads > 0 ? std::min(options.threads, n) : n;
  std::vector<LoadGenStats> locals(static_cast<size_t>(thread_count));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(thread_count));
  for (int i = 0; i < thread_count; ++i) {
    // Spread the connections as evenly as the remainder allows.
    const int share = n / thread_count + (i < n % thread_count ? 1 : 0);
    threads.emplace_back(LoadThread, std::cref(options), i, share,
                         &locals[static_cast<size_t>(i)]);
  }
  for (auto& t : threads) t.join();
  LoadGenStats total;
  for (const LoadGenStats& local : locals) {
    total.requests_sent += local.requests_sent;
    total.ok += local.ok;
    total.aborted += local.aborted;
    total.resource_exhausted += local.resource_exhausted;
    total.other_errors += local.other_errors;
    total.unknown += local.unknown;
    total.transport_errors += local.transport_errors;
    total.latency_ns.Merge(local.latency_ns);
    // Threads run concurrently: the aggregate window is the longest any
    // thread actually measured (a thread that died early measured less).
    total.elapsed_seconds =
        std::max(total.elapsed_seconds, local.elapsed_seconds);
  }
  return total;
}

}  // namespace server
}  // namespace next700
