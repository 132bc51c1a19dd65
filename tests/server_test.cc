/// Loopback integration tests for the networked transaction service:
/// real sockets against a real engine, covering pipelined reply ordering,
/// group-commit-gated replies, admission control, and hostile input.

#include "server/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "faultlog/fault_injection.h"
#include "fd_exhaustion.h"
#include "io/io_backend.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/procs.h"

namespace next700 {
namespace server {
namespace {

constexpr uint64_t kRecords = 4096;

/// Every case runs against both async-I/O backends: the io_uring ring and
/// the batched-epoll fallback must be behaviorally identical at the
/// protocol level. Set by the fixture, read by StartService (gtest runs
/// cases serially, so a file-scope knob is race-free).
io::IoBackendKind g_io_backend = io::IoBackendKind::kAuto;

class ServerTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
    g_io_backend = GetParam();
  }
};

struct Service {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

/// The loop counts the cases touching per-loop state run under: one loop,
/// and a group of two, where a reply, a held reply, a read pause or a
/// decision can cross loops. Connections are dealt round-robin from loop
/// 0, so a case's second connection lands on loop 1.
constexpr int kLoopCounts[] = {1, 2};

std::string LoopTrace(int loops) {
  return "num_loops=" + std::to_string(loops);
}

/// Log directories must be unique per test *instance*, not just per CC
/// scheme: `ctest -j` runs the epoll and uring instantiations of the same
/// case as concurrent processes, and a shared directory means one
/// process's RemoveLogDir races the other's open log ("cannot open log"
/// aborts).
std::string CurrentTestSlug() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string slug = std::string(info->name());
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  return slug;
}

Service StartService(CcScheme scheme, LoggingKind logging,
                     ServerOptions srv = {}, int partitions = 2,
                     std::function<void(EngineOptions&)> tweak = {}) {
  EngineOptions eng;
  eng.cc_scheme = scheme;
  eng.max_threads = srv.num_workers;
  eng.num_partitions = static_cast<uint32_t>(partitions);
  eng.logging = logging;
  eng.log_dir = std::string(::testing::TempDir()) + "/next700_server_" +
                CurrentTestSlug() + "_" + CcSchemeName(scheme) + ".logd";
  RemoveLogDir(eng.log_dir);  // Logs accumulate across runs; start clean.
  eng.log_io_backend = g_io_backend;
  srv.io_backend = g_io_backend;
  if (tweak) tweak(eng);
  Service service;
  service.engine = std::make_unique<Engine>(eng);
  KvServiceOptions kv;
  kv.num_records = kRecords;
  RegisterKvService(service.engine.get(), kv);
  service.server = std::make_unique<Server>(service.engine.get(), srv);
  EXPECT_TRUE(service.server->Start().ok());
  return service;
}

Request GetRequest(uint64_t request_id, uint64_t key,
                   bool declare_partition = false, int partitions = 2) {
  Request request;
  request.request_id = request_id;
  request.proc_id = kKvGet;
  WireWriter args(&request.args);
  args.PutU64(key);
  if (declare_partition) {
    request.partitions.push_back(
        KvPartitionOf(key, static_cast<uint32_t>(partitions)));
  }
  return request;
}

Request RmwRequest(uint64_t request_id, uint64_t key) {
  Request request;
  request.request_id = request_id;
  request.proc_id = kKvRmw;
  WireWriter args(&request.args);
  args.PutU16(1);
  args.PutU64(key);
  return request;
}

void ExpectOverloadAnswersResourceExhausted(int loops);
void ExpectNoInlineRunBesideAParkedPrepare(int loops);
void ExpectDecisionAckWaitsForDurableOutcome(int loops);

TEST_P(ServerTest, GetReturnsRowPayload) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 42), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.payload.size(), 64u);  // KvServiceOptions value_size.
}

TEST_P(ServerTest, PipelinedRepliesArriveInRequestOrder) {
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    ServerOptions srv;
    srv.num_loops = loops;
    Service service = StartService(CcScheme::kOcc, LoggingKind::kNone, srv);
    Client clients[2];
    for (Client& client : clients) {
      ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    }

    // A burst of pipelined requests per connection, mixing reads and
    // writes; replies must come back in exactly the order sent.
    constexpr int kBurst = 200;
    Rng rng(1);
    for (Client& client : clients) {
      for (int i = 0; i < kBurst; ++i) {
        const uint64_t key = rng.NextUint64(kRecords);
        const Request request = (i % 3 == 0) ? RmwRequest(1000 + i, key)
                                             : GetRequest(1000 + i, key);
        ASSERT_TRUE(client.Send(request).ok());
      }
    }
    for (Client& client : clients) {
      for (int i = 0; i < kBurst; ++i) {
        Response response;
        ASSERT_TRUE(client.Recv(&response).ok());
        EXPECT_EQ(response.request_id, static_cast<uint64_t>(1000 + i));
        EXPECT_EQ(response.status, StatusCode::kOk);
      }
    }
  }
}

TEST_P(ServerTest, RepliesAreOrderedEvenWhenRequestIdsRepeat) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  // The server orders replies by arrival, not by client-chosen ids — ids
  // may repeat and must be echoed back in arrival order regardless.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Send(GetRequest(7, static_cast<uint64_t>(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    Response response;
    ASSERT_TRUE(client.Recv(&response).ok());
    EXPECT_EQ(response.request_id, 7u);
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_P(ServerTest, CommittedRepliesAreDurableWhenValueLogged) {
  // A slow log device keeps every flush in flight well past the reply's
  // HoldUntilDurable check, so the hold path is taken by construction
  // rather than by winning a race with the flusher (which a sanitizer
  // build's slower workers lose). With two loops the client sits on loop
  // 1, so the flusher's release must wake that loop.
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    ServerOptions srv;
    srv.num_loops = loops;
    Service service = StartService(
        CcScheme::kOcc, LoggingKind::kValue, srv, 2,
        [](EngineOptions& eng) { eng.log_device_latency_us = 2000; });
    LogManager* log = service.engine->log_manager();
    ASSERT_NE(log, nullptr);
    Client idle;
    ASSERT_TRUE(idle.Connect("127.0.0.1", service.server->port()).ok());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());

    for (int i = 0; i < 100; ++i) {
      Response response;
      ASSERT_TRUE(
          client.Call(RmwRequest(static_cast<uint64_t>(i), 5), &response)
              .ok());
      ASSERT_EQ(response.status, StatusCode::kOk);
      // The group-commit contract: by the time the client holds the
      // reply, the commit record is on disk. durable_lsn is read *after*
      // receipt, so this would race only if the server released the reply
      // early.
      EXPECT_GT(response.commit_lsn, 0u);
      EXPECT_LE(response.commit_lsn, log->durable_lsn());
    }
    EXPECT_GT(service.server->stats().replies_held_durable.load(), 0u);
  }
}

TEST_P(ServerTest, GroupCommitDurabilityIsBackedByRealBarriers) {
  // The counting backend proves durable_lsn is advanced by actual
  // fdatasync barriers, not a sleep-based stand-in.
  FaultInjector injector;  // No faults registered: pure observation.
  Service service = StartService(
      CcScheme::kOcc, LoggingKind::kValue, {}, 2, [&](EngineOptions& eng) {
        eng.log_sync = LogSyncPolicy::kFdatasync;
        eng.log_file_factory = injector.factory();
      });
  LogManager* log = service.engine->log_manager();
  ASSERT_NE(log, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  for (int i = 0; i < 50; ++i) {
    Response response;
    ASSERT_TRUE(
        client.Call(RmwRequest(static_cast<uint64_t>(i), 9), &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_GT(response.commit_lsn, 0u);
    EXPECT_LE(response.commit_lsn, log->durable_lsn());
  }
  EXPECT_GT(injector.syncs(), 0u);
  EXPECT_GT(injector.writes(), 0u);
  EXPECT_EQ(log->sync_count(), injector.syncs());
  service.server->Stop();
}

TEST_P(ServerTest, HstoreCompositionUsesPartitionedDispatch) {
  ServerOptions srv;
  srv.num_workers = 2;
  Service service =
      StartService(CcScheme::kHstore, LoggingKind::kNone, srv);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  for (uint64_t i = 0; i < 50; ++i) {
    Response response;
    ASSERT_TRUE(
        client.Call(GetRequest(i, i, /*declare_partition=*/true), &response)
            .ok());
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_P(ServerTest, UnknownProcedureAnswersNotFound) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request;
  request.request_id = 1;
  request.proc_id = 9999;
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kNotFound);
}

TEST_P(ServerTest, OutOfRangePartitionAnswersInvalidArgument) {
  Service service = StartService(CcScheme::kHstore, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request = GetRequest(1, 0);
  request.partitions = {1000};  // Engine has 2 partitions.
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
}

TEST_P(ServerTest, MalformedArgsAnswerInvalidArgumentAndConnectionSurvives) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request;
  request.request_id = 1;
  request.proc_id = kKvGet;  // kKvGet expects a u64 key; send 2 bytes.
  request.args = {1, 2};
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  // The framing was intact, so the connection must still work.
  ASSERT_TRUE(client.Call(GetRequest(2, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_P(ServerTest, CorruptFramingClosesConnectionWithoutCrashing) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    // Oversized frame header: unrecoverable, server must drop us.
    std::vector<uint8_t> wire;
    WireWriter writer(&wire);
    writer.PutU32(kMaxFrameBody + 1);
    writer.PutU8(static_cast<uint8_t>(FrameType::kRequest));
    ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());
    Response response;
    const Status s = client.Recv(&response, /*deadline_ms=*/5000);
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  }
  // The server survives and accepts new connections.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_GE(service.server->stats().connections_dropped.load(), 1u);
}

TEST_P(ServerTest, GarbageBytesNeverCrashTheServer) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    uint8_t garbage[512];
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)client.SendRaw(garbage, sizeof(garbage));
    // Whatever happens — error response or drop — must not kill the server.
  }
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

// With two loops the budget is shared: one loop can pause on slots the
// other holds, and must be resumed when that loop drains them.
TEST_P(ServerTest, OverloadAnswersResourceExhaustedWithoutCrashing) {
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    ExpectOverloadAnswersResourceExhausted(loops);
  }
}

void ExpectOverloadAnswersResourceExhausted(int loops) {
  ServerOptions srv;
  srv.num_workers = 1;
  srv.num_loops = loops;
  srv.max_inflight = 4;
  srv.queue_capacity = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone, srv);

  LoadGenOptions load;
  load.port = service.server->port();
  load.connections = 4;
  load.pipeline_depth = 32;
  load.seconds = 0.5;
  load.num_records = kRecords;
  load.get_fraction = 0.0;
  load.put_fraction = 0.0;  // All RMW: keeps the lone worker busy.
  load.rmw_keys = 4;
  const LoadGenStats stats = RunLoadGen(load);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_GT(stats.ok, 0u);
  // With a budget of 4 and 128 requests in flight, backpressure must have
  // engaged; overflowing the depth-2 queue also rejects some cleanly.
  const ServerStats& server_stats = service.server->stats();
  EXPECT_EQ(stats.resource_exhausted,
            server_stats.admission_rejects.load());

  // The server still works afterwards.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_P(ServerTest, LoadGenAgainstBothCompositions) {
  for (const CcScheme scheme : {CcScheme::kHstore, CcScheme::kOcc}) {
    ServerOptions srv;
    srv.num_workers = 2;
    Service service = StartService(scheme, LoggingKind::kValue, srv);
    LoadGenOptions load;
    load.port = service.server->port();
    load.connections = 2;
    load.pipeline_depth = 8;
    load.seconds = 0.5;
    load.num_records = kRecords;
    load.num_partitions = 2;
    load.declare_partitions = scheme == CcScheme::kHstore;
    load.get_fraction = 0.4;
    load.put_fraction = 0.3;
    load.rmw_keys = 2;
    const LoadGenStats stats = RunLoadGen(load);
    EXPECT_EQ(stats.transport_errors, 0u) << CcSchemeName(scheme);
    EXPECT_EQ(stats.other_errors, 0u) << CcSchemeName(scheme);
    EXPECT_GT(stats.ok, 0u) << CcSchemeName(scheme);
  }
}

LoadGenOptions LoadAgainst(const Service& service) {
  LoadGenOptions load;
  load.port = service.server->port();
  load.num_records = kRecords;
  return load;
}

// Every request the generator sent ends exactly once: answered, or lost in
// flight on a connection that failed (and counted once as failed).
TEST_P(ServerTest, LoadGenBooksBalanceWhenServerStopsMidRun) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  LoadGenOptions load = LoadAgainst(service);
  load.connections = 4;
  load.pipeline_depth = 8;
  load.warmup_seconds = 0;
  load.seconds = 2.0;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    service.server->Stop();
  });
  const auto start = std::chrono::steady_clock::now();
  const LoadGenStats stats = RunLoadGen(load);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();
  EXPECT_GT(stats.ok, 0u);
  EXPECT_EQ(stats.requests_sent, stats.ok + stats.aborted +
                                     stats.resource_exhausted +
                                     stats.other_errors + stats.unknown);
  EXPECT_EQ(stats.transport_errors, 4u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

TEST_P(ServerTest, LoadGenMultiplexesConnectionsOverFewerThreads) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  const uint64_t accepted_before =
      service.server->stats().connections_accepted.load();
  LoadGenOptions load = LoadAgainst(service);
  load.connections = 10;
  load.threads = 3;  // Shares of 4, 3 and 3.
  load.pipeline_depth = 4;
  load.seconds = 0.5;
  const LoadGenStats stats = RunLoadGen(load);
  EXPECT_EQ(service.server->stats().connections_accepted.load() -
                accepted_before,
            10u);
  EXPECT_GT(stats.ok, 0u);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_EQ(stats.unknown, 0u);
}

// A connection with requests in flight and no reply for deadline_ms fails
// mid-run, even when one thread multiplexes it with others.
TEST_P(ServerTest, LoadGenFailsAStalledConnectionAfterItsDeadline) {
  Service service = StartService(
      CcScheme::kOcc, LoggingKind::kValue, {}, 2,
      [](EngineOptions& eng) { eng.log_device_latency_us = 2000000; });
  LoadGenOptions load = LoadAgainst(service);
  load.connections = 2;
  load.threads = 1;
  load.pipeline_depth = 4;
  load.seconds = 5.0;
  load.deadline_ms = 200;
  load.get_fraction = 0.0;
  load.put_fraction = 0.0;  // All rmw: every reply waits for the device.
  load.rmw_keys = 1;
  const auto start = std::chrono::steady_clock::now();
  const LoadGenStats stats = RunLoadGen(load);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(load.deadline_ms + 1000));
  EXPECT_EQ(stats.transport_errors, 2u);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_GT(stats.unknown, 0u);
  EXPECT_EQ(stats.requests_sent, stats.aborted + stats.unknown);
}

TEST_P(ServerTest, StopWithConnectedClientsIsClean) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, 1), &response).ok());
  service.server->Stop();
  service.server->Stop();  // Idempotent.
}

/// The RMW counter of `key` carried in a kKvGet reply (seeded with the key).
uint64_t CounterOf(const Response& response) {
  uint64_t counter = 0;
  if (response.payload.size() >= sizeof(counter)) {
    std::memcpy(&counter, response.payload.data(), sizeof(counter));
  }
  return counter;
}

TEST_P(ServerTest, DepthOneRequestsRunOnTheEventLoop) {
  ServerOptions srv;
  srv.num_workers = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue, srv);
  LogManager* log = service.engine->log_manager();
  ASSERT_NE(log, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  constexpr uint64_t kKey = 17;
  uint64_t expected = kKey;  // The RMW counter seed.
  for (uint64_t i = 0; i < 100; ++i) {
    Response response;
    if (i % 2 == 0) {
      ASSERT_TRUE(client.Call(RmwRequest(i, kKey), &response).ok());
      ASSERT_EQ(response.status, StatusCode::kOk);
      ++expected;
      // An inline write still waits for group commit before its reply.
      EXPECT_GT(response.commit_lsn, 0u);
      EXPECT_LE(response.commit_lsn, log->durable_lsn());
    } else {
      ASSERT_TRUE(client.Call(GetRequest(i, kKey), &response).ok());
      ASSERT_EQ(response.status, StatusCode::kOk);
      EXPECT_EQ(CounterOf(response), expected);
    }
  }
  EXPECT_GT(service.server->stats().requests_inline.load(), 0u);
}

TEST_P(ServerTest, RequestsNeverRunInlineBesideAParkedPrepare) {
  // A prepared branch holds its locks until a decision frame that only an
  // event loop can read. A get of a locked key must therefore wait on a
  // worker: run on a loop, it would spin (OCC) or block (2PL) and the
  // decision might never be read. With two loops the get arrives on the
  // loop that did not admit the Prepare.
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    ExpectNoInlineRunBesideAParkedPrepare(loops);
  }
}

void ExpectNoInlineRunBesideAParkedPrepare(int loops) {
  for (const CcScheme scheme : {CcScheme::kOcc, CcScheme::kDlDetect}) {
    ServerOptions srv;
    srv.num_workers = 2;
    srv.num_loops = loops;
    Service service = StartService(scheme, LoggingKind::kValue, srv);
    constexpr uint64_t kKey = 11;
    constexpr uint64_t kOther = 12;
    constexpr uint64_t kGtid = 7001;

    Client coordinator;
    ASSERT_TRUE(coordinator
                    .Connect("127.0.0.1", service.server->port(),
                             PeerRole::kCoordinator)
                    .ok());
    Prepare prepare;
    prepare.gtid = kGtid;
    prepare.proc_id = kKvRmw;
    WireWriter args(&prepare.args);
    args.PutU16(1);
    args.PutU64(kKey);
    std::vector<uint8_t> wire;
    EncodePrepare(prepare, &wire);
    ASSERT_TRUE(coordinator.SendRaw(wire.data(), wire.size()).ok());
    FrameType type;
    std::vector<uint8_t> body;
    ASSERT_TRUE(coordinator.RecvFrame(&type, &body).ok());
    ASSERT_EQ(type, FrameType::kVote);
    Vote vote;
    ASSERT_TRUE(DecodeVote(body.data(), body.size(), &vote).ok());
    ASSERT_EQ(vote.status, StatusCode::kOk) << CcSchemeName(scheme);

    // get(K) arrives alone on an idle server: every other condition for
    // running it on the loop holds.
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    ASSERT_TRUE(client.Send(GetRequest(1, kKey)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.Send(GetRequest(2, kOther)).ok());

    wire.clear();
    EncodeDecision(FrameType::kCommitDecision, Decision{kGtid}, &wire);
    ASSERT_TRUE(coordinator.SendRaw(wire.data(), wire.size()).ok());
    // Well inside the 2PL lock-wait timeout, so a blocked loop shows here.
    const Status acked =
        coordinator.RecvFrame(&type, &body, /*deadline_ms=*/1500);
    if (!acked.ok()) {
      // The loop is wedged behind the branch's lock, so Stop() would join
      // it forever: leave the service running and fail.
      (void)service.server.release();
      (void)service.engine.release();
      FAIL() << CcSchemeName(scheme)
             << ": no DecisionAck, the event loop is blocked: "
             << acked.ToString();
    }
    ASSERT_EQ(type, FrameType::kDecisionAck);
    DecisionAck ack;
    ASSERT_TRUE(DecodeDecisionAck(body.data(), body.size(), &ack).ok());
    EXPECT_EQ(ack.status, StatusCode::kOk);

    Response response;
    ASSERT_TRUE(client.Recv(&response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk) << CcSchemeName(scheme);
    EXPECT_EQ(CounterOf(response), kKey + 1) << CcSchemeName(scheme);
    ASSERT_TRUE(client.Recv(&response).ok());
    EXPECT_EQ(response.status, StatusCode::kOk) << CcSchemeName(scheme);
    EXPECT_EQ(CounterOf(response), kOther) << CcSchemeName(scheme);
  }
}

// The coordinator forgets a commit once every participant acked it, so a
// commit DecisionAck must follow its outcome record to disk even on a shard
// running async commit (whose client replies never wait for the log). The
// slow log device keeps the flush in flight past the ack's hold check.
TEST_P(ServerTest, CommitDecisionAckWaitsForDurableOutcomeUnderAsyncCommit) {
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    ExpectDecisionAckWaitsForDurableOutcome(loops);
  }
}

void ExpectDecisionAckWaitsForDurableOutcome(int loops) {
  ServerOptions srv;
  srv.num_loops = loops;
  Service service = StartService(
      CcScheme::kOcc, LoggingKind::kValue, srv, 2, [](EngineOptions& eng) {
        eng.sync_commit = false;
        eng.log_device_latency_us = 2000;
      });
  LogManager* log = service.engine->log_manager();
  ASSERT_NE(log, nullptr);
  constexpr uint64_t kGtid = 7002;
  Client coordinator;
  ASSERT_TRUE(coordinator
                  .Connect("127.0.0.1", service.server->port(),
                           PeerRole::kCoordinator)
                  .ok());
  Prepare prepare;
  prepare.gtid = kGtid;
  prepare.proc_id = kKvRmw;
  WireWriter args(&prepare.args);
  args.PutU16(1);
  args.PutU64(13);
  std::vector<uint8_t> wire;
  EncodePrepare(prepare, &wire);
  ASSERT_TRUE(coordinator.SendRaw(wire.data(), wire.size()).ok());
  FrameType type;
  std::vector<uint8_t> body;
  ASSERT_TRUE(coordinator.RecvFrame(&type, &body).ok());
  ASSERT_EQ(type, FrameType::kVote);
  Vote vote;
  ASSERT_TRUE(DecodeVote(body.data(), body.size(), &vote).ok());
  ASSERT_EQ(vote.status, StatusCode::kOk);

  wire.clear();
  EncodeDecision(FrameType::kCommitDecision, Decision{kGtid}, &wire);
  ASSERT_TRUE(coordinator.SendRaw(wire.data(), wire.size()).ok());
  ASSERT_TRUE(coordinator.RecvFrame(&type, &body).ok());
  ASSERT_EQ(type, FrameType::kDecisionAck);
  DecisionAck ack;
  ASSERT_TRUE(DecodeDecisionAck(body.data(), body.size(), &ack).ok());
  EXPECT_EQ(ack.status, StatusCode::kOk);
  // Nothing else appends, so the outcome record is the log's tail.
  EXPECT_EQ(log->durable_lsn(), log->appended_lsn());
  EXPECT_GT(service.server->stats().replies_held_durable.load(), 0u);
}

TEST_P(ServerTest, PipelinedBurstFansOutToWorkers) {
  ServerOptions srv;
  srv.num_workers = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone, srv);
  const ServerStats& stats = service.server->stats();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  constexpr int kBursts = 20;
  constexpr int kDepth = 16;
  for (int burst = 0; burst < kBursts; ++burst) {
    // One write, so the server decodes the whole burst from one read:
    // only its last frame may run on the event loop.
    std::vector<uint8_t> wire;
    for (int i = 0; i < kDepth; ++i) {
      EncodeRequest(GetRequest(static_cast<uint64_t>(burst * kDepth + i),
                               static_cast<uint64_t>(i)),
                    &wire);
    }
    const uint64_t inline_before = stats.requests_inline.load();
    ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());
    for (int i = 0; i < kDepth; ++i) {
      Response response;
      ASSERT_TRUE(client.Recv(&response).ok());
      EXPECT_EQ(response.request_id,
                static_cast<uint64_t>(burst * kDepth + i));
      EXPECT_EQ(response.status, StatusCode::kOk);
    }
    EXPECT_LE(stats.requests_inline.load() - inline_before, 1u)
        << "burst " << burst;
  }
  EXPECT_EQ(stats.requests_dispatched.load(),
            static_cast<uint64_t>(kBursts * kDepth));
}

// Regression: the server ignored failed accepts while both backends kept
// the listener armed, so an idle server out of fds spun a core until one
// freed. The shared event loop backs off and re-arms.
TEST_P(ServerTest, AcceptBacksOffWhenFdsRunOut) {
  for (const int loops : kLoopCounts) {
    SCOPED_TRACE(LoopTrace(loops));
    fd_exhaustion::NofileLimit limit;
    ServerOptions srv;
    srv.num_loops = loops;
    Service service = StartService(CcScheme::kOcc, LoggingKind::kNone, srv);
    fd_exhaustion::ExpectAcceptBacksOffWhenFdsRunOut(
        service.server->port(), service.server->stats());
  }
}

// The loop group splits connections evenly and each loop applies the
// run-to-completion rule to its own: four depth-1 connections on two loops
// over two workers put two connections on each loop, and both loops run
// requests themselves.
TEST_P(ServerTest, ConnectionsSpreadAcrossLoops) {
  ServerOptions srv;
  srv.num_workers = 2;
  srv.num_loops = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue, srv);
  ASSERT_EQ(service.server->num_loops(), 2u);
  Client clients[4];
  for (Client& client : clients) {
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  }
  uint64_t request_id = 0;
  for (int round = 0; round < 50; ++round) {
    for (size_t c = 0; c < 4; ++c) {
      const uint64_t key = 100 + c;
      Response response;
      const uint64_t id = request_id++;
      ASSERT_TRUE(clients[c]
                      .Call(round % 2 == 0 ? RmwRequest(id, key)
                                           : GetRequest(id, key),
                            &response)
                      .ok());
      EXPECT_EQ(response.request_id, id);
      ASSERT_EQ(response.status, StatusCode::kOk);
      if (round % 2 == 1) {
        EXPECT_EQ(CounterOf(response),
                  key + static_cast<uint64_t>(round / 2 + 1));
      }
    }
  }
  for (size_t i = 0; i < 2; ++i) {
    const Server::LoopCounts counts = service.server->loop_counts(i);
    EXPECT_EQ(counts.accepted, 2u) << "loop " << i;
    EXPECT_GT(counts.inline_runs, 0u) << "loop " << i;
  }
}

// The lending rule under contention: two loops borrow the ids of two
// workers while pipelined bursts keep the workers busy and a coordinator
// prepares and commits branches on the same keys. Two threads under one
// engine thread id would corrupt its TxnContext (and trip the debug
// build's check in Engine::Begin); a prepared branch met by an inline run
// would wedge a loop. At the end every counter must equal its seed plus
// the committed increments.
TEST_P(ServerTest, LoopsLendWorkerIdsExclusively) {
  ServerOptions srv;
  srv.num_workers = 2;
  srv.num_loops = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue, srv);
  const uint16_t port = service.server->port();
  constexpr uint64_t kKeys = 8;
  constexpr int kRounds = 1000;
  std::atomic<uint64_t> committed[kKeys] = {};
  std::atomic<bool> failed{false};
  auto fail = [&](const std::string& what) {
    failed.store(true);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> threads;
  // Depth-1 clients: the inline path.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", port).ok()) return fail("connect");
      for (int i = 0; i < kRounds && !failed.load(); ++i) {
        const uint64_t key = static_cast<uint64_t>(i + t) % kKeys;
        Response response;
        const Status called =
            client.Call(RmwRequest(static_cast<uint64_t>(i), key), &response);
        if (!called.ok()) return fail("depth-1 call: " + called.ToString());
        if (response.status == StatusCode::kOk) committed[key]++;
      }
    });
  }
  // A pipelined client: bursts the workers take.
  threads.emplace_back([&] {
    Client client;
    if (!client.Connect("127.0.0.1", port).ok()) return fail("connect");
    for (int burst = 0; burst < kRounds / 10 && !failed.load(); ++burst) {
      for (int i = 0; i < 8; ++i) {
        const uint64_t key = static_cast<uint64_t>(burst + i) % kKeys;
        if (!client.Send(RmwRequest(key, key)).ok()) return fail("send");
      }
      for (int i = 0; i < 8; ++i) {
        Response response;
        if (!client.Recv(&response).ok()) return fail("pipelined recv");
        if (response.status == StatusCode::kOk) {
          committed[response.request_id]++;
        }
      }
    }
  });
  // A coordinator: prepare, then commit, one branch at a time.
  threads.emplace_back([&] {
    Client coordinator;
    if (!coordinator.Connect("127.0.0.1", port, PeerRole::kCoordinator)
             .ok()) {
      return fail("coordinator connect");
    }
    for (int i = 0; i < kRounds / 10 && !failed.load(); ++i) {
      const uint64_t key = static_cast<uint64_t>(i) % kKeys;
      Prepare prepare;
      prepare.gtid = 9000 + static_cast<uint64_t>(i);
      prepare.proc_id = kKvRmw;
      WireWriter args(&prepare.args);
      args.PutU16(1);
      args.PutU64(key);
      std::vector<uint8_t> wire;
      EncodePrepare(prepare, &wire);
      FrameType type;
      std::vector<uint8_t> body;
      if (!coordinator.SendRaw(wire.data(), wire.size()).ok() ||
          !coordinator.RecvFrame(&type, &body).ok() ||
          type != FrameType::kVote) {
        return fail("prepare");
      }
      Vote vote;
      if (!DecodeVote(body.data(), body.size(), &vote).ok()) {
        return fail("vote");
      }
      const bool commit = vote.status == StatusCode::kOk;
      if (!commit) continue;  // A no vote already aborted the branch.
      wire.clear();
      EncodeDecision(FrameType::kCommitDecision, Decision{prepare.gtid},
                     &wire);
      DecisionAck ack;
      if (!coordinator.SendRaw(wire.data(), wire.size()).ok() ||
          !coordinator.RecvFrame(&type, &body).ok() ||
          type != FrameType::kDecisionAck ||
          !DecodeDecisionAck(body.data(), body.size(), &ack).ok()) {
        return fail("decision ack");
      }
      if (ack.status == StatusCode::kOk) committed[key]++;
    }
  });
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  Client reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", port).ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    Response response;
    ASSERT_TRUE(reader.Call(GetRequest(key, key), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(CounterOf(response), key + committed[key].load())
        << "key " << key;
  }
  EXPECT_GT(service.server->loop_counts(0).inline_runs +
                service.server->loop_counts(1).inline_runs,
            0u);
}

TEST_P(ServerTest, StartFailsWhenTheListenerCannotBind) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  ServerOptions srv;
  srv.port = service.server->port();  // Already listening.
  srv.io_backend = GetParam();
  Server second(service.engine.get(), srv);
  const Status started = second.Start();
  EXPECT_EQ(started.code(), StatusCode::kIOError) << started.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ServerTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

// Regression for the blocking-read deadline audit: a peer that sends part
// of a frame and then stalls must NOT park RecvFrame forever — the
// deadline applies to frame completion, not just to the first byte. (The
// original implementation armed poll() only while the decoder was empty,
// so a half-delivered header waited indefinitely.)
TEST(ClientDeadlineTest, HalfFrameThenStallHonorsRecvDeadline) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread peer([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    uint8_t scratch[256];
    ASSERT_GT(::read(fd, scratch, sizeof(scratch)), 0);  // Client's Hello.
    std::vector<uint8_t> ack;
    EncodeHelloAck(HelloAck{}, &ack);
    ASSERT_EQ(::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ack.size()));
    // Half a response frame, then silence: the header promises more bytes
    // than will ever arrive.
    Response response;
    response.request_id = 1;
    std::vector<uint8_t> frame;
    EncodeResponse(response, &frame);
    const size_t half = frame.size() / 2;
    ASSERT_EQ(::send(fd, frame.data(), half, MSG_NOSIGNAL),
              static_cast<ssize_t>(half));
    // Hold the socket open (stalled, not closed) until the client gives
    // up; its Close() surfaces here as EOF.
    ::read(fd, scratch, 1);
    ::close(fd);
  });

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  FrameType type;
  std::vector<uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  const Status stalled = client.RecvFrame(&type, &body, 200);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(stalled.IsDeadlineExceeded()) << stalled.ToString();
  EXPECT_GE(elapsed_ms, 150);   // Deadline honored, not an instant error...
  EXPECT_LT(elapsed_ms, 5000);  // ...and not an unbounded stall.
  // The decoder distinguishes "peer idle" from "peer stalled mid-frame".
  EXPECT_GT(client.buffered_bytes(), 0u);
  client.Close();
  peer.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace server
}  // namespace next700
