/// Loopback tests for the replication subsystem: a real primary server and
/// a real ReplicaApplier over real sockets, covering backlog catch-up,
/// live tailing, snapshot reads with the min_read_lsn staleness contract,
/// the applied-never-exceeds-primary-durable invariant, semisync ack
/// gating (with degradation when the last replica leaves), failover
/// promotion of the replica's log into a writable engine, and the
/// applier's upstream: redial until a primary listens, the mid-frame stall
/// rule, and a prompt Stop().

#include "repl/replica_applier.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/index.h"
#include "io/io_backend.h"
#include "log/log_file.h"
#include "log/recovery.h"
#include "repl/log_shipper.h"
#include "server/client.h"
#include "server/procs.h"
#include "server/server.h"

namespace next700 {
namespace repl {
namespace {

using server::Client;
using server::KvServiceOptions;
using server::Request;
using server::Response;
using server::Server;
using server::ServerOptions;

constexpr uint64_t kRecords = 1024;
constexpr uint32_t kValueSize = 64;

/// Every case runs against both async-I/O backends (network event loop and
/// log flusher alike): replication catch-up, semisync gating, and failover
/// must not depend on which spine carried the bytes. Set by the fixture,
/// read by the node factories (gtest runs cases serially).
io::IoBackendKind g_io_backend = io::IoBackendKind::kAuto;

class ReplTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
    g_io_backend = GetParam();
  }
};

/// Log directories must be unique per test *instance*, not just per tag:
/// `ctest -j` runs the epoll and uring instantiations of the same case as
/// concurrent processes, and a shared directory means one process's
/// RemoveLogDir races the other's open log ("cannot open log" aborts).
std::string CurrentTestSlug() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string slug = std::string(info->name());
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  return slug;
}

std::string TempLogDir(const std::string& tag) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "/next700_repl_" + CurrentTestSlug() + "_" + tag +
                          ".logd";
  RemoveLogDir(dir);
  return dir;
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

EngineOptions NodeEngineOptions(const std::string& log_dir) {
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = 4;
  eng.num_partitions = 2;
  eng.logging = LoggingKind::kValue;
  eng.log_dir = log_dir;
  eng.log_io_backend = g_io_backend;
  return eng;
}

struct PrimaryNode {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

/// `loops` = 0 takes the server's automatic loop count.
PrimaryNode StartPrimary(const std::string& tag,
                         server::ReplAckMode ack_mode, uint16_t port = 0,
                         int loops = 0) {
  PrimaryNode node;
  node.engine = std::make_unique<Engine>(NodeEngineOptions(TempLogDir(tag)));
  KvServiceOptions kv;
  kv.num_records = kRecords;
  kv.value_size = kValueSize;
  RegisterKvService(node.engine.get(), kv);
  ServerOptions srv;
  srv.port = port;
  srv.num_workers = 2;
  srv.num_loops = loops;
  srv.io_backend = g_io_backend;
  srv.repl_ack = ack_mode;
  node.server = std::make_unique<Server>(node.engine.get(), srv);
  EXPECT_TRUE(node.server->Start().ok());
  return node;
}

struct ReplicaNode {
  std::string log_dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<Server> server;

  void Stop() {
    if (server != nullptr) server->Stop();
    if (applier != nullptr) applier->Stop();
  }
};

/// A fresh replica: the same deterministic seed rows as the primary (the
/// bulk load is unlogged) and an empty local log, subscribing from LSN 0.
ReplicaNode StartReplica(const std::string& tag, uint16_t primary_port) {
  ReplicaNode node;
  node.log_dir = TempLogDir(tag);
  node.engine = std::make_unique<Engine>(NodeEngineOptions(node.log_dir));
  KvServiceOptions kv;
  kv.num_records = kRecords;
  kv.value_size = kValueSize;
  RegisterKvService(node.engine.get(), kv);
  ReplicaApplierOptions opts;
  opts.primary = "127.0.0.1:" + std::to_string(primary_port);
  node.applier = std::make_unique<ReplicaApplier>(node.engine.get(), opts);
  EXPECT_TRUE(node.applier->Start().ok());
  ServerOptions srv;
  srv.num_workers = 2;
  srv.io_backend = g_io_backend;
  srv.snapshot_source = node.applier.get();
  node.server = std::make_unique<Server>(node.engine.get(), srv);
  EXPECT_TRUE(node.server->Start().ok());
  return node;
}

Request RmwRequest(uint64_t request_id, uint64_t key) {
  Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvRmw;
  server::WireWriter args(&request.args);
  args.PutU16(1);
  args.PutU64(key);
  return request;
}

Request GetRequest(uint64_t request_id, uint64_t key,
                   uint64_t min_read_lsn = 0) {
  Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvGet;
  request.min_read_lsn = min_read_lsn;
  server::WireWriter args(&request.args);
  args.PutU64(key);
  return request;
}

uint64_t CounterOf(const Response& response) {
  NEXT700_CHECK(response.payload.size() >= sizeof(uint64_t));
  uint64_t counter;
  std::memcpy(&counter, response.payload.data(), sizeof(counter));
  return counter;
}

void CatchUpAndServeSnapshotReads(int loops);
void DegradeWhenLastReplicaLeaves(int loops);

// Run on one primary loop and on two. With two, the client lands on loop 0
// and the replica on loop 1, so the flusher's shipping wakeup has to find
// the replica's loop.
TEST_P(ReplTest, ReplicaCatchesUpAndServesSnapshotReads) {
  for (const int loops : {1, 2}) {
    SCOPED_TRACE("primary loops " + std::to_string(loops));
    CatchUpAndServeSnapshotReads(loops);
  }
}

void CatchUpAndServeSnapshotReads(int loops) {
  const std::string tag = std::to_string(loops);
  PrimaryNode primary = StartPrimary("catchup_p" + tag,
                                     server::ReplAckMode::kAsync, 0, loops);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());

  // A backlog committed before the replica even exists: subscription from
  // LSN 0 must ship it all.
  std::map<uint64_t, uint64_t> increments;
  uint64_t request_id = 1;
  for (int i = 0; i < 32; ++i) {
    const uint64_t key = static_cast<uint64_t>(i % 8);
    Response response;
    ASSERT_TRUE(client.Call(RmwRequest(request_id++, key), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    ++increments[key];
  }

  ReplicaNode replica =
      StartReplica("catchup_r" + tag, primary.server->port());
  LogManager* primary_log = primary.engine->log_manager();
  ASSERT_TRUE(WaitUntil([&] {
    return replica.applier->applied_lsn() >= primary_log->durable_lsn();
  })) << "replica never caught up with the backlog";

  // Live tail: more commits after subscription.
  for (int i = 0; i < 32; ++i) {
    const uint64_t key = static_cast<uint64_t>(8 + i % 8);
    Response response;
    ASSERT_TRUE(client.Call(RmwRequest(request_id++, key), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    ++increments[key];
  }
  ASSERT_TRUE(WaitUntil([&] {
    return replica.applier->applied_lsn() >= primary_log->durable_lsn();
  })) << "replica never caught up with the live tail";

  // Snapshot reads on the replica observe every replicated increment and
  // report the applied snapshot LSN in commit_lsn.
  Client reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", replica.server->port()).ok());
  for (const auto& [key, count] : increments) {
    Response response;
    ASSERT_TRUE(reader.Call(GetRequest(request_id++, key), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(CounterOf(response), key + count) << "key " << key;
    EXPECT_EQ(response.commit_lsn, replica.applier->applied_lsn());
  }
  EXPECT_GT(replica.applier->batches_applied(), 0u);
  EXPECT_TRUE(replica.applier->stream_status().ok());

  replica.Stop();
  primary.server->Stop();
}

TEST_P(ReplTest, ReplicaRejectsWritesAndStaleReads) {
  PrimaryNode primary = StartPrimary("reject_p", server::ReplAckMode::kAsync);
  ReplicaNode replica = StartReplica("reject_r", primary.server->port());
  ASSERT_TRUE(WaitUntil([&] { return replica.applier->connected(); }));

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica.server->port()).ok());

  // Writes are not served by a replica, ever.
  Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, 0), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);

  // A read demanding a snapshot fresher than anything applied is refused
  // (client's move: retry, or go to the primary).
  const Lsn applied = replica.applier->applied_lsn();
  ASSERT_TRUE(
      client.Call(GetRequest(2, 0, applied + (1u << 20)), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kUnavailable);

  // The same demand at the applied LSN is satisfiable.
  ASSERT_TRUE(client.Call(GetRequest(3, 0, applied), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_GT(replica.server->stats().snapshot_rejects.load(), 0u);

  replica.Stop();
  primary.server->Stop();
}

TEST_P(ReplTest, AppliedLsnNeverExceedsPrimaryDurable) {
  PrimaryNode primary = StartPrimary("invariant_p",
                                     server::ReplAckMode::kAsync);
  ReplicaNode replica = StartReplica("invariant_r", primary.server->port());
  LogManager* primary_log = primary.engine->log_manager();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  uint64_t request_id = 1;
  for (int i = 0; i < 200; ++i) {
    Response response;
    ASSERT_TRUE(client
                    .Call(RmwRequest(request_id++,
                                     static_cast<uint64_t>(i) % kRecords),
                          &response)
                    .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    // Read applied first: it only advances after the primary made the
    // bytes durable and shipped them, so this order cannot race a false
    // violation.
    const Lsn applied = replica.applier->applied_lsn();
    EXPECT_LE(applied, primary_log->durable_lsn());
  }

  replica.Stop();
  primary.server->Stop();
}

TEST_P(ReplTest, SemisyncAckedWorkSurvivesPromotion) {
  PrimaryNode primary = StartPrimary("promote_p",
                                     server::ReplAckMode::kSemisync);
  ReplicaNode replica = StartReplica("promote_r", primary.server->port());
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->stats().repl_acks_received.load() > 0;
  })) << "replica never subscribed";

  // Every acked commit is, by semisync contract, durable on the replica's
  // own log before the client sees the response.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  std::map<uint64_t, uint64_t> increments;
  Lsn max_acked_commit = 0;
  uint64_t request_id = 1;
  for (int i = 0; i < 64; ++i) {
    const uint64_t key = static_cast<uint64_t>(i % 16);
    Response response;
    ASSERT_TRUE(client.Call(RmwRequest(request_id++, key), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    ++increments[key];
    max_acked_commit = std::max(max_acked_commit, response.commit_lsn);
  }
  ASSERT_GT(max_acked_commit, 0u);

  // "Kill" the primary: no orderly handoff, the replica simply stops
  // hearing from it. Every acked byte must already be on the replica log.
  primary.server->Stop();
  primary.engine.reset();
  EXPECT_GE(replica.engine->log_manager()->durable_lsn(), max_acked_commit);

  const std::string replica_log_dir = replica.log_dir;
  replica.Stop();
  replica.server.reset();
  replica.applier.reset();
  replica.engine.reset();

  // Promote: restart the replica's directories as a primary. Opening the
  // log runs the ordinary crash-recovery truncation (an unshipped torn
  // tail dies exactly as it would after a primary crash), and replay
  // rebuilds the state every acked transaction is part of.
  Engine promoted(NodeEngineOptions(replica_log_dir));
  KvServiceOptions kv;
  kv.num_records = kRecords;
  kv.value_size = kValueSize;
  RegisterKvService(&promoted, kv);
  RecoveryManager recovery(&promoted);
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(replica_log_dir, &stats).ok());
  EXPECT_GE(stats.txns_replayed, 64u);

  Index* index = promoted.catalog()->GetIndex("kv_pk");
  ASSERT_NE(index, nullptr);
  for (const auto& [key, count] : increments) {
    Row* row = index->Lookup(key);
    ASSERT_NE(row, nullptr);
    uint64_t counter;
    std::memcpy(&counter, promoted.RawImage(row), sizeof(counter));
    EXPECT_GE(counter, key + count) << "acked increments lost on key "
                                    << key;
  }

  // The promoted engine is writable: it accepts new transactions and logs
  // them past the replicated history.
  const Lsn before = promoted.log_manager()->appended_lsn();
  uint8_t args[2 + 8] = {};
  const uint16_t nkeys = 1;
  std::memcpy(args, &nkeys, sizeof(nkeys));
  const uint64_t key0 = 0;
  std::memcpy(args + 2, &key0, sizeof(key0));
  ASSERT_TRUE(
      promoted.RunProcedure(server::kKvRmw, 0, args, sizeof(args)).ok());
  EXPECT_GT(promoted.log_manager()->appended_lsn(), before);
}

// With two primary loops, the replica's acks (loop 1) release the client's
// held replies (loop 0).
TEST_P(ReplTest, SemisyncDegradesWhenLastReplicaLeaves) {
  for (const int loops : {1, 2}) {
    SCOPED_TRACE("primary loops " + std::to_string(loops));
    DegradeWhenLastReplicaLeaves(loops);
  }
}

void DegradeWhenLastReplicaLeaves(int loops) {
  const std::string tag = std::to_string(loops);
  PrimaryNode primary = StartPrimary(
      "degrade_p" + tag, server::ReplAckMode::kSemisync, 0, loops);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());

  // No replica has ever subscribed: semisync must degrade to local
  // durability instead of stalling every commit.
  Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, 0), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);

  {
    ReplicaNode replica =
        StartReplica("degrade_r" + tag, primary.server->port());
    ASSERT_TRUE(WaitUntil([&] {
      return primary.server->stats().repl_acks_received.load() > 0;
    }));
    // With a live replica, commits flow through the semisync gate.
    ASSERT_TRUE(client.Call(RmwRequest(2, 1), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    replica.Stop();
  }

  // The last replica is gone; commits must keep completing (degraded).
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->stats().semisync_degraded.load() > 0;
  })) << "primary never noticed the replica leaving";
  ASSERT_TRUE(client.Call(RmwRequest(3, 2), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);

  primary.server->Stop();
}

/// A loopback listener bound to an ephemeral port, or to `port`.
int ListenOn(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  NEXT700_CHECK(fd >= 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  NEXT700_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0);
  NEXT700_CHECK(::listen(fd, 8) == 0);
  return fd;
}

uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  NEXT700_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
  return ntohs(addr.sin_port);
}

/// Accepts one connection within `timeout_ms`; -1 if none arrives.
int AcceptWithin(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) != 1) return -1;
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
}

void WriteAll(int fd, const std::vector<uint8_t>& bytes, size_t len) {
  NEXT700_CHECK(::send(fd, bytes.data(), len, MSG_NOSIGNAL) ==
                static_cast<ssize_t>(len));
}

TEST_P(ReplTest, ApplierSubscribesOnceThePrimaryStartsListening) {
  // Learn a free port, then release it: the applier first dials nothing.
  const int probe = ListenOn(0);
  const uint16_t port = BoundPort(probe);
  ::close(probe);
  ReplicaNode replica = StartReplica("late_r", port);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(replica.applier->connected());

  PrimaryNode primary =
      StartPrimary("late_p", server::ReplAckMode::kAsync, port);
  ASSERT_EQ(primary.server->port(), port);
  EXPECT_TRUE(WaitUntil([&] { return replica.applier->connected(); }, 1500))
      << "replica did not subscribe within 1.5 s of the primary listening";
  replica.Stop();
  primary.server->Stop();
}

TEST_P(ReplTest, StalledPrimaryIsClosedAndRedialed) {
  // A fake primary: it answers the handshake, sends half a ReplBatch frame
  // and then holds the socket open without another byte.
  const int listener = ListenOn(0);
  ReplicaNode replica = StartReplica("stall_r", BoundPort(listener));
  const int first = AcceptWithin(listener, 5000);
  ASSERT_GE(first, 0);
  std::vector<uint8_t> bytes;
  server::EncodeHelloAck(server::HelloAck{}, &bytes);
  WriteAll(first, bytes, bytes.size());
  ASSERT_TRUE(WaitUntil([&] { return replica.applier->connected(); }, 5000));
  server::ReplBatch batch;
  batch.frames.assign(256, 0x5a);
  bytes.clear();
  server::EncodeReplBatch(batch, &bytes);
  WriteAll(first, bytes, bytes.size() / 2);

  const auto stalled_at = std::chrono::steady_clock::now();
  const int second = AcceptWithin(listener, 7000);
  EXPECT_GE(second, 0) << "the stalled stream was never redialed";
  EXPECT_GE(std::chrono::steady_clock::now() - stalled_at,
            std::chrono::milliseconds(4000))
      << "closed before the stall rule's 5 s";
  EXPECT_GE(replica.applier->reconnects(), 1u);
  EXPECT_TRUE(replica.applier->stream_status().ok());
  replica.Stop();
  if (second >= 0) ::close(second);
  ::close(first);
  ::close(listener);
}

TEST_P(ReplTest, StopIsPromptOnAnIdleReplica) {
  PrimaryNode primary = StartPrimary("stop_p", server::ReplAckMode::kAsync);
  ReplicaNode replica = StartReplica("stop_r", primary.server->port());
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(WaitUntil([&] { return replica.applier->connected(); }));
    // Idle: subscribed, nothing to ship.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto start = std::chrono::steady_clock::now();
    replica.applier->Stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::milliseconds(50)) << "round " << round;
    ASSERT_TRUE(replica.applier->Start().ok());
  }
  replica.Stop();
  primary.server->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ReplTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

}  // namespace
}  // namespace repl
}  // namespace next700
