/// In-process shard-topology integration tests: two real shard servers
/// (each owning keys where key % 2 == shard_id) behind a real ShardRouter
/// over loopback sockets, parameterized over both io backends (uring
/// skipped where the kernel/sandbox denies rings). Covers the single-shard
/// fast path (verbatim forwarding, counters), cross-shard 2PC atomicity,
/// the kUnavailable error path when a shard is down mid-batch, router
/// restart replaying its durable decision log, and the event-loop
/// lifecycle: session churn must not grow live-session state (the old
/// thread-per-session tier leaked a session + thread handle per dead
/// client) and Stop() must return promptly even with a down shard (the old
/// reconnect path slept a blind 200 ms ignoring stop_).

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fd_exhaustion.h"
#include "io/io_backend.h"
#include "server/client.h"
#include "server/procs.h"
#include "server/protocol.h"
#include "server/server.h"

namespace next700 {
namespace shard {
namespace {

constexpr uint32_t kNumShards = 2;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kRecords = 1024;

struct Topology {
  std::unique_ptr<Engine> engines[kNumShards];
  std::unique_ptr<server::Server> servers[kNumShards];
  std::unique_ptr<ShardRouter> router;

  ~Topology() {
    if (router != nullptr) router->Stop();
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
  }
};

class ShardRouterTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
  }
};

/// Log directories must be unique per test *instance*, not just per case:
/// `ctest -j` runs the epoll and uring instantiations of the same case as
/// concurrent processes, and a shared directory means one process's
/// RemoveLogDir races the other's open log. The test-info name carries the
/// param suffix ("Case/epoll").
std::string TempBase() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string slug = std::string(info->name());
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  return std::string(::testing::TempDir()) + "/next700_shardtest_" + slug;
}

void StartShard(Topology* topo, uint32_t shard_id, const std::string& dir) {
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = 2;
  eng.num_partitions = kPartitions;
  eng.logging = LoggingKind::kValue;
  RemoveLogDir(dir);
  eng.log_dir = dir;
  topo->engines[shard_id] = std::make_unique<Engine>(eng);
  server::KvServiceOptions kv;
  kv.num_records = kRecords;
  kv.num_shards = kNumShards;
  kv.shard_id = shard_id;
  server::RegisterKvService(topo->engines[shard_id].get(), kv);
  server::ServerOptions srv;
  srv.num_workers = 2;
  topo->servers[shard_id] = std::make_unique<server::Server>(
      topo->engines[shard_id].get(), srv);
  ASSERT_TRUE(topo->servers[shard_id]->Start().ok());
}

void StartTopology(Topology* topo, const std::string& base_dir,
                   io::IoBackendKind io_backend) {
  ShardRouterOptions ropts;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    StartShard(topo, i, base_dir + "_s" + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
    ropts.shards.push_back(
        "127.0.0.1:" + std::to_string(topo->servers[i]->port()));
  }
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base_dir + "_rt";
  ropts.vote_timeout_ms = 2000;
  ropts.io_backend = io_backend;
  topo->router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo->router->Start().ok());
  ASSERT_TRUE(topo->router->WaitShardsConnected(15000));
}

server::Request GetRequest(uint64_t request_id, uint64_t key) {
  server::Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvGet;
  server::WireWriter args(&request.args);
  args.PutU64(key);
  return request;
}

server::Request RmwRequest(uint64_t request_id,
                           const std::vector<uint64_t>& keys) {
  server::Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvRmw;
  server::WireWriter args(&request.args);
  args.PutU16(static_cast<uint16_t>(keys.size()));
  for (const uint64_t key : keys) args.PutU64(key);
  return request;
}

/// The kv row's counter lives in the first 8 payload bytes, seeded = key.
uint64_t CounterOf(const server::Response& response) {
  EXPECT_GE(response.payload.size(), sizeof(uint64_t));
  uint64_t counter = 0;
  std::memcpy(&counter, response.payload.data(), sizeof(counter));
  return counter;
}

TEST_P(ShardRouterTest, SingleShardFastPathForwardsBothShards) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Keys on both shards route to their owner and read the seeded counter.
  for (const uint64_t key : {0ull, 1ull, 42ull, 43ull}) {
    server::Response response;
    ASSERT_TRUE(client.Call(GetRequest(key, key), &response).ok());
    EXPECT_EQ(response.status, StatusCode::kOk) << "key " << key;
    EXPECT_EQ(CounterOf(response), key);
  }
  // A single-shard rmw (both keys on shard 0) commits without 2PC.
  server::Response response;
  ASSERT_TRUE(client.Call(RmwRequest(100, {2, 4}), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
  EXPECT_GE(topo.router->stats().forwarded.load(), 5u);
}

TEST_P(ShardRouterTest, CrossShardRmwCommitsAtomically) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Keys 6 and 7 live on different shards: this is a distributed txn.
  server::Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, {6, 7}), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  // The reply's commit_lsn is the coordinator's durable decision LSN.
  EXPECT_GT(response.commit_lsn, 0u);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 1u);
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), 0u);

  // Both halves of the increment are visible through the fast path.
  ASSERT_TRUE(client.Call(GetRequest(2, 6), &response).ok());
  EXPECT_EQ(CounterOf(response), 6u + 1);
  ASSERT_TRUE(client.Call(GetRequest(3, 7), &response).ok());
  EXPECT_EQ(CounterOf(response), 7u + 1);
}

TEST_P(ShardRouterTest, PipelinedMixedTrafficKeepsRequestOrder) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Pipeline a burst that alternates shards and includes a cross-shard
  // txn in the middle; the reorder buffer must deliver replies in
  // request order even though they complete on different shards (and the
  // cross-shard one on the coordinator pool).
  constexpr uint64_t kBurst = 20;
  for (uint64_t i = 0; i < kBurst; ++i) {
    if (i == 10) {
      ASSERT_TRUE(client.Send(RmwRequest(i, {8, 9})).ok());
    } else {
      ASSERT_TRUE(client.Send(GetRequest(i, i % 8)).ok());
    }
  }
  for (uint64_t i = 0; i < kBurst; ++i) {
    server::Response response;
    ASSERT_TRUE(client.Recv(&response, 10000).ok()) << "reply " << i;
    EXPECT_EQ(response.request_id, i);  // FIFO across shards.
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 1u);
}

TEST_P(ShardRouterTest, DownShardAnswersUnavailableAndRecovers) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  topo.servers[1]->Stop();

  // Requests for the dead shard answer kUnavailable (connection survives);
  // the live shard keeps serving. The router notices the dead shard
  // asynchronously, so poll until the error surfaces.
  server::Response response;
  bool saw_unavailable = false;
  StatusCode last = StatusCode::kOk;
  for (int attempt = 0; attempt < 100 && !saw_unavailable; ++attempt) {
    const Status got = client.Call(GetRequest(1, 1), &response, 10000);
    ASSERT_TRUE(got.ok()) << got.ToString();
    last = response.status;
    if (response.status == StatusCode::kUnavailable) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable) << "last status " << static_cast<int>(last);
  ASSERT_TRUE(client.Call(GetRequest(2, 0), &response, 10000).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);

  // A cross-shard txn with a dead participant must abort, not hang.
  ASSERT_TRUE(client.Call(RmwRequest(3, {0, 1}), &response, 30000).ok());
  EXPECT_NE(response.status, StatusCode::kOk);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
}

TEST_P(ShardRouterTest, RouterRestartReplaysDecisionLog) {
  const std::string base = TempBase();
  Topology topo;
  StartTopology(&topo, base, GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  {
    server::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", topo.router->port()).ok());
    server::Response response;
    ASSERT_TRUE(client.Call(RmwRequest(1, {10, 11}), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
  }
  topo.router->Stop();

  // A new router over the same decision log reconnects, finds no in-doubt
  // backlog (the decision was delivered), and keeps serving; the committed
  // increments are still visible.
  ShardRouterOptions ropts;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    ropts.shards.push_back(
        "127.0.0.1:" + std::to_string(topo.servers[i]->port()));
  }
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base + "_rt";
  ropts.io_backend = GetParam();
  topo.router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo.router->Start().ok());
  ASSERT_TRUE(topo.router->WaitShardsConnected(15000));

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  server::Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 10), &response).ok());
  EXPECT_EQ(CounterOf(response), 10u + 1);
  ASSERT_TRUE(client.Call(GetRequest(2, 11), &response).ok());
  EXPECT_EQ(CounterOf(response), 11u + 1);
  ASSERT_TRUE(client.Call(RmwRequest(3, {10, 11}), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

// Lifecycle regression: the old AcceptLoop pushed a ClientSession and a
// thread handle per connection and never reaped either, so a
// connect/disconnect storm grew both without bound. The event-loop tier
// must free every closed session: after the churn, closed catches up with
// accepted (disconnect handling is asynchronous, so poll briefly).
TEST_P(ShardRouterTest, SessionChurnReapsClosedSessions) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  constexpr int kCycles = 40;
  for (int i = 0; i < kCycles; ++i) {
    server::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", topo.router->port()).ok());
    server::Response response;
    ASSERT_TRUE(client.Call(GetRequest(i, i % 8), &response).ok());
    EXPECT_EQ(response.status, StatusCode::kOk);
    client.Close();
  }

  const ShardRouterStats& stats = topo.router->stats();
  EXPECT_GE(stats.sessions_accepted.load(), static_cast<uint64_t>(kCycles));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats.sessions_closed.load() < stats.sessions_accepted.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.sessions_closed.load(), stats.sessions_accepted.load())
      << "live sessions leaked after disconnects";
}

// Lifecycle regression: the old ShardLoop slept a blind 200 ms between
// reconnect attempts ignoring stop_, and WaitShardsConnected poll-slept.
// With every shard down (nothing listening on the target ports) Stop()
// must still return promptly — the loops park in Reap with a backoff
// deadline and a Wakeup unparks them.
TEST_P(ShardRouterTest, StopIsPromptWithDownShards) {
  ShardRouterOptions ropts;
  // Port 1 is privileged and never has a listener in these sandboxes:
  // connects fail fast with ECONNREFUSED and the links sit in backoff.
  ropts.shards = {"127.0.0.1:1", "127.0.0.1:1"};
  ropts.num_partitions = kPartitions;
  ropts.log_dir = TempBase() + "_rt";
  RemoveLogDir(ropts.log_dir);
  ropts.io_backend = GetParam();
  ShardRouter router(ropts);
  ASSERT_TRUE(router.Start().ok());
  EXPECT_FALSE(router.WaitShardsConnected(150));

  // Let a few reconnect cycles run so Stop lands mid-backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  router.Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 100) << "Stop() took " << elapsed.count()
                                  << " ms with down shards";
}

// The accept backoff under fd exhaustion: no spinning while the fd table
// is full, and every queued client is served once fds free up.
TEST_P(ShardRouterTest, AcceptBacksOffWhenFdsRunOut) {
  fd_exhaustion::NofileLimit limit;
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  fd_exhaustion::ExpectAcceptBacksOffWhenFdsRunOut(topo.router->port(),
                                                   topo.router->stats());
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ShardRouterTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

}  // namespace
}  // namespace shard
}  // namespace next700
