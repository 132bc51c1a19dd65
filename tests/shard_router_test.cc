/// In-process shard-topology integration tests: two real shard servers
/// (each owning keys where key % 2 == shard_id) behind a real ShardRouter
/// over loopback sockets, parameterized over both io backends (uring
/// skipped where the kernel/sandbox denies rings). Covers the single-shard
/// fast path (verbatim forwarding, counters), cross-shard 2PC atomicity,
/// the kUnavailable error path when a shard is down mid-batch, router
/// restart replaying its durable decision log, 2PC on a failed decision
/// log and across a graceful Stop(), and the event-loop lifecycle: session
/// churn must not grow live-session state (the old thread-per-session tier
/// leaked a session + thread handle per dead client) and Stop() must
/// return promptly even with a down shard (the old reconnect path slept a
/// blind 200 ms ignoring stop_).

#include "shard/shard_router.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
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

using EngineTweak = std::function<void(uint32_t shard_id, EngineOptions*)>;

void StartShard(Topology* topo, uint32_t shard_id, const std::string& dir,
                const EngineTweak& tweak) {
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = 2;
  eng.num_partitions = kPartitions;
  eng.logging = LoggingKind::kValue;
  RemoveLogDir(dir);
  eng.log_dir = dir;
  if (tweak) tweak(shard_id, &eng);
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

/// `tweak` adjusts the router's options, `engine_tweak` each shard's.
void StartTopology(
    Topology* topo, const std::string& base_dir, io::IoBackendKind io_backend,
    const std::function<void(ShardRouterOptions*)>& tweak = nullptr,
    const EngineTweak& engine_tweak = nullptr) {
  ShardRouterOptions ropts;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    StartShard(topo, i, base_dir + "_s" + std::to_string(i), engine_tweak);
    if (::testing::Test::HasFatalFailure()) return;
    ropts.shards.push_back(
        "127.0.0.1:" + std::to_string(topo->servers[i]->port()));
  }
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base_dir + "_rt";
  ropts.vote_timeout_ms = 2000;
  ropts.io_backend = io_backend;
  if (tweak) tweak(&ropts);
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

/// Reads `key` through the router until the read commits (a read can meet
/// a branch that is still resolving) and returns its counter.
uint64_t ReadCounter(server::Client* client, uint64_t key) {
  server::Response response;
  for (int attempt = 0; attempt < 200; ++attempt) {
    EXPECT_TRUE(client->Call(GetRequest(key, key), &response, 10000).ok());
    if (response.status != StatusCode::kAborted &&
        response.status != StatusCode::kUnavailable) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(response.status, StatusCode::kOk) << "key " << key;
  return CounterOf(response);
}

// 2PC rides the loop links: with two loops, each shard sees exactly one
// connection per loop, however much cross-shard traffic flows (a second
// 2PC transport would dial connections of its own).
TEST_P(ShardRouterTest, OneConnectionPerLoopPerShard) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam(),
                [](ShardRouterOptions* o) { o->num_loops = 2; });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Two sessions land on different loops, so loop 1's cross-shard jobs
  // take the hand-off to loop 0 and back.
  for (int c = 0; c < 2; ++c) {
    server::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
    for (uint64_t i = 0; i < 4; ++i) {
      server::Response response;
      ASSERT_TRUE(client.Call(GetRequest(i, i), &response).ok());
      EXPECT_EQ(response.status, StatusCode::kOk);
      ASSERT_TRUE(client.Call(RmwRequest(i, {2 * i, 2 * i + 1}), &response)
                      .ok());
      EXPECT_EQ(response.status, StatusCode::kOk);
    }
  }
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 8u);
  for (uint32_t i = 0; i < kNumShards; ++i) {
    EXPECT_EQ(topo.servers[i]->stats().connections_accepted.load(), 2u)
        << "shard " << i;
  }
}

// A live but slow participant: shard 1's log device takes several vote
// timeouts to make a prepare durable. The transaction must answer
// kDeadlineExceeded promptly, the timeout must close and redial loop 0's
// link, and the redial sweep must abort the orphaned branch — so both
// halves keep their seeds.
TEST_P(ShardRouterTest, VoteTimeoutAbortsAndLinkRecovers) {
  constexpr int64_t kVoteTimeoutMs = 300;
  Topology topo;
  StartTopology(
      &topo, TempBase(), GetParam(),
      [](ShardRouterOptions* o) { o->vote_timeout_ms = kVoteTimeoutMs; },
      [](uint32_t shard_id, EngineOptions* eng) {
        if (shard_id == 1) eng->log_device_latency_us = 1500 * 1000;
      });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  server::Response response;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Call(RmwRequest(1, {20, 21}), &response, 10000).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed.count(), kVoteTimeoutMs + 1000);
  EXPECT_EQ(topo.router->stats().vote_timeouts.load(), 1u);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);

  EXPECT_TRUE(topo.router->WaitShardsConnected(15000));
  EXPECT_GE(topo.router->stats().resolved_in_doubt.load(), 1u);
  EXPECT_EQ(ReadCounter(&client, 20), 20u);
  EXPECT_EQ(ReadCounter(&client, 21), 21u);
  EXPECT_EQ(topo.router->stats().vote_timeouts.load(), 1u);
}

// The coordinator_threads cap: 32 pipelined cross-shard rmw on one pair
// with at most 2 in 2PC (and 2 workers per shard) all commit, reply in
// request order, and leave no commit state behind once acked. The shards
// run H-Store so each serializes a partition's prepares in arrival order:
// both shards then prepare the two concurrent gtids in the same order,
// where spinning OCC locks could let each shard favour a different gtid
// and deadlock the pair until the vote timeout.
TEST_P(ShardRouterTest, CappedCrossShardPipelineCommitsInOrder) {
  constexpr uint64_t kTxns = 32;
  Topology topo;
  StartTopology(
      &topo, TempBase(), GetParam(),
      [](ShardRouterOptions* o) { o->coordinator_threads = 2; },
      [](uint32_t, EngineOptions* eng) { eng->cc_scheme = CcScheme::kHstore; });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  for (uint64_t i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(client.Send(RmwRequest(i, {30, 31})).ok());
  }
  for (uint64_t i = 0; i < kTxns; ++i) {
    server::Response response;
    ASSERT_TRUE(client.Recv(&response, 30000).ok()) << "reply " << i;
    EXPECT_EQ(response.request_id, i);
    EXPECT_EQ(response.status, StatusCode::kOk) << "reply " << i;
  }
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), kTxns);
  EXPECT_EQ(ReadCounter(&client, 30), 30 + kTxns);
  EXPECT_EQ(ReadCounter(&client, 31), 31 + kTxns);
  // Every reply waited for its acks, so nothing is left unacked.
  EXPECT_EQ(topo.router->stats().commits_unacked.load(), 0u);
}

/// Points the router's open decision-log segment at a read-only /dev/null,
/// so every later write to it fails (EBADF) like a device that went away.
void FailDecisionLogDevice(const std::string& log_dir) {
  const std::string prefix =
      std::filesystem::canonical(log_dir).string() + "/";
  int swapped = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (ec || target.string().rfind(prefix, 0) != 0) continue;
    const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(null_fd, 0);
    ASSERT_GE(::dup2(null_fd, std::stoi(entry.path().filename().string())),
              0);
    ::close(null_fd);
    ++swapped;
  }
  EXPECT_EQ(swapped, 1);
}

// After a decision-log device failure the flusher reports once and stops,
// so no durable callback comes for a commit appended later: every
// cross-shard rmw must still abort with the log's error, not wait forever.
TEST_P(ShardRouterTest, DecisionLogFailureAbortsEveryCrossShardRmw) {
  const std::string base = TempBase();
  Topology topo;
  StartTopology(&topo, base, GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  FailDecisionLogDevice(base + "_rt");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  constexpr uint64_t kTxns = 3;
  for (uint64_t i = 0; i < kTxns; ++i) {
    server::Response response;
    ASSERT_TRUE(client.Call(RmwRequest(i, {40, 41}), &response, 5000).ok())
        << "rmw " << i;
    EXPECT_EQ(response.status, StatusCode::kIOError) << "rmw " << i;
  }
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), kTxns);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
  EXPECT_EQ(ReadCounter(&client, 40), 40u);
  EXPECT_EQ(ReadCounter(&client, 41), 41u);
}

// A graceful Stop() with a transaction still voting sends its participants
// the abort before the loops stop, so no branch stays parked on a live
// shard holding its keys. Shard 1's slow log device holds its vote back
// across the Stop(); shard 0 has voted yes and parked by then.
TEST_P(ShardRouterTest, StopMidTwoPhaseCommitReleasesBranches) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam(), nullptr,
                [](uint32_t shard_id, EngineOptions* eng) {
                  if (shard_id == 1) eng->log_device_latency_us = 500 * 1000;
                });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  ASSERT_TRUE(client.Send(RmwRequest(1, {50, 51})).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  topo.router->Stop();
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), 1u);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);

  // Each shard's key is writable straight away, and kept its seed.
  for (uint32_t s = 0; s < kNumShards; ++s) {
    const uint64_t key = 50 + s;
    server::Client direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", topo.servers[s]->port()).ok());
    server::Response response;
    ASSERT_TRUE(direct.Call(RmwRequest(1, {key}), &response, 5000).ok())
        << "shard " << s;
    EXPECT_EQ(response.status, StatusCode::kOk) << "shard " << s;
    EXPECT_EQ(ReadCounter(&direct, key), key + 1);
  }
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
