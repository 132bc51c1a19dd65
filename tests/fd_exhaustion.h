#ifndef NEXT700_TESTS_FD_EXHAUSTION_H_
#define NEXT700_TESTS_FD_EXHAUSTION_H_

/// The fd-exhaustion scenario every listener (server and shard router)
/// must survive: with the process's fd table full, every accept fails with
/// EMFILE while clients keep queueing in the listen backlog. A listener
/// that keeps its accept armed sees the same failure on every reap and
/// spins a core; the shared event loop must back off instead, then serve
/// the queued clients once fds free up.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "server/event_loop.h"
#include "server/procs.h"
#include "server/protocol.h"

namespace next700 {
namespace fd_exhaustion {

/// Lowers the soft RLIMIT_NOFILE to at most kLimit (so a fill stays
/// small) for the guard's lifetime. Take it before the listener starts:
/// io_uring captures the limit when an accept is armed.
class NofileLimit {
 public:
  static constexpr rlim_t kLimit = 4096;

  NofileLimit() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(saved_.rlim_cur, kLimit);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
  }
  ~NofileLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  NofileLimit(const NofileLimit&) = delete;
  NofileLimit& operator=(const NofileLimit&) = delete;

 private:
  rlimit saved_{};
};

/// Dups until EMFILE. Release() (or the destructor) frees the fds.
class FdTableFiller {
 public:
  FdTableFiller() {
    const int base = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (base >= 0) fds_.push_back(base);
    for (;;) {
      const int fd = base < 0 ? -1 : ::fcntl(base, F_DUPFD_CLOEXEC, 0);
      if (fd < 0) {
        full_ = errno == EMFILE;
        break;
      }
      fds_.push_back(fd);
    }
  }
  ~FdTableFiller() { Release(); }
  FdTableFiller(const FdTableFiller&) = delete;
  FdTableFiller& operator=(const FdTableFiller&) = delete;

  /// True once a dup failed with EMFILE: no fd is left.
  bool full() const { return full_; }

  void Release() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
  }

 private:
  std::vector<int> fds_;
  bool full_ = false;
};

/// A client whose socket is opened before the fd table fills. Its connect
/// completes into the listener's backlog whether or not the server can
/// accept it.
class BackloggedClient {
 public:
  BackloggedClient() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {}
  ~BackloggedClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  BackloggedClient(const BackloggedClient&) = delete;
  BackloggedClient& operator=(const BackloggedClient&) = delete;

  /// Connects and sends a Hello plus a get of `key`.
  bool ConnectAndSendGet(uint16_t port, uint64_t key) {
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      return false;
    }
    std::vector<uint8_t> wire;
    server::EncodeHello(server::Hello{}, &wire);
    server::Request get;
    get.request_id = key;
    get.proc_id = server::kKvGet;
    server::WireWriter args(&get.args);
    args.PutU64(key);
    server::EncodeRequest(get, &wire);
    return ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(wire.size());
  }

  /// Waits up to `deadline_ms` for the HelloAck and the get's response.
  bool ReceiveGet(int deadline_ms, server::Response* response) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    int frames = 0;
    while (frames < 2) {
      server::Frame frame;
      bool have = false;
      if (!decoder_.Next(&frame, &have).ok()) return false;
      if (have) {
        const server::FrameType want = frames == 0
                                           ? server::FrameType::kHelloAck
                                           : server::FrameType::kResponse;
        if (frame.type != want) return false;
        if (++frames == 2) {
          return server::DecodeResponse(frame.body, frame.body_len, response)
              .ok();
        }
        continue;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return false;
      }
      uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
    return false;
  }

 private:
  int fd_;
  server::FrameDecoder decoder_;
};

/// User + system CPU of the whole process, in microseconds.
inline int64_t ProcessCpuUs() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000LL +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

/// Runs the scenario against the listener on `port`, whose loop counts
/// into `stats` and which started under a NofileLimit: a few clients queue
/// while the fd table is full for ~500 ms, then each must complete a get
/// once the fds are freed.
inline void ExpectAcceptBacksOffWhenFdsRunOut(uint16_t port,
                                             const server::LoopStats& stats) {
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<BackloggedClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<BackloggedClient>());
  }
  FdTableFiller filler;
  ASSERT_TRUE(filler.full());
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i]->ConnectAndSendGet(port, static_cast<uint64_t>(i)));
  }

  const int64_t cpu_start = ProcessCpuUs();
  const auto wall_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const int64_t cpu_us = ProcessCpuUs() - cpu_start;
  const int64_t wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  EXPECT_LT(cpu_us, wall_us / 5)
      << "the listener spins on a failing accept: " << cpu_us
      << " us of CPU in " << wall_us << " us";
  EXPECT_GT(stats.accept_errors.load(), 0u);

  // The backed-off accept re-arms and drains the backlog.
  filler.Release();
  for (int i = 0; i < kClients; ++i) {
    server::Response response;
    ASSERT_TRUE(clients[i]->ReceiveGet(/*deadline_ms=*/5000, &response))
        << "queued client " << i << " was never served";
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.request_id, static_cast<uint64_t>(i));
  }
}

}  // namespace fd_exhaustion
}  // namespace next700

#endif  // NEXT700_TESTS_FD_EXHAUSTION_H_
