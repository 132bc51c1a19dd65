#ifndef NEXT700_SERVER_CLIENT_H_
#define NEXT700_SERVER_CLIENT_H_

/// \file
/// Blocking client for the networked transaction service, with explicit
/// pipelining: Send() queues any number of requests without waiting, and
/// Recv() returns responses in request order (the server guarantees
/// per-connection ordering). Every receive takes a deadline and returns
/// kDeadlineExceeded on expiry, kUnavailable when the server hangs up.
/// One Client per thread; instances are not thread-safe.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"

namespace next700 {
namespace server {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and performs the protocol handshake: sends a Hello declaring
  /// `role` and waits for the server's HelloAck (magic + version checked on
  /// both sides). A replication subscriber connects with PeerRole::kReplica.
  Status Connect(const std::string& host, uint16_t port,
                 PeerRole role = PeerRole::kClient);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Queues and writes one request frame. Blocks only if the socket buffer
  /// is full (the server applies backpressure by not reading).
  Status Send(const Request& request);

  /// Receives the next response (request order). `deadline_ms` < 0 waits
  /// forever.
  Status Recv(Response* response, int64_t deadline_ms = 5000);

  /// Unary convenience: Send + Recv and verify the echoed request id.
  Status Call(const Request& request, Response* response,
              int64_t deadline_ms = 5000);

  /// Receives the next frame of any type, copying its body into `*body`
  /// (protocol tests read handshake and 2PC frames this way).
  Status RecvFrame(FrameType* type, std::vector<uint8_t>* body,
                   int64_t deadline_ms = 5000);

  /// Sends raw bytes as-is — protocol tests use this to inject malformed
  /// frames; not for normal use.
  Status SendRaw(const void* data, size_t len);

  /// Bytes received but not yet assembled into a complete frame. A receive
  /// loop that keeps hitting kDeadlineExceeded can distinguish an idle peer
  /// (0) from one stalled mid-frame (nonzero, unchanged across deadlines).
  size_t buffered_bytes() const { return decoder_.buffered_bytes(); }

  /// Relinquishes the connected socket (post-handshake) to the caller;
  /// the Client reverts to disconnected and will not close it. The
  /// pipelined client driver (server/loadgen.h) handshakes every
  /// connection through a Client, then drives the raw fd nonblocking.
  int ReleaseFd() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<uint8_t> send_buf_;
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_CLIENT_H_
