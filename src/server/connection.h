#ifndef NEXT700_SERVER_CONNECTION_H_
#define NEXT700_SERVER_CONNECTION_H_

/// \file
/// Per-connection state of the networked transaction service and the shard
/// router. A Connection is owned and touched exclusively by its EventLoop's
/// thread (event_loop.h), so it needs no internal locking; worker threads
/// hand results back through their owner's completion queue, never through
/// the connection directly.
///
/// Pipelining contract: a client may have many requests in flight, and the
/// server executes them on concurrent workers, so completions arrive out of
/// order — but responses are released to the socket strictly in request
/// arrival order (like Redis/PostgreSQL pipelining). Each admitted request
/// gets a connection-local sequence number; completed responses park in
/// `completed_` until everything ahead of them has been written. Sequence
/// numbers (not client request ids) key the ordering so a client that
/// reuses request ids cannot confuse the server.
///
/// The outbound side is a queue of whole frames, not a flat byte buffer:
/// every frame that becomes writable in one event-loop batch is gathered
/// into a single writev submission (BuildIovec), so a pipelined client at
/// depth d costs ~1 write syscall per batch instead of d.

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "repl/log_shipper.h"
#include "server/protocol.h"

namespace next700 {
namespace server {

class Connection {
 public:
  /// Frames gathered into one writev submission. Linux caps iovcnt at
  /// IOV_MAX (1024); 64 keeps the per-connection iovec array small while
  /// still amortizing a deep pipeline into a handful of syscalls.
  static constexpr int kMaxIov = 64;

  Connection(int fd, uint64_t id) : fd_(fd), id_(id) {}
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  uint64_t id() const { return id_; }

  FrameDecoder* decoder() { return &decoder_; }

  // --- Handshake / peer identity ----------------------------------------

  /// The peer's Hello has been accepted; any pre-handshake frame other
  /// than Hello closes the connection.
  bool handshaken() const { return handshaken_; }
  void set_handshaken() { handshaken_ = true; }

  PeerRole peer() const { return peer_; }
  void set_peer(PeerRole role) { peer_ = role; }

  /// Shipping cursor for a subscribed replica peer; null until its first
  /// ReplAck names a start LSN.
  repl::LogShipper* shipper() { return shipper_.get(); }
  void set_shipper(std::unique_ptr<repl::LogShipper> shipper) {
    shipper_ = std::move(shipper);
  }

  /// Registers the next request in arrival order; returns its sequence
  /// number, which the eventual Complete() must echo.
  uint64_t AdmitRequest();

  /// Parks the encoded response for `seq`; call FlushOrdered() afterwards.
  void Complete(uint64_t seq, std::vector<uint8_t> encoded_response);

  /// Moves every response that is next in arrival order into the outbound
  /// frame queue. Returns the number of responses released.
  size_t FlushOrdered();

  /// Requests admitted but whose response is not yet released to the
  /// outbound queue.
  size_t pending_responses() const { return order_.size(); }

  // --- Outbound frame queue (event loop only) ----------------------------

  /// Appends a pre-encoded frame directly to the outbound queue, bypassing
  /// the ordered-reply machinery (handshake acks, replication batches —
  /// frames that are not responses to admitted requests).
  void EnqueueRaw(const uint8_t* data, size_t len);

  bool has_pending_writes() const { return out_bytes_ > 0; }
  /// Unsent bytes queued (the replication shipping window measures this).
  size_t write_len() const { return out_bytes_; }

  /// Fills `iov` (capacity kMaxIov) with the unsent prefix of the frame
  /// queue and returns the entry count. The pointed-to bytes stay valid
  /// until the matching ConsumeWritten — the deque never reallocates a
  /// queued frame's storage.
  int BuildIovec(struct iovec* iov) const;

  void ConsumeWritten(size_t n);

  // --- Async submission state (event loop only) --------------------------

  /// A read is outstanding on the io backend for this fd.
  bool read_inflight() const { return read_inflight_; }
  void set_read_inflight(bool v) { read_inflight_ = v; }

  /// A writev is outstanding on the io backend for this fd. The iovec
  /// array passed to the backend is iov() below, so exactly one write may
  /// be in flight per connection.
  bool write_inflight() const { return write_inflight_; }
  void set_write_inflight(bool v) { write_inflight_ = v; }

  /// Backing store for the in-flight writev's iovec entries; must stay
  /// untouched until the completion arrives.
  struct iovec* iov() { return iov_; }

  /// New frames were queued this event-loop batch; a writev submission is
  /// owed at batch end (the loop's dirty list).
  bool flush_pending() const { return flush_pending_; }
  void set_flush_pending(bool v) { flush_pending_ = v; }

  /// Read buffer the outstanding read targets; allocated lazily on
  /// first use and owned by the connection (it must outlive any in-flight
  /// read, which connection teardown guarantees via CancelFd-before-free).
  uint8_t* EnsureReadBuffer(size_t len);
  uint8_t* read_buf() const { return read_buf_.get(); }
  size_t read_buf_len() const { return read_buf_len_; }

  /// Reads stopped because the server-wide in-flight budget is full.
  bool read_paused() const { return read_paused_; }
  void set_read_paused(bool v) { read_paused_ = v; }

  /// The peer half-closed or a fatal error occurred; close once the write
  /// buffer drains.
  bool draining() const { return draining_; }
  void set_draining() { draining_ = true; }

 private:
  int fd_;
  uint64_t id_;
  FrameDecoder decoder_;
  bool handshaken_ = false;
  PeerRole peer_ = PeerRole::kClient;
  std::unique_ptr<repl::LogShipper> shipper_;
  uint64_t next_seq_ = 1;
  std::deque<uint64_t> order_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> completed_;

  std::deque<std::vector<uint8_t>> out_q_;
  size_t front_off_ = 0;   // Sent prefix of out_q_.front().
  size_t out_bytes_ = 0;   // Total unsent bytes across out_q_.
  struct iovec iov_[kMaxIov];

  std::unique_ptr<uint8_t[]> read_buf_;
  size_t read_buf_len_ = 0;

  bool read_inflight_ = false;
  bool write_inflight_ = false;
  bool flush_pending_ = false;
  bool read_paused_ = false;
  bool draining_ = false;
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_CONNECTION_H_
