#include "repl/replica_applier.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "server/protocol.h"

namespace next700 {
namespace repl {

ReplicaApplier::ReplicaApplier(Engine* engine, ReplicaApplierOptions options)
    : engine_(engine), options_(std::move(options)), recovery_(engine) {
  NEXT700_CHECK(engine_ != nullptr);
  NEXT700_CHECK_MSG(engine_->log_manager() != nullptr,
                    "replica applier requires a local log");
}

ReplicaApplier::~ReplicaApplier() { Stop(); }

Status ReplicaApplier::Start() {
  NEXT700_CHECK(loop_ == nullptr);
  // Bootstrap already applied everything in the local log (see the file
  // header), so the local durable end is both the applied watermark and
  // the subscription position.
  applied_lsn_.store(engine_->log_manager()->durable_lsn(),
                     std::memory_order_release);
  std::unique_ptr<server::EventLoop> loop;
  NEXT700_RETURN_IF_ERROR(server::EventLoop::Create(
      engine_->options().log_io_backend, this, &loop_stats_, &loop));
  NEXT700_RETURN_IF_ERROR(loop->Dial(options_.primary));
  loop_ = std::move(loop);
  loop_->Start("n7-apply");
  return Status::OK();
}

void ReplicaApplier::Stop() {
  if (loop_ == nullptr) return;
  loop_->Stop();
  loop_.reset();  // Closes the connection.
  connected_.store(false, std::memory_order_relaxed);
}

Status ReplicaApplier::stream_status() const {
  MutexLock lock(&status_mu_);
  return stream_status_;
}

void ReplicaApplier::OnDialed(size_t /*peer*/, server::Connection* conn) {
  // Subscribe from the local durable end. Everything below it was applied
  // (bootstrap contract + apply-before-ack ordering), so the stream
  // resumes without gaps or re-application.
  std::vector<uint8_t> bytes;
  server::Hello hello;
  hello.role = server::PeerRole::kReplica;
  server::EncodeHello(hello, &bytes);
  server::EncodeReplAck(
      server::ReplAck{engine_->log_manager()->durable_lsn(), applied_lsn()},
      &bytes);
  conn->EnqueueRaw(bytes.data(), bytes.size());
  loop_->MarkDirty(conn);
}

bool ReplicaApplier::OnFrames(server::Connection* conn) {
  LogManager* log = engine_->log_manager();
  for (;;) {
    server::Frame frame;
    bool have = false;
    if (!conn->decoder()->Next(&frame, &have).ok()) break;
    if (!have) return true;
    if (!conn->handshaken()) {
      server::HelloAck hello_ack;
      if (frame.type != server::FrameType::kHelloAck ||
          !server::DecodeHelloAck(frame.body, frame.body_len, &hello_ack)
               .ok()) {
        break;
      }
      conn->set_handshaken();
      loop_->PeerUp(0);
      connected_.store(true, std::memory_order_relaxed);
      continue;
    }
    // A checksum mismatch poisons only the connection, not the replica:
    // nothing of the bad batch was appended, so the redial re-ships it. A
    // batch that does not continue our log end means the subscription got
    // out of sync; the redial resubscribes from scratch.
    server::ReplBatch batch;
    if (frame.type != server::FrameType::kReplBatch ||
        !server::DecodeReplBatch(frame.body, frame.body_len, &batch).ok() ||
        batch.start_lsn != log->appended_lsn()) {
      break;
    }
    log->AppendRaw(batch.frames.data(), batch.frames.size());
    const Lsn end = batch.end_lsn();
    Status status = log->WaitDurable(end);
    RecoveryStats stats;
    if (status.ok()) {
      WriteLock();
      status = recovery_.ApplyFrames(batch.frames.data(),
                                     batch.frames.size(), &stats);
      if (status.ok()) applied_lsn_.store(end, std::memory_order_release);
      WriteUnlock();
    }
    if (!status.ok()) {
      MutexLock lock(&status_mu_);  // The local log or engine is broken.
      if (stream_status_.ok()) stream_status_ = status;
      break;
    }
    batches_applied_.fetch_add(1, std::memory_order_relaxed);
    txns_applied_.fetch_add(stats.txns_replayed, std::memory_order_relaxed);
    primary_durable_lsn_.store(
        std::max(primary_durable_lsn_.load(std::memory_order_relaxed),
                 batch.primary_durable_lsn),
        std::memory_order_relaxed);
    std::vector<uint8_t> encoded;
    server::EncodeReplAck(server::ReplAck{end, end}, &encoded);
    conn->EnqueueRaw(encoded.data(), encoded.size());
    loop_->MarkDirty(conn);
  }
  // The loop redials a closed connection, unless a fatal error stuck: no
  // redial can help then.
  if (stream_status().ok()) {
    loop_->Close(conn);
  } else {
    loop_->DropPeer(0);
  }
  return false;
}

void ReplicaApplier::OnClosed(server::Connection* /*conn*/) {
  connected_.store(false, std::memory_order_relaxed);
  if (stream_status().ok()) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);  // The loop redials.
  }
}

void ReplicaApplier::ReadLock() {
  MutexLock lock(&gate_mu_);
  // Writer priority: a waiting applier blocks new readers, so a steady
  // read load cannot stall the stream (and with it, failover freshness).
  while (writer_ || writers_waiting_ > 0) gate_cv_.Wait(&gate_mu_);
  ++readers_;
}

void ReplicaApplier::ReadUnlock() {
  MutexLock lock(&gate_mu_);
  if (--readers_ == 0) gate_cv_.NotifyAll();
}

void ReplicaApplier::WriteLock() {
  MutexLock lock(&gate_mu_);
  ++writers_waiting_;
  while (writer_ || readers_ > 0) gate_cv_.Wait(&gate_mu_);
  --writers_waiting_;
  writer_ = true;
}

void ReplicaApplier::WriteUnlock() {
  MutexLock lock(&gate_mu_);
  writer_ = false;
  gate_cv_.NotifyAll();
}

}  // namespace repl
}  // namespace next700
