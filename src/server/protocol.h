#ifndef NEXT700_SERVER_PROTOCOL_H_
#define NEXT700_SERVER_PROTOCOL_H_

/// \file
/// Binary wire protocol of the networked transaction service. Every frame
/// is length-prefixed:
///
///   [u32 body_len][u8 frame_type][body ... body_len bytes]
///
/// Every connection opens with a handshake: the peer's first frame must be
/// a Hello carrying the protocol magic, version, and role; the server
/// answers with a HelloAck echoing its own magic + version. A mixed-version
/// or non-next700 peer is rejected loudly (kInvalidArgument, connection
/// closed) instead of being fed to the request decoder as garbage.
///
/// Hello body (peer -> server):
///   u32 magic            kWireMagic ("N700")
///   u8  version          kWireVersion
///   u8  role             PeerRole: ordinary client, subscribing replica,
///                        or shard-router / 2PC coordinator
///
/// HelloAck body (server -> peer):
///   u32 magic
///   u8  version
///
/// Request body (client -> server):
///   u64 request_id       echoed verbatim in the response
///   u32 proc_id          registered stored procedure to run
///   u64 min_read_lsn     read-your-writes floor for replica snapshot reads:
///                        a replica whose applied LSN is below this answers
///                        kUnavailable instead of serving a staler snapshot
///                        (0 = any snapshot is acceptable)
///   u16 num_partitions   declared partition set (H-Store compositions)
///   u32 arg_len
///   num_partitions x u32 partition ids
///   arg_len bytes of procedure arguments (typed via WireWriter/WireReader)
///
/// Response body (server -> client):
///   u64 request_id
///   u8  status_code      StatusCode of the procedure execution
///   u64 commit_lsn       log position the commit waited on; on a replica
///                        read, the applied LSN the snapshot was served at
///   u32 payload_len
///   payload_len bytes    procedure reply payload (TxnContext::reply_payload)
///
/// Replication stream (primary -> replica, after a role=kReplica Hello):
///
/// ReplBatch body:
///   u64 start_lsn        LSN of the first byte of `frames`
///   u64 primary_durable_lsn   primary's durable watermark (lag metric)
///   u32 frames_len
///   frames_len bytes     verbatim log frames (the primary's on-disk bytes)
///   u64 batch_sum        FNV-1a over `frames` — transport integrity on top
///                        of the per-frame checksums
///
/// ReplAck body (replica -> primary):
///   u64 durable_lsn      replica-durable prefix (semisync release gate)
///   u64 applied_lsn      applied to the replica engine (staleness metric)
///
/// The replica's first ReplAck doubles as its subscription position: the
/// primary starts shipping from that ack's durable_lsn.
///
/// Two-phase commit (coordinator <-> participant, after a role=kCoordinator
/// Hello): the coordinator may forward ordinary Request frames verbatim
/// (single-shard fast path — the participant answers with ordinary
/// Response frames) and may drive Prepare / CommitDecision / AbortDecision
/// / InDoubtQuery frames for cross-shard transactions. Every coordinator
/// frame gets exactly one reply frame, in arrival order, over the same
/// per-connection FIFO machinery as responses: Request -> Response,
/// Prepare -> Vote, *Decision -> DecisionAck, InDoubtQuery -> InDoubtList.
/// Frame bodies are documented on their structs below.
///
/// Byte order: every multi-byte integer on the wire is little-endian,
/// serialized through the StoreLE/LoadLE helpers — never raw host-memory
/// copies — so mixed-endian peers interoperate. The golden-frame tests in
/// protocol_test.cc pin the exact octets.
///
/// Robustness contract: decoders never trust the peer. Oversized or
/// garbage headers are unrecoverable (the stream cannot be resynchronized)
/// and yield kInvalidArgument — the connection must be closed. A well-framed
/// body that fails to decode is recoverable: the server answers with an
/// error response and keeps the connection. Truncated frames simply wait
/// for more bytes; a peer that hangs up mid-frame just closes. A ReplBatch
/// whose batch_sum disagrees is kCorruption: the stream cannot be trusted
/// and the replica must reconnect.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace next700 {
namespace server {

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kHello = 3,
  kHelloAck = 4,
  kReplBatch = 5,
  kReplAck = 6,
  // Two-phase commit (coordinator <-> participant, after a role=kCoordinator
  // Hello). See the "Sharding & 2PC" section of DESIGN.md.
  kPrepare = 7,       // coordinator -> participant: execute + harden, vote
  kVote = 8,          // participant -> coordinator: yes (kOk) or no + reason
  kCommitDecision = 9,   // coordinator -> participant: commit `gtid`
  kAbortDecision = 10,   // coordinator -> participant: abort `gtid`
  kDecisionAck = 11,  // participant -> coordinator: decision applied
  kInDoubtQuery = 12,  // coordinator -> participant: list your in-doubt gtids
  kInDoubtList = 13,   // participant -> coordinator: the in-doubt gtid set
};

/// What a connecting peer is, declared in its Hello.
enum class PeerRole : uint8_t {
  kClient = 0,
  kReplica = 1,
  /// A shard router / 2PC coordinator: may forward verbatim client
  /// requests (single-shard fast path) and drive the prepare/decision
  /// frames above. Exempt from client read-pausing like replicas: its
  /// decision frames release prepared transactions, so throttling it
  /// could wedge the participant.
  kCoordinator = 2,
};

/// "N700", little-endian. A peer that opens with anything else is not
/// speaking this protocol at all.
inline constexpr uint32_t kWireMagic = 0x3030374Eu;
/// Bumped on any incompatible change to frame layouts.
inline constexpr uint8_t kWireVersion = 1;

/// Hard ceiling on frame bodies; anything larger is a protocol violation
/// (or an attack) and closes the connection.
inline constexpr uint32_t kMaxFrameBody = 1u << 20;
/// Ceiling on a request's declared partition set.
inline constexpr uint16_t kMaxPartitionsPerRequest = 4096;
/// Bytes of frame header preceding every body.
inline constexpr size_t kFrameHeaderBytes = 5;
/// Ceiling on the frame payload of one ReplBatch; the shipper cuts batches
/// here (on a log-frame boundary) so a batch always fits kMaxFrameBody.
inline constexpr uint32_t kMaxReplBatchBytes = 256u << 10;

// --- Wire byte order ---------------------------------------------------
// The wire is explicitly little-endian. Multi-byte integers are composed
// byte-by-byte from shifts, never memcpy'd from host memory, so a
// big-endian peer produces and parses the same octets as a little-endian
// one. (Compilers collapse these to single moves on LE hardware.)

inline void StoreLE16(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void StoreLE32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void StoreLE64(uint64_t v, uint8_t* p) {
  StoreLE32(static_cast<uint32_t>(v), p);
  StoreLE32(static_cast<uint32_t>(v >> 32), p + 4);
}
inline uint16_t LoadLE16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
inline uint64_t LoadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         (static_cast<uint64_t>(LoadLE32(p + 4)) << 32);
}

/// Append-only little-endian serializer for frame bodies and procedure
/// arguments (the "typed argument encoding" of the service).
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) {
    uint8_t b[2];
    StoreLE16(v, b);
    PutRaw(b, sizeof(b));
  }
  void PutU32(uint32_t v) {
    uint8_t b[4];
    StoreLE32(v, b);
    PutRaw(b, sizeof(b));
  }
  void PutU64(uint64_t v) {
    uint8_t b[8];
    StoreLE64(v, b);
    PutRaw(b, sizeof(b));
  }
  /// Length-prefixed byte string.
  void PutBytes(const void* data, size_t len) {
    PutU32(static_cast<uint32_t>(len));
    PutRaw(data, len);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }
  /// Raw bytes with no length prefix (caller frames them).
  void PutRaw(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + len);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian reader; every getter returns false instead
/// of reading past the end, so malformed input can never fault.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) {
    uint8_t b[2];
    if (!GetRaw(b, sizeof(b))) return false;
    *v = LoadLE16(b);
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint8_t b[4];
    if (!GetRaw(b, sizeof(b))) return false;
    *v = LoadLE32(b);
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint8_t b[8];
    if (!GetRaw(b, sizeof(b))) return false;
    *v = LoadLE64(b);
    return true;
  }
  /// Reads a length-prefixed byte string appended by PutBytes/PutString.
  bool GetBytes(std::vector<uint8_t>* out) {
    uint32_t n;
    if (!GetU32(&n) || n > remaining()) return false;
    out->assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }
  bool GetString(std::string* out) {
    uint32_t n;
    if (!GetU32(&n) || n > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool GetRaw(void* out, size_t len) {
    if (len > remaining()) return false;
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return len_ - pos_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

struct Request {
  uint64_t request_id = 0;
  uint32_t proc_id = 0;
  uint64_t min_read_lsn = 0;
  std::vector<uint32_t> partitions;
  std::vector<uint8_t> args;
};

struct Response {
  uint64_t request_id = 0;
  StatusCode status = StatusCode::kOk;
  uint64_t commit_lsn = 0;
  std::vector<uint8_t> payload;
};

struct Hello {
  uint32_t magic = kWireMagic;
  uint8_t version = kWireVersion;
  PeerRole role = PeerRole::kClient;
};

struct HelloAck {
  uint32_t magic = kWireMagic;
  uint8_t version = kWireVersion;
};

struct ReplBatch {
  uint64_t start_lsn = 0;
  uint64_t primary_durable_lsn = 0;
  std::vector<uint8_t> frames;

  uint64_t end_lsn() const { return start_lsn + frames.size(); }
};

struct ReplAck {
  uint64_t durable_lsn = 0;
  uint64_t applied_lsn = 0;
};

/// Phase one of 2PC (coordinator -> participant): execute the embedded
/// stored-procedure invocation as one transaction, harden a prepare record
/// (redo + gtid) to the participant's log, and answer with a Vote — but do
/// not commit or release locks until the coordinator's decision arrives.
///
/// Prepare body:
///   u64 gtid             globally unique transaction id (coordinator-chosen)
///   u32 proc_id
///   u16 num_partitions
///   u32 arg_len
///   num_partitions x u32 partition ids
///   arg_len bytes of procedure arguments
struct Prepare {
  uint64_t gtid = 0;
  uint32_t proc_id = 0;
  std::vector<uint32_t> partitions;
  std::vector<uint8_t> args;
};

/// Participant's vote. kOk means "yes — the prepare record is durable and
/// the transaction will commit iff told to"; any other status is a no vote
/// (the participant has already rolled back).
///
/// Vote body: u64 gtid, u8 status_code, u64 prepare_lsn (0 on a no vote).
struct Vote {
  uint64_t gtid = 0;
  StatusCode status = StatusCode::kOk;
  uint64_t prepare_lsn = 0;
};

/// Coordinator's decision for one gtid; the frame type (kCommitDecision /
/// kAbortDecision) carries the verdict. Body: u64 gtid.
struct Decision {
  uint64_t gtid = 0;
};

/// Participant's acknowledgement that a decision was applied (and, for a
/// commit, made durable). kOk also answers a redelivered decision for a
/// gtid the participant no longer knows — decisions are idempotent.
///
/// DecisionAck body: u64 gtid, u8 status_code.
struct DecisionAck {
  uint64_t gtid = 0;
  StatusCode status = StatusCode::kOk;
};

/// kInDoubtQuery has an empty body; the reply lists every transaction the
/// participant has prepared but not yet seen a decision for (recovered
/// from its log or still live). InDoubtList body: u32 count, count x u64.
struct InDoubtList {
  std::vector<uint64_t> gtids;
};

/// Appends a complete frame (header + body) to `out`.
void EncodeRequest(const Request& request, std::vector<uint8_t>* out);
void EncodeResponse(const Response& response, std::vector<uint8_t>* out);
void EncodeHello(const Hello& hello, std::vector<uint8_t>* out);
void EncodeHelloAck(const HelloAck& ack, std::vector<uint8_t>* out);
void EncodeReplBatch(const ReplBatch& batch, std::vector<uint8_t>* out);
void EncodeReplAck(const ReplAck& ack, std::vector<uint8_t>* out);
void EncodePrepare(const Prepare& prepare, std::vector<uint8_t>* out);
void EncodeVote(const Vote& vote, std::vector<uint8_t>* out);
/// `type` must be kCommitDecision or kAbortDecision.
void EncodeDecision(FrameType type, const Decision& decision,
                    std::vector<uint8_t>* out);
void EncodeDecisionAck(const DecisionAck& ack, std::vector<uint8_t>* out);
void EncodeInDoubtQuery(std::vector<uint8_t>* out);
void EncodeInDoubtList(const InDoubtList& list, std::vector<uint8_t>* out);

/// Decodes a frame body. kInvalidArgument on any structural defect
/// (truncated fields, inconsistent lengths, trailing garbage, out-of-range
/// enum values). The frame boundary itself is intact in this case, so the
/// connection can survive.
Status DecodeRequest(const uint8_t* body, size_t len, Request* out);
Status DecodeResponse(const uint8_t* body, size_t len, Response* out);

/// Zero-copy view of a request frame body: the header fields plus a
/// pointer into the caller's buffer for the argument bytes (valid only
/// while that buffer is). The shard router's fast path peeks at routing
/// fields on every forwarded frame; the owned vectors DecodeRequest
/// fills would cost two allocations per frame for data the router never
/// keeps. Validates the same framing invariants as DecodeRequest.
struct RequestView {
  uint64_t request_id = 0;
  uint32_t proc_id = 0;
  uint64_t min_read_lsn = 0;
  const uint8_t* args = nullptr;
  size_t args_len = 0;
};
Status DecodeRequestView(const uint8_t* body, size_t len, RequestView* out);

/// Handshake/replication decode errors always close the connection: a peer
/// that cannot even say Hello correctly (wrong magic, wrong version) has
/// nothing trustworthy to say next. DecodeReplBatch returns kCorruption
/// when the batch checksum disagrees with the frame bytes.
Status DecodeHello(const uint8_t* body, size_t len, Hello* out);
Status DecodeHelloAck(const uint8_t* body, size_t len, HelloAck* out);
Status DecodeReplBatch(const uint8_t* body, size_t len, ReplBatch* out);
Status DecodeReplAck(const uint8_t* body, size_t len, ReplAck* out);
Status DecodePrepare(const uint8_t* body, size_t len, Prepare* out);
Status DecodeVote(const uint8_t* body, size_t len, Vote* out);
Status DecodeDecision(const uint8_t* body, size_t len, Decision* out);
Status DecodeDecisionAck(const uint8_t* body, size_t len, DecisionAck* out);
Status DecodeInDoubtList(const uint8_t* body, size_t len, InDoubtList* out);

/// One frame extracted from the byte stream; `body` points into the
/// decoder's buffer and is valid until the next Next()/Feed() call.
struct Frame {
  FrameType type = FrameType::kRequest;
  const uint8_t* body = nullptr;
  uint32_t body_len = 0;
};

/// Incremental frame extractor over a TCP byte stream. Feed() raw bytes,
/// then drain complete frames with Next(). A non-OK status from Next()
/// means the stream is unrecoverable and the connection must be closed.
class FrameDecoder {
 public:
  void Feed(const uint8_t* data, size_t len) {
    buffer_.insert(buffer_.end(), data, data + len);
    fed_bytes_ += len;
  }

  /// Extracts the next complete frame. Returns OK with *have_frame=true
  /// when a frame was produced, OK with *have_frame=false when more bytes
  /// are needed, kInvalidArgument when the stream is corrupt (oversized
  /// length or unknown frame type).
  Status Next(Frame* frame, bool* have_frame);

  /// Bytes buffered but not yet consumed (tests; idle-connection audits).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  /// Bytes ever fed: a stalled partial frame leaves this unchanged.
  uint64_t fed_bytes() const { return fed_bytes_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  uint64_t fed_bytes_ = 0;
};

/// True if `code` is a StatusCode a conforming peer may send on the wire.
bool IsValidWireStatus(uint8_t code);

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_PROTOCOL_H_
