#ifndef NEXT700_REPL_LOG_SHIPPER_H_
#define NEXT700_REPL_LOG_SHIPPER_H_

/// \file
/// Primary-side shipping cursor for one replica subscription. The server's
/// event loop owns one LogShipper per subscribed replica connection; the
/// shipper tracks the next LSN to send and builds checksummed ReplBatch
/// frames straight from the durable log stream via
/// LogManager::ReadFramesInRange — the bytes on the wire are the bytes on
/// the primary's disk, so replica logs are byte-identical and share the
/// primary's LSN space.
///
/// Flow control lives in the caller (the event loop ships while the
/// connection's write buffer is below a window); progress signals are the
/// durable callback (new bytes to ship), replica acks (lag bookkeeping),
/// and socket writability (window reopened).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "log/log_manager.h"

namespace next700 {
namespace repl {

class LogShipper {
 public:
  /// `log` must outlive the shipper. `start_lsn` is the replica's
  /// subscription position (its local durable end) — it must be a frame
  /// boundary of the shared LSN space, which every replica ack is.
  LogShipper(LogManager* log, Lsn start_lsn)
      : log_(log), next_lsn_(start_lsn), acked_durable_(start_lsn) {}

  /// Appends one encoded ReplBatch frame (wire header included) to `*out`
  /// if durable bytes exist past the cursor, advancing the cursor.
  /// *have_batch=false with OK means nothing new is durable. kNotFound
  /// means the cursor fell below the primary's retired log prefix — the
  /// replica is too far behind to tail the log and must re-bootstrap from
  /// a checkpoint; the caller should drop the subscription.
  Status NextBatch(std::vector<uint8_t>* out, bool* have_batch);

  /// Records a replica ack's durable LSN. Acks are cumulative;
  /// regressions are ignored.
  void RecordAck(Lsn durable) {
    acked_durable_ = std::max(acked_durable_, durable);
  }
  Lsn acked_durable() const { return acked_durable_; }

 private:
  LogManager* log_;
  Lsn next_lsn_;
  Lsn acked_durable_;
};

}  // namespace repl
}  // namespace next700

#endif  // NEXT700_REPL_LOG_SHIPPER_H_
