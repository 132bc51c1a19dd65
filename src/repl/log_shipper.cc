#include "repl/log_shipper.h"

#include "server/protocol.h"

namespace next700 {
namespace repl {

Status LogShipper::NextBatch(std::vector<uint8_t>* out, bool* have_batch) {
  *have_batch = false;
  server::ReplBatch batch;
  batch.start_lsn = next_lsn_;
  Lsn end = next_lsn_;
  NEXT700_RETURN_IF_ERROR(log_->ReadFramesInRange(
      next_lsn_, next_lsn_ + server::kMaxReplBatchBytes, &batch.frames,
      &end));
  if (end == next_lsn_) return Status::OK();  // Nothing new is durable.
  batch.primary_durable_lsn = log_->durable_lsn();
  EncodeReplBatch(batch, out);
  next_lsn_ = end;
  *have_batch = true;
  return Status::OK();
}

}  // namespace repl
}  // namespace next700
