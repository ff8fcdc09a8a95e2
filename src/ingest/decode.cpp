#include "ingest/decode.h"

#include "ingest/metrics.h"

namespace dosm::ingest {

DecodeStats decode_batch(const FrameBatch& batch, std::uint32_t link_type,
                         std::vector<net::PacketRecord>& out) {
  DecodeStats stats;
  for (const FrameView& frame : batch.frames) {
    // Decode straight into the output slot; skipped frames give the slot
    // back. Saves one full PacketRecord copy per packet on the hot path.
    out.emplace_back();
    switch (net::decode_frame(batch.payload(frame), link_type, frame.ts_sec,
                              frame.ts_usec, out.back())) {
      case net::FrameDecode::kOk:
        break;
      case net::FrameDecode::kSkipLink:
        ++stats.skipped_link;
        out.pop_back();
        break;
      case net::FrameDecode::kSkipTruncated:
        ++stats.skipped_truncated;
        out.pop_back();
        break;
      case net::FrameDecode::kSkipUndecodable:
        ++stats.skipped_undecodable;
        out.pop_back();
        break;
    }
  }
  // One fold per batch keeps the striped-counter traffic off the per-frame
  // path (same batching discipline as the telescope threshold counters).
  auto& metrics = Metrics::get();
  if (stats.skipped_link > 0) metrics.skipped_link.add(stats.skipped_link);
  if (stats.skipped_truncated > 0)
    metrics.skipped_truncated.add(stats.skipped_truncated);
  if (stats.skipped_undecodable > 0)
    metrics.skipped_undecodable.add(stats.skipped_undecodable);
  return stats;
}

}  // namespace dosm::ingest
