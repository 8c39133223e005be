// Listless StreamMover: moves data between a non-contiguous user buffer
// and its dense stream with flattening-on-the-fly pack/unpack, streaming
// through one SegmentCursor that sequential calls reuse without
// re-seeking.  pack/unpack never compile a memtype PackPlan — movers
// live for one operation, plans are a per-fileview amortization.
// mem_runs() does compile one lazily: the zero-copy descriptor needs the
// run table, and a single-instance walk is far cheaper than the staging
// copy it avoids.
#pragma once

#include <memory>

#include "fotf/cursor.hpp"
#include "fotf/plan.hpp"
#include "mpiio/navigator.hpp"

namespace llio::core {

class FotfMover final : public mpiio::StreamMover {
 public:
  /// `buf` holds `count` instances of `memtype`.  The const_cast is safe:
  /// from_stream is only invoked on buffers the caller owns mutably.
  FotfMover(const void* buf, Off count, dt::Type memtype);

  void to_stream(Byte* dst, Off s, Off n) override;
  void from_stream(const Byte* src, Off s, Off n) override;
  bool mem_runs(Off s, Off n, const mpiio::RunBudget& budget,
                std::vector<ByteSpan>& out) override;

 private:
  fotf::SegmentCursor& at(Off s);

  Byte* buf_;
  dt::Type memtype_;
  Off count_;
  fotf::SegmentCursor cur_;
  Off next_stream_ = 0;  ///< cursor's current stream position
  std::shared_ptr<const fotf::PackPlan> plan_;  ///< lazy, mem_runs only
  bool plan_tried_ = false;
};

}  // namespace llio::core
