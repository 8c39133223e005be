// Listless StreamMover: moves data between a non-contiguous user buffer
// and its dense stream with flattening-on-the-fly pack/unpack, streaming
// through one SegmentCursor that sequential calls reuse without
// re-seeking.  pack/unpack never use a memtype PackPlan.
//
// mem_runs() (the zero-copy descriptor) needs the memtype's run table.
// Whether the memtype can serve as zero-copy runs at all is decided in
// O(1) from the node's cached size, extent and block count, before any
// walk: a fine-grained memtype, or one with more runs than a plan holds,
// stages without compiling anything.  An eligible memtype's plan is
// compiled once per engine and memtype (MemtypePlans) and reused by every
// later op.  A per-op compile is not cheap next to the copy it saves: on
// a 4096-run memtype it cost 40-70% of the staging pack, and on a
// fine-grained one the plan was then thrown away unused.
#pragma once

#include <memory>

#include "fotf/cursor.hpp"
#include "fotf/plan.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"

namespace llio::core {

/// The last memtype whose run table a mover needed, with its compiled
/// plan: an engine keeps one across ops, as ListlessNav keeps its view's
/// plan, so no op walks a memtype an earlier op walked.  Keyed by the
/// Type handle, which it holds, so the key cannot be recycled.
class MemtypePlans {
 public:
  /// Counters land in `stats` (nullptr = not counted); the pointee must
  /// outlive this object.
  explicit MemtypePlans(mpiio::IoOpStats* stats = nullptr) : stats_(stats) {}

  /// The plan of `t`: compiled (a plan miss) when `t` is not the memtype
  /// held, otherwise reused (a plan hit).  nullptr if compile declines.
  const fotf::PackPlan* get(const dt::Type& t);

 private:
  dt::Type type_;
  std::shared_ptr<const fotf::PackPlan> plan_;
  mpiio::IoOpStats* stats_;
};

class FotfMover final : public mpiio::StreamMover {
 public:
  /// `buf` holds `count` instances of `memtype`; mem_runs takes the run
  /// table from `plans`, which must outlive the mover.  The const_cast is
  /// safe: from_stream is only invoked on buffers the caller owns mutably.
  FotfMover(const void* buf, Off count, dt::Type memtype,
            MemtypePlans& plans);

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
  MemtypePlans& plans_;
};

}  // namespace llio::core
