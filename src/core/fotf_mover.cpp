#include "core/fotf_mover.hpp"

#include "common/error.hpp"
#include "fotf/pack.hpp"

namespace llio::core {

const fotf::PackPlan* MemtypePlans::get(const dt::Type& t) {
  if (t == type_) {
    if (stats_ != nullptr) ++stats_->plan_hits;
    return plan_.get();
  }
  type_ = t;
  plan_ = fotf::PackPlan::compile(t);
  if (stats_ != nullptr) ++stats_->plan_misses;  // the compile itself
  return plan_.get();
}

FotfMover::FotfMover(const void* buf, Off count, dt::Type memtype,
                     MemtypePlans& plans)
    : buf_(const_cast<Byte*>(as_bytes(buf))), memtype_(std::move(memtype)),
      count_(count), cur_(memtype_, count_), plans_(plans) {}

fotf::SegmentCursor& FotfMover::at(Off s) {
  if (next_stream_ != s) cur_.seek(s);
  return cur_;
}

void FotfMover::to_stream(Byte* dst, Off s, Off n) {
  if (n <= 0) return;
  const Off copied = fotf::transfer_pack(at(s), buf_, 0, dst, n);
  LLIO_ASSERT(copied == n, "FotfMover::to_stream: short transfer");
  next_stream_ = s + n;
}

void FotfMover::from_stream(const Byte* src, Off s, Off n) {
  if (n <= 0) return;
  const Off copied = fotf::transfer_unpack(at(s), buf_, 0, src, n);
  LLIO_ASSERT(copied == n, "FotfMover::from_stream: short transfer");
  next_stream_ = s + n;
}

bool FotfMover::mem_runs(Off s, Off n, const mpiio::RunBudget& budget,
                         std::vector<ByteSpan>& out) {
  if (n <= 0) return false;
  // O(1), before any walk: tiny runs traverse faster through the strided
  // pack kernels than as descriptor entries, and a run table past the
  // plan cap would approach ol-list cost; either way the caller stages.
  if (fotf::avg_run(memtype_) < budget.min_avg_run ||
      memtype_->block_count() > to_off(fotf::PackPlan::kDefaultMaxRuns))
    return false;
  const fotf::PackPlan* plan = plans_.get(memtype_);
  if (plan == nullptr) return false;
  fotf::IoVecSpan span;
  if (!plan->materialize(0, count_, s, n, budget.max_runs, span))
    return false;
  out.reserve(out.size() + span.runs.size());
  for (const fotf::MemRun& r : span.runs)
    out.push_back(ByteSpan(buf_ + r.mem, to_size(r.len)));
  return true;
}

}  // namespace llio::core
