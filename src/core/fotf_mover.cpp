#include "core/fotf_mover.hpp"

#include "common/error.hpp"
#include "fotf/pack.hpp"

namespace llio::core {

FotfMover::FotfMover(const void* buf, Off count, dt::Type memtype)
    : buf_(const_cast<Byte*>(as_bytes(buf))), memtype_(std::move(memtype)),
      count_(count), cur_(memtype_, count_) {}

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
  if (!plan_tried_) {
    plan_tried_ = true;
    plan_ = fotf::PackPlan::compile(memtype_);
  }
  if (plan_ == nullptr) return false;  // declined to compile: stage instead
  // Tiny runs traverse faster through the strided pack kernels than as
  // descriptor entries; decline and let the caller stage.
  if (plan_->run_count() > 1 &&
      plan_->instance_size() / plan_->run_count() < budget.min_avg_run)
    return false;
  fotf::IoVecSpan span;
  if (!plan_->materialize(0, count_, s, n, budget.max_runs, span))
    return false;
  out.reserve(out.size() + span.runs.size());
  for (const fotf::MemRun& r : span.runs)
    out.push_back(ByteSpan(buf_ + r.mem, to_size(r.len)));
  return true;
}

}  // namespace llio::core
