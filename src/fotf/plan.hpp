// Compiled vector-run pack plan (the "flattened cursor").
//
// A SegmentCursor re-derives the contiguous segments of a datatype on
// every pack: each window walks the type tree again, even though the
// segment structure of one instance never changes.  A PackPlan compiles
// that structure exactly once — one cursor walk over a single instance —
// into three flat arrays (memory offset, length, stream-prefix) plus the
// instance period, so steady-state collective windows replay a table
// lookup instead of a tree walk.
//
// The plan is still O(segments-per-instance) memory, *not* O(N_block)
// like an ol-list: repetition counts never enter the table (instance i is
// addressed as i * extent).  Types whose single instance exceeds
// `max_runs` maximal contiguous segments fall back to the cursor
// (compile returns nullptr) so plan memory stays bounded.
//
// When every run has the same length and the spacing is constant —
// including the wrap from the last run of one instance to the first run
// of the next — the plan marks itself `uniform` and replays through one
// strided_gather/strided_scatter call covering arbitrarily many
// segments, the same kernel the cursor's vec_run fast path uses but with
// zero per-window re-derivation.
//
// Plans are immutable after compile and safe to share across threads.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "dtype/datatype.hpp"

namespace llio::fotf {

using dt::Type;

/// One contiguous user-memory run of a materialized stream range,
/// expressed as a byte offset from the (bias-adjusted) typed base.
struct MemRun {
  Off mem = 0;
  Off len = 0;
};

/// Run-table-derived iovec form of a packed-stream range: the zero-copy
/// descriptor the I/O layers hand to preadv/pwritev instead of staging
/// the range through a packed buffer.  Runs appear in stream order and
/// adjacent runs are coalesced, so `runs.size()` is the minimum segment
/// count for the range.
struct IoVecSpan {
  std::vector<MemRun> runs;
  Off total = 0;  ///< sum of run lengths

  void clear() {
    runs.clear();
    total = 0;
  }
};

class PackPlan {
 public:
  /// Per-instance run-table cap; above this the plan would approach
  /// ol-list memory cost and compile() declines (returns nullptr).
  static constexpr std::size_t kDefaultMaxRuns = 4096;

  /// Compile the segment table of one instance of `t`.  Returns nullptr
  /// for null/zero-size types and for types with more than `max_runs`
  /// contiguous segments per instance; that decline is O(1), from the
  /// node's cached block count, so it walks nothing.
  static std::shared_ptr<const PackPlan> compile(
      const Type& t, std::size_t max_runs = kDefaultMaxRuns);

  Off instance_size() const noexcept { return size_; }
  Off instance_extent() const noexcept { return extent_; }
  Off run_count() const noexcept { return static_cast<Off>(len_.size()); }
  bool uniform() const noexcept { return uniform_; }

  /// Move bytes [skip, skip + n) of the packed stream of `count`
  /// instances between the typed buffer and the dense buffer; same
  /// contract (including the mem_bias window adjustment) and same byte
  /// output as ff_pack_window / ff_unpack_window.  Returns bytes moved.
  Off pack(const Byte* typed_base, Off mem_bias, Off count, Off skip,
           Byte* dst, Off n) const;
  Off unpack(Byte* typed_base, Off mem_bias, Off count, Off skip,
             const Byte* src, Off n) const;

  /// The run walk: visit stream bytes [skip, skip + n) of `count`
  /// instances as memory runs, fn(mem, len) -> bool, in stream order
  /// (same addressing as pack/unpack, instance wraps included, adjacent
  /// runs coalesced — also across the wrap, so no two consecutive runs
  /// touch).  Stops early, returning false, when fn returns false.
  template <class Fn>
  bool for_each_run(Off mem_bias, Off count, Off skip, Off n, Fn&& fn) const;

  /// Describe stream bytes [skip, skip + n) of `count` instances as the
  /// run walk's memory runs.  Returns false, with `out` cleared, when
  /// the range needs more than `max_runs` runs: the caller falls back to
  /// the staged pack path.
  bool materialize(Off mem_bias, Off count, Off skip, Off n,
                   std::size_t max_runs, IoVecSpan& out) const;

 private:
  template <bool ToPack>
  Off transfer(Byte* typed_base, Off mem_bias, Off count, Off skip,
               Byte* pack, Off n) const;

  std::vector<Off> mem_;     ///< memory offset of run r within the instance
  std::vector<Off> len_;     ///< bytes in run r (always > 0)
  std::vector<Off> prefix_;  ///< stream offset of run r; back() == size_
  Off size_ = 0;             ///< stream period (datatype size)
  Off extent_ = 0;           ///< memory period (datatype extent)
  bool uniform_ = false;     ///< equal runs at constant spacing, wrap incl.
  Off useg_ = 0;             ///< uniform: bytes per segment
  Off ustride_ = 0;          ///< uniform: distance between segment starts
};

/// Average bytes per contiguous run of one instance of `t`, in O(1) from
/// the node's cached size and block count (no walk, no plan).  A single
/// run that fills its extent abuts the next instance's, so a contiguous
/// type is unbounded (the maximum Off); a null or empty type is 0.
Off avg_run(const Type& t);

template <class Fn>
bool PackPlan::for_each_run(Off mem_bias, Off count, Off skip, Off n,
                            Fn&& fn) const {
  LLIO_REQUIRE(skip >= 0 && n >= 0, Errc::InvalidArgument,
               "PackPlan: negative skip or size");
  if (size_ <= 0 || count <= 0) return true;
  const Off total = count * size_;
  n = std::min(n, total - skip);
  if (n <= 0) return true;

  const std::size_t nruns = len_.size();
  const Off inst = skip / size_;
  const Off rem = skip - inst * size_;
  std::size_t r = to_size(std::upper_bound(prefix_.begin(), prefix_.end(),
                                           rem) -
                          prefix_.begin() - 1);
  Off base = inst * extent_ - mem_bias;  // memory origin of the instance
  Off run_mem = base + mem_[r] + (rem - prefix_[r]);
  Off run_len = std::min(len_[r] - (rem - prefix_[r]), n);
  // compile() merged touching runs, so only an instance wrap can extend
  // the pending run.
  for (Off done = run_len; done < n;) {
    if (++r == nruns) {
      r = 0;
      base += extent_;
    }
    const Off mem = base + mem_[r];
    const Off take = std::min(len_[r], n - done);
    if (run_mem + run_len == mem) {
      run_len += take;
    } else {
      if (!fn(run_mem, run_len)) return false;
      run_mem = mem;
      run_len = take;
    }
    done += take;
  }
  return fn(run_mem, run_len);
}

}  // namespace llio::fotf
