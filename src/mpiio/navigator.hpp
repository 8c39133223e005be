// The two per-engine abstractions the MPI-IO layer composes:
//
//  * ViewNav   - navigation and data movement through a fileview's stream.
//                The listless implementation (core/) runs in O(depth) per
//                positioning call and uses flattening-on-the-fly copies;
//                the list-based implementation (listio/) traverses an
//                explicit ol-list (O(N_block) positioning, per-tuple
//                copies) — exactly the contrast the paper measures.
//
//  * StreamMover - movement between the user's (possibly non-contiguous)
//                memory buffer and its dense packed stream, indexed by
//                access-relative stream offsets [0, nbytes).
//
// The third, AccessCodec (two-phase collective access), sits with the
// TwoPhase driver in mpiio/twophase.hpp.
//
// Conventions: "mem" offsets are file-layout offsets relative to the view
// origin (the file displacement is added by the caller); "stream" offsets
// are view-stream byte positions.
#pragma once

#include <cstring>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "dtype/datatype.hpp"

namespace llio::mpiio {

/// Caller policy for StreamMover::mem_runs(): a hard cap on descriptor
/// entries plus the average run length below which descriptor I/O loses
/// to the strided pack kernels (per-segment overhead dominates).
struct RunBudget {
  std::size_t max_runs = 1 << 16;
  Off min_avg_run = 512;
};

class ViewNav {
 public:
  virtual ~ViewNav() = default;

  /// Layout offset where stream byte s resides (start convention).
  virtual Off stream_to_file_start(Off s) = 0;

  /// Layout offset one past stream byte s-1 (end convention).
  virtual Off stream_to_file_end(Off s) = 0;

  /// Stream bytes with layout offset strictly below `mem`.
  virtual Off file_to_stream(Off mem) = 0;

  /// Copy stream bytes [s, s+n) from dense `src` into the window buffer
  /// `win`, whose first byte holds layout offset `bias`.
  virtual void scatter(Byte* win, Off bias, Off s, const Byte* src, Off n) = 0;

  /// Copy stream bytes [s, s+n) from the window into dense `dst`.
  virtual void gather(Byte* dst, const Byte* win, Off bias, Off s, Off n) = 0;

  /// Visit the contiguous runs of stream bytes [s, s+n) in order:
  /// fn(layout offset, stream offset, run length).  Used by the direct
  /// (non-sieving) access strategy — one file access per run.
  virtual void for_each_segment(
      Off s, Off n, const std::function<void(Off, Off, Off)>& fn) = 0;
};

class StreamMover {
 public:
  virtual ~StreamMover() = default;

  /// Pack stream bytes [s, s+n) of the user buffer into dense `dst`.
  virtual void to_stream(Byte* dst, Off s, Off n) = 0;

  /// Unpack dense `src` into stream bytes [s, s+n) of the user buffer.
  virtual void from_stream(const Byte* src, Off s, Off n) = 0;

  /// If stream bytes [s, s+n) are contiguous in user memory, return their
  /// address (pack side); else nullptr and the caller uses to_stream.
  virtual const Byte* direct(Off s, Off n) const {
    (void)s;
    (void)n;
    return nullptr;
  }

  /// Mutable variant for the unpack side.
  virtual Byte* direct_mut(Off s, Off n) {
    (void)s;
    (void)n;
    return nullptr;
  }

  /// Describe stream bytes [s, s+n) as contiguous user-memory runs
  /// appended to `out` — the zero-copy descriptor.  Returns false (out
  /// untouched) when no cheap run form exists under `budget`; the caller
  /// then stages through to_stream/from_stream.  The spans alias the
  /// user buffer mutably (the unpack side scatters into them); pack-side
  /// callers only read them.
  virtual bool mem_runs(Off s, Off n, const RunBudget& budget,
                        std::vector<ByteSpan>& out) {
    (void)s;
    (void)n;
    (void)budget;
    (void)out;
    return false;
  }
};

/// Mover for contiguous memtypes: the stream *is* the buffer.
class ContigMover final : public StreamMover {
 public:
  /// `base` is the user buffer; data begins at true_lb(memtype).
  ContigMover(const void* base, Off true_lb)
      : base_(const_cast<Byte*>(as_bytes(base)) + true_lb) {}

  void to_stream(Byte* dst, Off s, Off n) override {
    std::memcpy(dst, base_ + s, to_size(n));
  }
  void from_stream(const Byte* src, Off s, Off n) override {
    std::memcpy(base_ + s, src, to_size(n));
  }
  const Byte* direct(Off s, Off) const override { return base_ + s; }
  Byte* direct_mut(Off s, Off) override { return base_ + s; }
  bool mem_runs(Off s, Off n, const RunBudget&,
                std::vector<ByteSpan>& out) override {
    out.push_back(ByteSpan(base_ + s, to_size(n)));
    return true;
  }

 private:
  Byte* base_;
};

}  // namespace llio::mpiio
