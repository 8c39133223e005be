// Pipelined window loop for the IOP side of collective two-phase I/O.
//
// The paper's two-phase engines process one file-domain window at a time:
// (pre-read) -> scatter/gather -> (write-back), all on the compute thread.
// run_window_pipeline() keeps the serial loop for pipeline_depth = 0
// (bit-identical behavior) and, for depth >= 1, double-buffers the
// windows: the pread/pwrite of window k+1 runs on an I/O worker thread
// while the compute thread scatters/gathers window k.  The overlap it
// achieves and the residual time the compute thread spends blocked on the
// worker are surfaced as IoOpStats::overlap_s / io_wait_s.
//
// A direct window carries its file runs instead: one preadv/pwritev moves
// the bytes straight between storage and the peers' buffers, with no
// window buffer, pre-read or fill.  Both kinds share the one loop, its
// range locks, spans and in-flight limit; a window buffer is sized (its
// bytes left unwritten) only when a staged window comes up.
//
// Thread discipline: `next` and `fill` always run on the calling (compute)
// thread, in window order — engine navigators and recv-list cursors are
// not thread-safe.  Only the raw pread/pwrite of a window buffer (or the
// preadv/pwritev of a direct window's runs) moves to the worker; a
// window's buffer is never touched by both threads at once (the future's
// wait provides the happens-before edge).
#pragma once

#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "mpiio/sieve.hpp"

namespace llio::mpiio {

/// One file-domain window of a collective two-phase operation.
struct WindowPlan {
  Off lo = 0;              ///< absolute file offset of the window start
  Off hi = 0;              ///< absolute file offset one past the end
  bool preread = false;    ///< read-modify-write: load the window first
  bool writeback = false;  ///< write the window back after fill
  bool lock = false;       ///< hold the range lock across the window

  /// Direct window when non-empty: the window's bytes as runs in file
  /// order, moved by one preadv (preread) or pwritev (writeback) straight
  /// between storage and the runs' memory.  `fill` is not called.
  std::vector<pfs::IoVec> runs;

  /// Sequential window number, assigned by run_window_pipeline (the
  /// engine's `next` need not set it).  Trace spans carry it as the
  /// "win" argument so obs::critical_path can attribute each window's
  /// compute-thread slices to the same window.
  Off index = -1;
};

/// Produce the next window (in file order); return false when done.
using WindowSource = std::function<bool(WindowPlan&)>;

/// Scatter into / gather out of the window buffer of a staged window
/// (buf covers [plan.lo, plan.hi)).  Called in the order the windows were
/// produced, but — when pipelined — possibly after `next` already ran for
/// later windows.
using WindowFill = std::function<void(const WindowPlan&, ByteSpan)>;

/// Run the window loop.  `buffer_bytes` is the maximum window size
/// (every plan must satisfy hi - lo <= buffer_bytes).  `depth` <= 0 runs
/// serially on the calling thread; >= 1 keeps up to `depth` windows in
/// flight on an internal worker pool.  Range locks are taken/released on
/// the calling thread; on any error every in-flight window is drained and
/// unlocked before the first error is rethrown.
void run_window_pipeline(SieveContext& ctx, int depth, Off buffer_bytes,
                         const WindowSource& next, const WindowFill& fill);

}  // namespace llio::mpiio
