// Timeline explainer for the collective-I/O window pipeline.
//
// explain_pipeline() digests a trace snapshot into a per-window and
// per-rank utilization/stall breakdown: for every rank, how much time the
// compute thread spent inside windows, how much of that was blocked
// waiting on an I/O worker (stall), how much worker I/O ran, and how much
// of the worker I/O was therefore hidden behind compute (overlap).
//
// The overlap formula is *the same one* IoOpStats uses
// (overlap_s = max(0, worker_io - io_wait)), so the report reconciles
// with `format_stats` output by construction; `bench_noncontig_cli
// --explain` prints both.
//
// Span vocabulary (produced by mpiio::run_window_pipeline and the
// engines; matched here by name + the numeric "win" argument, never by
// time containment):
//   "window"     compute thread, one per window (settle + fill + submit)
//   "io_wait"    compute thread, blocked on a worker future
//   "pack"       compute thread, scatter/gather inside the fill callback
//   "preread"    I/O worker, the window's read-modify-write load
//   "pwrite"     I/O worker, the window's write-back
//   "aio_op"     one operation through a pfs::AsyncIo engine — on an aio
//                worker track (tid >= 16) at queue depth > 1, inline on
//                the submitting track at depth 1.  Reported as its own
//                column (it is the storage view of preread/pwrite time,
//                so it never adds into worker_io / overlap)
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace llio::obs {

/// One window's slice times in microseconds (0 when the phase did not
/// run for this window — e.g. no preread on a hole-free write).
struct WindowBreakdown {
  int pid = 0;             ///< rank
  long long index = -1;    ///< the "win" span argument
  double window_us = 0;    ///< compute-side window span
  double io_wait_us = 0;   ///< compute thread blocked on the worker
  double pack_us = 0;      ///< scatter/gather inside fill
  double preread_us = 0;   ///< worker-side pre-read
  double pwrite_us = 0;    ///< worker-side write-back
};

/// Per-rank totals across all windows.
struct RankPipelineSummary {
  int pid = 0;
  long long windows = 0;
  double window_us = 0;
  double io_wait_us = 0;
  double pack_us = 0;
  double worker_io_us = 0;  ///< preread + pwrite on worker tracks
  double overlap_us = 0;    ///< max(0, worker_io - io_wait)
  long long aio_ops = 0;    ///< AsyncIo operations (any track)
  double aio_us = 0;        ///< summed AsyncIo op time
};

struct PipelineReport {
  std::vector<WindowBreakdown> windows;  ///< sorted by (pid, index)
  std::vector<RankPipelineSummary> ranks;
  double io_wait_us = 0;    ///< sum over ranks
  double worker_io_us = 0;  ///< sum over ranks
  double overlap_us = 0;    ///< sum over ranks
};

PipelineReport explain_pipeline(const std::vector<TraceEvent>& events);

/// Human-readable report; `per_window` adds one line per window.
std::string format_pipeline_report(const PipelineReport& report,
                                   bool per_window = false);

}  // namespace llio::obs
