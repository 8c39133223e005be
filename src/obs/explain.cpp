#include "obs/explain.hpp"

#include <algorithm>
#include <cstring>

#include "common/format.hpp"

namespace llio::obs {

namespace {

/// The numeric "win" argument, or -1 when absent (serial-loop spans and
/// operation-level spans carry no window index).
long long win_arg(const TraceEvent& ev) {
  for (const TraceArg& a : ev.args)
    if (!a.is_text && a.key == "win") return a.value;
  return -1;
}

}  // namespace

PipelineReport explain_pipeline(const std::vector<TraceEvent>& events) {
  PipelineReport report;
  std::map<std::pair<int, long long>, WindowBreakdown> windows;
  std::map<int, RankPipelineSummary> ranks;

  for (const TraceEvent& ev : events) {
    if (ev.phase != 'X') continue;
    const bool is_window = ev.name == "window";
    const bool is_wait = ev.name == "io_wait";
    const bool is_pack = ev.name == "pack";
    const bool is_preread = ev.name == "preread";
    const bool is_pwrite = ev.name == "pwrite";
    const bool is_aio = ev.name == "aio_op";
    if (!is_window && !is_wait && !is_pack && !is_preread && !is_pwrite &&
        !is_aio)
      continue;

    RankPipelineSummary& rank = ranks[ev.pid];
    rank.pid = ev.pid;
    if (is_window) {
      ++rank.windows;
      rank.window_us += ev.dur_us;
    } else if (is_wait) {
      rank.io_wait_us += ev.dur_us;
    } else if (is_pack) {
      rank.pack_us += ev.dur_us;
    } else if (is_aio) {
      // AsyncIo ops are the storage-engine view of the same file time the
      // preread/pwrite spans cover — reported, but kept out of worker_io
      // so the overlap arithmetic is unchanged by queue depth.
      ++rank.aio_ops;
      rank.aio_us += ev.dur_us;
    } else if (ev.tid >= 1) {
      // Worker I/O: only spans on worker tracks count toward overlap —
      // a preread/pwrite on the compute thread (serial loop) hides
      // nothing.
      rank.worker_io_us += ev.dur_us;
    }

    const long long idx = win_arg(ev);
    if (idx < 0) continue;
    WindowBreakdown& w = windows[{ev.pid, idx}];
    w.pid = ev.pid;
    w.index = idx;
    if (is_window) w.window_us += ev.dur_us;
    if (is_wait) w.io_wait_us += ev.dur_us;
    if (is_pack) w.pack_us += ev.dur_us;
    if (is_preread && ev.tid >= 1) w.preread_us += ev.dur_us;
    if (is_pwrite && ev.tid >= 1) w.pwrite_us += ev.dur_us;
  }

  for (auto& [key, w] : windows) report.windows.push_back(w);
  for (auto& [pid, rank] : ranks) {
    rank.overlap_us = std::max(0.0, rank.worker_io_us - rank.io_wait_us);
    report.io_wait_us += rank.io_wait_us;
    report.worker_io_us += rank.worker_io_us;
    report.overlap_us += rank.overlap_us;
    report.ranks.push_back(rank);
  }
  return report;
}

std::string format_pipeline_report(const PipelineReport& report,
                                   bool per_window) {
  std::string out;
  out += "pipeline timeline breakdown (all times in ms)\n";
  out += strprintf("%-6s %8s %10s %10s %10s %10s %10s %7s %10s\n", "rank",
                   "windows", "window", "io_wait", "pack", "worker_io",
                   "overlap", "aio", "aio_ms");
  for (const RankPipelineSummary& r : report.ranks) {
    out += strprintf(
        "%-6d %8lld %10.3f %10.3f %10.3f %10.3f %10.3f %7lld %10.3f\n",
        r.pid, r.windows, r.window_us / 1e3, r.io_wait_us / 1e3,
        r.pack_us / 1e3, r.worker_io_us / 1e3, r.overlap_us / 1e3,
        r.aio_ops, r.aio_us / 1e3);
  }
  out += strprintf(
      "total: io_wait %.3f ms, worker_io %.3f ms, overlap %.3f ms "
      "(hidden %.1f%% of worker I/O)\n",
      report.io_wait_us / 1e3, report.worker_io_us / 1e3,
      report.overlap_us / 1e3,
      report.worker_io_us > 0 ? 100.0 * report.overlap_us / report.worker_io_us
                              : 0.0);
  if (per_window && !report.windows.empty()) {
    out += strprintf("%-6s %6s %10s %10s %10s %10s %10s\n", "rank", "win",
                     "window", "io_wait", "pack", "preread", "pwrite");
    for (const WindowBreakdown& w : report.windows) {
      out += strprintf("%-6d %6lld %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                       w.pid, w.index, w.window_us / 1e3, w.io_wait_us / 1e3,
                       w.pack_us / 1e3, w.preread_us / 1e3,
                       w.pwrite_us / 1e3);
    }
  }
  return out;
}

}  // namespace llio::obs
