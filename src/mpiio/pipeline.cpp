#include "mpiio/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "obs/phase.hpp"
#include "pfs/range_lock.hpp"

namespace llio::mpiio {

namespace {

/// What a worker-side pread/pwrite contributes to IoOpStats, returned
/// through the job's future and folded in on the compute thread (the
/// shared IoOpStats is never touched from a worker).
struct FileJobStats {
  double seconds = 0;
  double preread_seconds = 0;  ///< the RMW share of `seconds`
  Off read_bytes = 0;
  Off write_bytes = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
};

FileJobStats read_job(pfs::FileBackend& file, Off lo, ByteSpan buf, Off win,
                      bool rmw) {
  FileJobStats s;
  {
    obs::Phase t(s.seconds, "preread");
    t.arg("win", win);
    t.arg("bytes", to_off(buf.size()));
    s.read_bytes = file.pread(lo, buf);
  }
  if (to_size(s.read_bytes) < buf.size())
    std::memset(buf.data() + s.read_bytes, 0,
                buf.size() - to_size(s.read_bytes));
  // A read ahead of a write-back is the RMW pre-read the mergeview
  // analysis tries to elide; a read-op window load is plain I/O.
  if (rmw) s.preread_seconds = s.seconds;
  s.read_ops = 1;
  return s;
}

FileJobStats write_job(pfs::FileBackend& file, Off lo, ConstByteSpan buf,
                       Off win) {
  FileJobStats s;
  {
    obs::Phase t(s.seconds, "pwrite");
    t.arg("win", win);
    t.arg("bytes", to_off(buf.size()));
    file.pwrite(lo, buf);
  }
  s.write_bytes = to_off(buf.size());
  s.write_ops = 1;
  return s;
}

/// A direct window's runs in the form pwritev takes.
std::vector<pfs::ConstIoVec> const_runs(const std::vector<pfs::IoVec>& runs) {
  std::vector<pfs::ConstIoVec> out;
  out.reserve(runs.size());
  for (const pfs::IoVec& v : runs) out.push_back({v.offset, v.buf});
  return out;
}

/// A direct window's storage access: one preadv into (read) or pwritev
/// out of (write) the runs' memory, under the staged window's span name.
FileJobStats direct_job(pfs::FileBackend& file,
                        const std::vector<pfs::IoVec>& runs, bool write,
                        Off win) {
  FileJobStats s;
  Off bytes = 0;
  for (const pfs::IoVec& v : runs) bytes += to_off(v.buf.size());
  obs::Phase t(s.seconds, write ? "pwrite" : "preread");
  t.arg("win", win);
  t.arg("bytes", bytes);
  if (write) {
    file.pwritev(const_runs(runs));
    s.write_bytes = bytes;
    s.write_ops = 1;
  } else {
    s.read_bytes = file.preadv(runs);
    s.read_ops = 1;
  }
  return s;
}

void run_serial(SieveContext& ctx, Off buffer_bytes, const WindowSource& next,
                const WindowFill& fill) {
  // Reserved up front.  The first staged window sizes it, which writes
  // no byte (ByteVec growth is unwritten), so a page is first touched by
  // the pre-read or fill that covers it.  Reserving it lazily changed the
  // allocator's order and raised llbench coll-fine's peak RSS from about
  // 29 to 33 MiB (4-CPU x86 host).
  ByteVec buf;
  buf.reserve(to_size(buffer_bytes));
  WindowPlan plan;
  Off index = 0;
  while (next(plan)) {
    plan.index = index++;
    obs::Span span("window");
    span.arg("win", plan.index);
    const Off win = plan.hi - plan.lo;
    span.arg("bytes", win);
    if (plan.writeback && !plan.preread) ++ctx.stats.preread_skipped_windows;
    std::optional<pfs::ScopedRangeLock> lock;
    if (plan.lock) lock.emplace(ctx.locks, plan.lo, plan.hi);
    if (!plan.runs.empty()) {
      if (plan.writeback)
        timed_pwritev(ctx, const_runs(plan.runs), "pwrite", plan.index);
      else
        timed_preadv_zero_fill(ctx, plan.runs, "preread", plan.index);
      continue;
    }
    if (buf.empty()) buf.resize(to_size(buffer_bytes));
    // Same span vocabulary as the pipelined jobs, here on the compute
    // thread (tid 0): the critical-path pass counts them as the window's
    // I/O exposure.
    if (plan.preread) {
      const double s = timed_pread_zero_fill(
          ctx, plan.lo, ByteSpan(buf.data(), to_size(win)), "preread",
          plan.index);
      if (plan.writeback) ctx.stats.preread_s += s;
    }
    fill(plan, ByteSpan(buf.data(), to_size(win)));
    if (plan.writeback)
      timed_pwrite(ctx, plan.lo, ConstByteSpan(buf.data(), to_size(win)),
                   "pwrite", plan.index);
  }
}

void run_pipelined(SieveContext& ctx, int depth, Off buffer_bytes,
                   const WindowSource& next, const WindowFill& fill) {
  struct Flight {
    WindowPlan plan;
    std::size_t slot = 0;  ///< indexes bufs (staged only) and the io track
    bool direct = false;  ///< plan.runs moves to the window's file job
    bool locked = false;
    std::future<FileJobStats> io;  // pending pre-read or write-back
  };

  // I/O jobs run on the process-wide worker pool (shared with the AsyncIo
  // engines); the reservation guarantees `depth` concurrent workers
  // exist for the duration of this run.  Tracing is per-job: the track
  // guard routes the job's spans onto the owning rank's worker tracks
  // (tid 1.., below the compute row) and its destructor flushes the
  // thread-local event buffer, which a persistent pool thread would
  // otherwise hold back from snapshots.
  WorkerPool& pool = WorkerPool::shared();
  const WorkerPool::Reservation reserved = pool.reserve(depth);
  const int owner = obs::current_pid();
  auto submit_io = [&pool, owner](int tid,
                                  std::function<FileJobStats()> fn) {
    return pool.submit([owner, tid, fn = std::move(fn)] {
      std::optional<obs::ThreadTrackGuard> track;
      if (owner >= 0 && obs::trace_enabled())
        track.emplace(owner, tid, "", "io worker " + std::to_string(tid));
      return fn();
    });
  };
  // One slot per window in flight; a slot's buffer is reserved here and
  // sized, unwritten, when a staged window first takes it (as in
  // run_serial).
  std::vector<ByteVec> bufs(to_size(depth));
  for (ByteVec& b : bufs) b.reserve(to_size(buffer_bytes));
  auto window_buf = [&](const Flight& fl) {
    ByteVec& b = bufs[fl.slot];
    if (b.empty()) b.resize(to_size(buffer_bytes));
    return ByteSpan(b.data(), to_size(fl.plan.hi - fl.plan.lo));
  };
  std::vector<std::size_t> free_slots;
  for (std::size_t i = bufs.size(); i-- > 0;) free_slots.push_back(i);

  std::deque<Flight> pending;  // produced, possibly pre-reading, not filled
  std::deque<Flight> writing;  // write-back in flight
  FileJobStats worker;         // everything the workers did
  double wait_s = 0;           // compute-thread time blocked on a future
  Off index = 0;               // sequential window number (for tracing)
  bool more = true;
  std::exception_ptr err;

  auto settle = [&](Flight& fl) {
    // Wait for the window's outstanding I/O (if any) and fold its stats
    // in; the wait doubles as the happens-before edge that hands the
    // buffer back to the compute thread.
    if (!fl.io.valid()) return;
    obs::Phase t(wait_s, "io_wait");
    t.arg("win", fl.plan.index);
    try {
      const FileJobStats s = fl.io.get();
      worker.seconds += s.seconds;
      worker.preread_seconds += s.preread_seconds;
      worker.read_bytes += s.read_bytes;
      worker.write_bytes += s.write_bytes;
      worker.read_ops += s.read_ops;
      worker.write_ops += s.write_ops;
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  };

  auto retire = [&](Flight& fl) {
    settle(fl);
    if (fl.locked) ctx.locks.unlock(fl.plan.lo, fl.plan.hi);
    free_slots.push_back(fl.slot);
  };

  while (true) {
    // Launch as many windows as there are free slots.
    while (more && !err && !free_slots.empty()) {
      WindowPlan plan;
      try {
        if (!next(plan)) {
          more = false;
          break;
        }
      } catch (...) {
        err = std::current_exception();
        break;
      }
      plan.index = index++;
      if (plan.writeback && !plan.preread)
        ++ctx.stats.preread_skipped_windows;
      Flight fl;
      fl.direct = !plan.runs.empty();
      fl.plan = std::move(plan);
      fl.slot = free_slots.back();
      free_slots.pop_back();
      if (fl.plan.lock) {
        ctx.locks.lock(fl.plan.lo, fl.plan.hi);
        fl.locked = true;
      }
      if (fl.direct && !fl.plan.writeback) {
        pfs::FileBackend& file = ctx.file;
        const Off win = fl.plan.index;
        fl.io = submit_io(1 + static_cast<int>(fl.slot),
                          [&file, runs = std::move(fl.plan.runs), win] {
                            return direct_job(file, runs, false, win);
                          });
      } else if (fl.plan.preread) {
        pfs::FileBackend& file = ctx.file;
        const ByteSpan span = window_buf(fl);
        const Off lo = fl.plan.lo;
        const Off win = fl.plan.index;
        const bool rmw = fl.plan.writeback;
        fl.io = submit_io(1 + static_cast<int>(fl.slot), [&file, lo, span,
                                                         win, rmw] {
          return read_job(file, lo, span, win, rmw);
        });
      }
      pending.push_back(std::move(fl));
    }

    if (pending.empty()) {
      if (writing.empty()) break;
      Flight fl = std::move(writing.front());
      writing.pop_front();
      retire(fl);
      continue;
    }

    // Fill the oldest window (waiting out its pre-read first).
    Flight fl = std::move(pending.front());
    pending.pop_front();
    obs::Span win_span("window");
    win_span.arg("win", fl.plan.index);
    win_span.arg("bytes", fl.plan.hi - fl.plan.lo);
    settle(fl);
    if (!err && !fl.direct) {
      try {
        fill(fl.plan, window_buf(fl));
      } catch (...) {
        err = std::current_exception();
      }
    }
    if (!err && fl.plan.writeback) {
      pfs::FileBackend& file = ctx.file;
      const Off win = fl.plan.index;
      if (fl.direct) {
        fl.io = submit_io(1 + static_cast<int>(fl.slot),
                          [&file, runs = std::move(fl.plan.runs), win] {
                            return direct_job(file, runs, true, win);
                          });
      } else {
        const ConstByteSpan span = window_buf(fl);
        const Off lo = fl.plan.lo;
        fl.io = submit_io(1 + static_cast<int>(fl.slot),
                          [&file, lo, span, win] {
                            return write_job(file, lo, span, win);
                          });
      }
      writing.push_back(std::move(fl));
    } else {
      if (fl.locked) ctx.locks.unlock(fl.plan.lo, fl.plan.hi);
      free_slots.push_back(fl.slot);
    }

    // Recycle slots from any writes that already completed.
    while (!writing.empty() &&
           writing.front().io.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Flight done = std::move(writing.front());
      writing.pop_front();
      retire(done);
    }
    if (err) break;
  }

  // Drain everything still in flight (normal exit and error exit alike):
  // workers must stop touching the buffers before we return/throw.
  while (!pending.empty()) {
    Flight fl = std::move(pending.front());
    pending.pop_front();
    retire(fl);
  }
  while (!writing.empty()) {
    Flight fl = std::move(writing.front());
    writing.pop_front();
    retire(fl);
  }

  ctx.stats.file_s += worker.seconds;
  ctx.stats.preread_s += worker.preread_seconds;
  ctx.stats.file_read_bytes += worker.read_bytes;
  ctx.stats.file_write_bytes += worker.write_bytes;
  ctx.stats.file_read_ops += worker.read_ops;
  ctx.stats.file_write_ops += worker.write_ops;
  ctx.stats.io_wait_s += wait_s;
  ctx.stats.overlap_s += std::max(0.0, worker.seconds - wait_s);

  if (err) std::rethrow_exception(err);
}

}  // namespace

void run_window_pipeline(SieveContext& ctx, int depth, Off buffer_bytes,
                         const WindowSource& next, const WindowFill& fill) {
  if (depth <= 0) {
    run_serial(ctx, buffer_bytes, next, fill);
  } else {
    run_pipelined(ctx, std::min(depth, 8), buffer_bytes, next, fill);
  }
}

}  // namespace llio::mpiio
