#include "mpiio/sieve.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/phase.hpp"

namespace llio::mpiio {

namespace {

// Zero-copy dense transfer: materialize the mover's memory runs and hand
// them to one vectored access per iov_batch_max entries.  The runs tile
// the dense stream, so run k's file offset is abs_lo plus the combined
// length of the runs before it.
template <class IoVec, class Submit>
bool zerocopy_dense(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& m,
                    const char* dir, Submit submit) {
  std::vector<ByteSpan> runs;
  if (!zerocopy_runs(ctx.opts, ctx.stats, m, 0, nbytes, runs)) return false;
  obs::Span span("zerocopy");
  span.arg("dir", dir);
  span.arg("runs", to_off(runs.size()));
  span.arg("bytes", nbytes);
  const std::size_t batch = to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<IoVec> iov;
  iov.reserve(std::min(batch, runs.size()));
  Off pos = abs_lo;
  for (const ByteSpan& r : runs) {
    iov.push_back({pos, r});
    pos += to_off(r.size());
    if (iov.size() == batch) {
      submit(ctx, iov, nullptr, -1);
      iov.clear();
    }
  }
  submit(ctx, iov, nullptr, -1);
  return true;
}

}  // namespace

RunBudget zerocopy_budget(const Options& opts) {
  return {opts.zerocopy_max_runs > 0 ? to_size(opts.zerocopy_max_runs) : 1,
          opts.zerocopy_min_run};
}

bool zerocopy_runs(const Options& opts, IoOpStats& stats, StreamMover& m,
                   Off s, Off n, std::vector<ByteSpan>& runs) {
  if (opts.zerocopy != Zerocopy::Auto) return false;
  const std::size_t before = runs.size();
  if (!m.mem_runs(s, n, zerocopy_budget(opts), runs)) {
    ++stats.staged_fallback_windows;
    return false;
  }
  ++stats.zerocopy_windows;
  stats.iov_runs += runs.size() - before;
  stats.staging_bytes_saved += n;
  return true;
}

double timed_pread_zero_fill(SieveContext& ctx, Off pos, ByteSpan buf,
                             const char* span, Off win) {
  double s = 0;
  Off got = 0;
  {
    obs::Phase t(s, span);
    t.arg("win", win);
    t.arg("bytes", to_off(buf.size()));
    got = ctx.file.pread(pos, buf);
  }
  ctx.stats.file_s += s;
  ctx.stats.file_read_bytes += got;
  ctx.stats.file_read_ops += 1;
  if (to_size(got) < buf.size())
    std::memset(buf.data() + got, 0, buf.size() - to_size(got));
  return s;
}

void timed_pwrite(SieveContext& ctx, Off pos, ConstByteSpan buf,
                  const char* span, Off win) {
  obs::Phase t(ctx.stats.file_s, span);
  t.arg("win", win);
  t.arg("bytes", to_off(buf.size()));
  ctx.file.pwrite(pos, buf);
  ctx.stats.file_write_bytes += to_off(buf.size());
  ctx.stats.file_write_ops += 1;
}

void timed_preadv_zero_fill(SieveContext& ctx,
                            std::span<const pfs::IoVec> iov, const char* span,
                            Off win) {
  if (iov.empty()) return;
  Off total = 0;
  for (const pfs::IoVec& v : iov) total += to_off(v.buf.size());
  obs::Phase t(ctx.stats.file_s, span);
  t.arg("win", win);
  t.arg("bytes", total);
  ctx.stats.file_read_bytes += ctx.file.preadv(iov);
  ctx.stats.file_read_ops += 1;
}

void timed_pwritev(SieveContext& ctx, std::span<const pfs::ConstIoVec> iov,
                   const char* span, Off win) {
  if (iov.empty()) return;
  Off total = 0;
  for (const pfs::ConstIoVec& v : iov) total += to_off(v.buf.size());
  obs::Phase t(ctx.stats.file_s, span);
  t.arg("win", win);
  t.arg("bytes", total);
  ctx.file.pwritev(iov);
  ctx.stats.file_write_bytes += total;
  ctx.stats.file_write_ops += 1;
}

Off sieve_write(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                Off nbytes, StreamMover& src) {
  if (nbytes <= 0) return 0;
  const Off abs_lo = disp + nav.stream_to_file_start(stream_lo);
  const Off abs_hi = disp + nav.stream_to_file_end(stream_lo + nbytes);
  const Off fbs = ctx.opts.file_buffer_size;
  ByteVec fbuf(to_size(std::min(fbs, abs_hi - abs_lo)));
  ByteVec packbuf;

  Off done = 0;
  Off pos = abs_lo;
  while (pos < abs_hi) {
    const Off win_hi = std::min(abs_hi, pos + fbs);
    const Off win = win_hi - pos;
    const Off avail = nav.file_to_stream(win_hi - disp) - (stream_lo + done);
    LLIO_ASSERT(avail >= 0 && avail <= nbytes - done,
                "sieve_write: bad window stream count");
    if (avail == 0) {
      pos = win_hi;
      continue;
    }
    std::optional<pfs::ScopedRangeLock> lock;
    if (!ctx.whole_range_locked) lock.emplace(ctx.locks, pos, win_hi);
    const bool covered = avail == win;
    if (!covered)
      timed_pread_zero_fill(ctx, pos, ByteSpan(fbuf.data(), to_size(win)));

    {
      obs::Phase copy(ctx.stats.copy_s, nullptr);
      if (const Byte* direct = src.direct(done, avail)) {
        nav.scatter(fbuf.data(), pos - disp, stream_lo + done, direct, avail);
      } else {
        if (packbuf.empty())
          packbuf.resize(to_size(ctx.opts.pack_buffer_size));
        Off sub = 0;
        while (sub < avail) {
          const Off n = std::min<Off>(to_off(packbuf.size()), avail - sub);
          src.to_stream(packbuf.data(), done + sub, n);
          nav.scatter(fbuf.data(), pos - disp, stream_lo + done + sub,
                      packbuf.data(), n);
          sub += n;
        }
      }
    }
    timed_pwrite(ctx, pos, ConstByteSpan(fbuf.data(), to_size(win)));
    done += avail;
    pos = win_hi;
  }
  LLIO_ASSERT(done == nbytes, "sieve_write: stream not exhausted");
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

Off sieve_read(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
               Off nbytes, StreamMover& dst) {
  if (nbytes <= 0) return 0;
  const Off abs_lo = disp + nav.stream_to_file_start(stream_lo);
  const Off abs_hi = disp + nav.stream_to_file_end(stream_lo + nbytes);
  const Off fbs = ctx.opts.file_buffer_size;
  ByteVec fbuf(to_size(std::min(fbs, abs_hi - abs_lo)));
  ByteVec packbuf;

  Off done = 0;
  Off pos = abs_lo;
  while (pos < abs_hi) {
    const Off win_hi = std::min(abs_hi, pos + fbs);
    const Off win = win_hi - pos;
    const Off avail = nav.file_to_stream(win_hi - disp) - (stream_lo + done);
    LLIO_ASSERT(avail >= 0 && avail <= nbytes - done,
                "sieve_read: bad window stream count");
    if (avail == 0) {
      pos = win_hi;
      continue;
    }
    timed_pread_zero_fill(ctx, pos, ByteSpan(fbuf.data(), to_size(win)));

    {
      obs::Phase copy(ctx.stats.copy_s, nullptr);
      if (Byte* direct = dst.direct_mut(done, avail)) {
        nav.gather(direct, fbuf.data(), pos - disp, stream_lo + done, avail);
      } else {
        if (packbuf.empty())
          packbuf.resize(to_size(ctx.opts.pack_buffer_size));
        Off sub = 0;
        while (sub < avail) {
          const Off n = std::min<Off>(to_off(packbuf.size()), avail - sub);
          nav.gather(packbuf.data(), fbuf.data(), pos - disp,
                     stream_lo + done + sub, n);
          dst.from_stream(packbuf.data(), done + sub, n);
          sub += n;
        }
      }
    }
    done += avail;
    pos = win_hi;
  }
  LLIO_ASSERT(done == nbytes, "sieve_read: stream not exhausted");
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

bool choose_sieving(const Options& opts, bool writing, Off nbytes, Off abs_lo,
                    Off abs_hi) {
  const Sieving mode = writing ? opts.ds_write : opts.ds_read;
  switch (mode) {
    case Sieving::Always: return true;
    case Sieving::Never: return false;
    case Sieving::Automatic: {
      const Off span = abs_hi - abs_lo;
      if (span <= 0) return true;
      const double fill =
          static_cast<double>(nbytes) / static_cast<double>(span);
      return fill >= opts.sieve_min_fill;
    }
  }
  return true;
}

Off direct_write(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                 Off nbytes, StreamMover& src) {
  // One *vectored* file access per iov_batch_max contiguous runs instead
  // of one syscall per run.  Segments whose user memory is contiguous are
  // referenced in place; others are packed into a stage buffer.  Staged
  // segments record stage *offsets* (not pointers) so the stage buffer
  // may grow while a batch accumulates.
  if (nbytes <= 0) return 0;
  struct Seg {
    Off off;          ///< absolute file offset
    const Byte* ptr;  ///< direct user memory, or nullptr if staged
    Off stage_off;
    Off len;
  };
  const std::size_t batch_max =
      to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<Seg> segs;
  ByteVec stage;
  std::vector<pfs::ConstIoVec> iov;

  auto flush = [&] {
    if (segs.empty()) return;
    iov.clear();
    for (const Seg& s : segs)
      iov.push_back({s.off,
                     ConstByteSpan(s.ptr ? s.ptr : stage.data() + s.stage_off,
                                   to_size(s.len))});
    timed_pwritev(ctx, iov);
    segs.clear();
    stage.clear();
  };

  nav.for_each_segment(
      stream_lo, nbytes, [&](Off mem, Off stream, Off len) {
        const Off rel = stream - stream_lo;
        if (const Byte* direct = src.direct(rel, len)) {
          segs.push_back({disp + mem, direct, 0, len});
          if (segs.size() >= batch_max) flush();
          return;
        }
        Off sub = 0;
        while (sub < len) {
          const Off room = ctx.opts.pack_buffer_size - to_off(stage.size());
          if (room <= 0) {
            flush();
            continue;
          }
          const Off n = std::min(len - sub, room);
          const Off at = to_off(stage.size());
          stage.resize(to_size(at + n));
          {
            obs::Phase copy(ctx.stats.copy_s, nullptr);
            src.to_stream(stage.data() + at, rel + sub, n);
          }
          segs.push_back({disp + mem + sub, nullptr, at, n});
          sub += n;
          if (segs.size() >= batch_max) flush();
        }
      });
  flush();
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

Off direct_read(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                Off nbytes, StreamMover& dst) {
  if (nbytes <= 0) return 0;
  struct Seg {
    Off off;    ///< absolute file offset
    Byte* ptr;  ///< direct user memory, or nullptr if staged
    Off stage_off;
    Off rel;  ///< stream-relative offset, for from_stream after the read
    Off len;
  };
  const std::size_t batch_max =
      to_size(std::max<Off>(1, ctx.opts.iov_batch_max));
  std::vector<Seg> segs;
  ByteVec stage;
  std::vector<pfs::IoVec> iov;

  auto flush = [&] {
    if (segs.empty()) return;
    iov.clear();
    for (const Seg& s : segs)
      iov.push_back({s.off, ByteSpan(s.ptr ? s.ptr : stage.data() + s.stage_off,
                                     to_size(s.len))});
    timed_preadv_zero_fill(ctx, iov);
    {
      obs::Phase copy(ctx.stats.copy_s, nullptr);
      for (const Seg& s : segs)
        if (!s.ptr) dst.from_stream(stage.data() + s.stage_off, s.rel, s.len);
    }
    segs.clear();
    stage.clear();
  };

  nav.for_each_segment(
      stream_lo, nbytes, [&](Off mem, Off stream, Off len) {
        const Off rel = stream - stream_lo;
        if (Byte* direct = dst.direct_mut(rel, len)) {
          segs.push_back({disp + mem, direct, 0, 0, len});
          if (segs.size() >= batch_max) flush();
          return;
        }
        Off sub = 0;
        while (sub < len) {
          const Off room = ctx.opts.pack_buffer_size - to_off(stage.size());
          if (room <= 0) {
            flush();
            continue;
          }
          const Off n = std::min(len - sub, room);
          const Off at = to_off(stage.size());
          stage.resize(to_size(at + n));
          segs.push_back({disp + mem + sub, nullptr, at, rel + sub, n});
          sub += n;
          if (segs.size() >= batch_max) flush();
        }
      });
  flush();
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

Off dense_write(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& src) {
  if (nbytes <= 0) return 0;
  if (const Byte* direct = src.direct(0, nbytes)) {
    timed_pwrite(ctx, abs_lo, ConstByteSpan(direct, to_size(nbytes)));
  } else if (!zerocopy_dense<pfs::ConstIoVec>(ctx, abs_lo, nbytes, src,
                                              "write", timed_pwritev)) {
    ByteVec packbuf(to_size(std::min(ctx.opts.pack_buffer_size, nbytes)));
    Off done = 0;
    while (done < nbytes) {
      const Off n = std::min<Off>(to_off(packbuf.size()), nbytes - done);
      {
        obs::Phase copy(ctx.stats.copy_s, nullptr);
        src.to_stream(packbuf.data(), done, n);
      }
      timed_pwrite(ctx, abs_lo + done,
                   ConstByteSpan(packbuf.data(), to_size(n)));
      done += n;
    }
  }
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

Off dense_read(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& dst) {
  if (nbytes <= 0) return 0;
  if (Byte* direct = dst.direct_mut(0, nbytes)) {
    timed_pread_zero_fill(ctx, abs_lo, ByteSpan(direct, to_size(nbytes)));
  } else if (!zerocopy_dense<pfs::IoVec>(ctx, abs_lo, nbytes, dst, "read",
                                         timed_preadv_zero_fill)) {
    ByteVec packbuf(to_size(std::min(ctx.opts.pack_buffer_size, nbytes)));
    Off done = 0;
    while (done < nbytes) {
      const Off n = std::min<Off>(to_off(packbuf.size()), nbytes - done);
      timed_pread_zero_fill(ctx, abs_lo + done,
                      ByteSpan(packbuf.data(), to_size(n)));
      obs::Phase copy(ctx.stats.copy_s, nullptr);
      dst.from_stream(packbuf.data(), done, n);
      done += n;
    }
  }
  ctx.stats.bytes_moved += nbytes;
  return nbytes;
}

}  // namespace llio::mpiio
