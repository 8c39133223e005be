// Observation from outside the library, for the traced run only.
//
// The benchmark never turns on llio's own tracing.  Instead it records
// spans in its own code around each call into a layer, and it puts a
// counting decorator (CountingFile) between the library and storage.
// Spans stay in memory (SpanLog) and are written out as Chrome trace JSON
// when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pfs/file_backend.hpp"
#include "pfs/view_io.hpp"

namespace llbench {

using llio::Off;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Who the calling thread is: rank r of the job, or -1 for any other
/// thread (the main thread, psrv server threads).  Set by the rank body.
inline thread_local int tl_rank = -1;

/// Id of the operation the calling rank thread is inside, or -1.
inline thread_local std::int64_t tl_op = -1;

/// One interval recorded around a layer call.  `name` is
/// "<layer>.<call>" in static storage; `tid` is the rank, or 100 + shard
/// for storage calls made by a psrv server thread.
struct Span {
  const char* name = "";
  int tid = -1;
  std::int64_t op = -1;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;

  double ms() const { return static_cast<double>(t1_ns - t0_ns) / 1e6; }
};

/// In-memory span buffer.  Recording is switched on only around the
/// measured loop, so warm-up and verification leave no spans.
class SpanLog {
 public:
  void set_enabled(bool on) { on_.store(on, std::memory_order_release); }
  bool enabled() const { return on_.load(std::memory_order_acquire); }

  void add(const Span& s) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Chrome trace JSON (loadable in Perfetto); false if the file could not
  /// be written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.t0_ns - base) / 1e3,
                   static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                   static_cast<long long>(s.op));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Storage traffic charged to one slot: a rank (shared-file backends) or
/// a psrv shard.
struct SlotTraffic {
  std::uint64_t calls = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};

/// Per-slot storage counters shared by every CountingFile of one run.
/// The last slot collects calls from threads that are neither a rank nor
/// a shard (final verification on the main thread).
class StorageProbe {
 public:
  explicit StorageProbe(int nslots) : slots_(static_cast<std::size_t>(nslots) + 1) {}

  int nslots() const { return static_cast<int>(slots_.size()) - 1; }

  void charge(int slot, std::uint64_t rd, std::uint64_t wr) {
    if (slot < 0 || slot >= nslots()) slot = nslots();
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.read_bytes.fetch_add(rd, std::memory_order_relaxed);
    s.write_bytes.fetch_add(wr, std::memory_order_relaxed);
  }

  /// Counters of slots [0, nslots()) at this instant.
  std::vector<SlotTraffic> snapshot() const {
    std::vector<SlotTraffic> out(static_cast<std::size_t>(nslots()));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].calls = slots_[i].calls.load(std::memory_order_relaxed);
      out[i].read_bytes = slots_[i].read_bytes.load(std::memory_order_relaxed);
      out[i].write_bytes =
          slots_[i].write_bytes.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0}, read_bytes{0}, write_bytes{0};
  };
  std::vector<Slot> slots_;
};

/// FileBackend decorator that counts and times every storage call.  With
/// `shard` >= 0 all calls are charged to that shard; otherwise to the
/// calling rank.  Purely observational: the view capability of the inner
/// backend is forwarded, so the access path is the same as without it.
class CountingFile final : public llio::pfs::FileBackend,
                           public llio::pfs::ViewIo {
 public:
  CountingFile(llio::pfs::FilePtr inner, StorageProbe& probe, SpanLog& log,
               int shard = -1)
      : inner_(std::move(inner)), probe_(probe), log_(log), shard_(shard) {}

  Off size() const override { return inner_->size(); }
  void resize(Off new_size) override { inner_->resize(new_size); }
  void sync() override { inner_->sync(); }
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    inner_->set_iov_batch_max(n);
  }

  llio::pfs::ViewIo* view_io() override {
    return inner_->view_io() != nullptr ? this : nullptr;
  }
  Off view_write(const llio::dt::Type& ft, Off disp, Off lo,
                 llio::ConstByteSpan data) override {
    return timed("pfs.view_write", 0, data.size(), [&] {
      return inner_->view_io()->view_write(ft, disp, lo, data);
    });
  }
  Off view_read(const llio::dt::Type& ft, Off disp, Off lo,
                llio::ByteSpan out) override {
    return timed("pfs.view_read", out.size(), 0, [&] {
      return inner_->view_io()->view_read(ft, disp, lo, out);
    });
  }

 protected:
  Off do_pread(Off offset, llio::ByteSpan out) override {
    return timed("pfs.pread", out.size(), 0,
                 [&] { return inner_->pread(offset, out); });
  }
  void do_pwrite(Off offset, llio::ConstByteSpan data) override {
    timed("pfs.pwrite", 0, data.size(), [&] {
      inner_->pwrite(offset, data);
      return Off{0};
    });
  }
  Off do_preadv(std::span<const llio::pfs::IoVec> iov) override {
    std::size_t n = 0;
    for (const auto& v : iov) n += v.buf.size();
    return timed("pfs.preadv", n, 0, [&] { return inner_->preadv(iov); });
  }
  void do_pwritev(std::span<const llio::pfs::ConstIoVec> iov) override {
    std::size_t n = 0;
    for (const auto& v : iov) n += v.buf.size();
    timed("pfs.pwritev", 0, n, [&] {
      inner_->pwritev(iov);
      return Off{0};
    });
  }

 private:
  template <class F>
  Off timed(const char* name, std::size_t rd, std::size_t wr, F&& call) {
    const std::int64_t t0 = now_ns();
    const Off r = call();
    const std::int64_t t1 = now_ns();
    probe_.charge(shard_ >= 0 ? shard_ : tl_rank, rd, wr);
    log_.add({name, shard_ >= 0 ? 100 + shard_ : tl_rank,
              shard_ >= 0 ? -1 : tl_op, t0, t1});
    return r;
  }

  llio::pfs::FilePtr inner_;
  StorageProbe& probe_;
  SpanLog& log_;
  int shard_;
};

}  // namespace llbench
