#include "pfs/async_io.hpp"

#include <atomic>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "pfs/iovec_util.hpp"

namespace llio::pfs {

// ---- AsyncIo -----------------------------------------------------------

AsyncIo::Batch::~Batch() {
  if (engine_ == nullptr || pending_ == 0) return;
  // The owner skipped wait() (likely unwinding from its own exception):
  // drain quietly so no operation outlives this Batch.
  std::unique_lock lock(engine_->mu_);
  engine_->cv_.wait(lock, [&] { return pending_ == 0; });
}

AsyncIo::AsyncIo(int queue_depth) : qd_(queue_depth) {
  LLIO_REQUIRE(qd_ >= 1, Errc::InvalidArgument,
               "AsyncIo: queue depth must be >= 1");
  // The reservation guarantees qd_ dedicated workers exist even when the
  // submitter is itself a pool job blocked in wait() — see the header.
  if (qd_ > 1) reserved_ = WorkerPool::shared().reserve(qd_);
}

AsyncIo::~AsyncIo() {
  // Every operation belongs to a Batch whose destructor drains, and a
  // Batch cannot outlive its engine's owner; by the time we get here the
  // queue is empty.  Assert-by-wait to be safe in release builds.
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return inflight_ == 0; });
}

void AsyncIo::run_op(Batch* batch, const std::function<void()>& op, Off bytes,
                     int owner, int tid) {
  std::optional<obs::ThreadTrackGuard> track;
  if (owner >= 0 && obs::trace_enabled())
    track.emplace(owner, tid, "", "aio worker " + std::to_string(tid));
  std::exception_ptr err;
  double seconds = 0;
  {
    obs::Phase t(seconds, "aio_op", obs::TraceLevel::Spans,
                 obs::metrics_enabled()
                     ? lat_hist_.load(std::memory_order_acquire)
                     : nullptr);
    t.arg("bytes", bytes);
    try {
      op();
    } catch (...) {
      err = std::current_exception();
    }
  }
  complete(batch, err, seconds);
}

void AsyncIo::complete(Batch* batch, std::exception_ptr err, double seconds) {
  // Notify while still holding the lock: the owner may be blocked in
  // ~AsyncIo or ~Batch waiting for this exact completion, and would
  // otherwise be free to destroy the condition variable between our
  // unlock and the notify.
  std::lock_guard lock(mu_);
  --inflight_;
  --batch->pending_;
  ++stats_.completed;
  stats_.op_s += seconds;
  if (err && !batch->err_) batch->err_ = err;
  cv_.notify_all();
}

void AsyncIo::submit(Batch& batch, std::function<void()> op, Off bytes) {
  LLIO_REQUIRE(batch.engine_ == nullptr || batch.engine_ == this,
               Errc::InvalidArgument, "AsyncIo: batch belongs elsewhere");
  batch.engine_ = this;
  if (obs::metrics_enabled() &&
      lat_hist_.load(std::memory_order_relaxed) == nullptr) {
    // Registry references are stable; a racing double-resolve stores the
    // same pointer.
    lat_hist_.store(&obs::Registry::instance().histogram("aio.op_us"),
                    std::memory_order_release);
  }
  if (qd_ == 1) {
    // Inline synchronous path: deterministic order, no pool involvement.
    {
      std::lock_guard lock(mu_);
      ++inflight_;
      ++batch.pending_;
      ++stats_.submitted;
      if (static_cast<std::uint64_t>(inflight_) > stats_.inflight_peak)
        stats_.inflight_peak = static_cast<std::uint64_t>(inflight_);
      ++seq_;
    }
    std::exception_ptr err;
    double seconds = 0;
    {
      // Span on the *caller's* track: at qd 1 the op runs inline, and the
      // timeline should show that I/O time where it was actually spent
      // (the explainer reconciles aio_op spans on any track).
      obs::Phase t(seconds, "aio_op", obs::TraceLevel::Spans,
                 obs::metrics_enabled()
                     ? lat_hist_.load(std::memory_order_acquire)
                     : nullptr);
      t.arg("bytes", bytes);
      t.arg("inline", 1);
      try {
        op();
      } catch (...) {
        err = std::current_exception();
      }
    }
    complete(&batch, err, seconds);
    return;
  }
  int tid;
  {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return inflight_ < qd_; });  // SQ-full backpressure
    ++inflight_;
    ++batch.pending_;
    ++stats_.submitted;
    if (static_cast<std::uint64_t>(inflight_) > stats_.inflight_peak)
      stats_.inflight_peak = static_cast<std::uint64_t>(inflight_);
    // Worker-track ids live above the pipeline's 1..8 range so the two
    // subsystems' tracks stay distinguishable in a trace.
    tid = 16 + static_cast<int>(seq_++ % static_cast<std::uint64_t>(qd_));
  }
  const int owner = obs::current_pid();
  Batch* b = &batch;
  WorkerPool::shared().submit(
      [this, b, op = std::move(op), bytes, owner, tid] {
        run_op(b, op, bytes, owner, tid);
      });
}

void AsyncIo::wait_locked(std::unique_lock<std::mutex>& lock, Batch& batch) {
  cv_.wait(lock, [&] { return batch.pending_ == 0; });
}

void AsyncIo::wait(Batch& batch) {
  if (batch.engine_ == nullptr) return;  // nothing was submitted
  std::exception_ptr err;
  {
    std::unique_lock lock(mu_);
    wait_locked(lock, batch);
    err = std::exchange(batch.err_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

AsyncIoStats AsyncIo::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

// ---- AsyncQdFile -------------------------------------------------------

AsyncQdFile::AsyncQdFile(FilePtr inner, int queue_depth)
    : inner_(std::move(inner)), aio_(queue_depth) {}

std::shared_ptr<AsyncQdFile> AsyncQdFile::wrap(FilePtr inner,
                                               int queue_depth) {
  LLIO_REQUIRE(inner != nullptr, Errc::InvalidArgument,
               "AsyncQdFile: null inner backend");
  LLIO_REQUIRE(queue_depth >= 1, Errc::InvalidArgument,
               "AsyncQdFile: queue depth must be >= 1");
  return std::shared_ptr<AsyncQdFile>(
      new AsyncQdFile(std::move(inner), queue_depth));
}

std::optional<AsyncInfo> AsyncQdFile::async_info() const {
  AsyncInfo info;
  info.queue_depth = aio_.queue_depth();
  if (auto in = inner_->async_info()) info.direct = in->direct;
  info.stats = aio_.stats();
  return info;
}

Off AsyncQdFile::do_pread(Off offset, ByteSpan out) {
  return inner_->pread(offset, out);  // one op: nothing to overlap
}

void AsyncQdFile::do_pwrite(Off offset, ConstByteSpan data) {
  inner_->pwrite(offset, data);
}

Off AsyncQdFile::do_preadv(std::span<const IoVec> iov) {
  if (iov.size() < 2 || !iov_groups_disjoint(iov)) return inner_->preadv(iov);
  std::atomic<Off> total{0};
  AsyncIo::Batch batch;
  for (std::size_t i = 0; i < iov.size();) {
    const std::size_t j = contig_group_end(iov, i);
    const std::span<const IoVec> group = iov.subspan(i, j - i);
    Off bytes = 0;
    for (const IoVec& v : group) bytes += to_off(v.buf.size());
    aio_.submit(
        batch,
        [this, group, &total] {
          total.fetch_add(inner_->preadv(group), std::memory_order_relaxed);
        },
        bytes);
    i = j;
  }
  aio_.wait(batch);
  return total.load(std::memory_order_relaxed);
}

void AsyncQdFile::do_pwritev(std::span<const ConstIoVec> iov) {
  if (iov.size() < 2 || !iov_groups_disjoint(iov)) {
    inner_->pwritev(iov);
    return;
  }
  AsyncIo::Batch batch;
  for (std::size_t i = 0; i < iov.size();) {
    const std::size_t j = contig_group_end(iov, i);
    const std::span<const ConstIoVec> group = iov.subspan(i, j - i);
    Off bytes = 0;
    for (const ConstIoVec& v : group) bytes += to_off(v.buf.size());
    aio_.submit(batch, [this, group] { inner_->pwritev(group); }, bytes);
    i = j;
  }
  aio_.wait(batch);
}

}  // namespace llio::pfs
