// Asynchronous queue-depth submission/completion engine, shaped like
// io_uring but running on the process-wide common::WorkerPool.
//
// The paper's listless engine removes the datatype-handling bottleneck;
// what remains between a collective window and device bandwidth on a real
// file system is queue depth: a single synchronous preadv per window
// keeps at most one operation outstanding, so the device never sees the
// parallelism the access pattern has.  AsyncIo gives any storage path an
// io_uring-style discipline:
//
//   * submit() enqueues one operation (a closure over preadv/pwritev or a
//     raw syscall) and returns immediately, unless `queue_depth`
//     operations are already in flight — then it blocks, which is the SQ-
//     full backpressure that bounds memory and fairness.
//   * operations complete out of order on pool workers; a Batch tracks
//     the completions belonging to one logical call, so concurrent
//     callers sharing an engine wait only for their own operations and
//     observe only their own errors.
//   * wait(batch) is the completion reap: it blocks until the batch is
//     drained and rethrows the batch's first failure.
//
// queue_depth == 1 runs every operation inline on the submitting thread
// (no pool, deterministic order) — byte- and schedule-identical to the
// synchronous path, which is what lets qd=1 be the fuzz-asserted
// baseline.
//
// The engine holds a WorkerPool reservation of `queue_depth` for its
// lifetime, so submitting from inside another pool job (the collective
// pipeline's I/O workers call FileBackend::pwritev, which may land here)
// cannot starve: the reservation guarantees this engine's operations have
// workers of their own.  Per-op latency lands in the obs histogram
// registry under "aio.op_us" when metrics are on.
//
// AsyncQdFile below is the one storage-side owner of an engine: any
// backend gains queue depth by being wrapped in it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>

#include "common/worker_pool.hpp"
#include "pfs/file_backend.hpp"

namespace llio::obs {
class Histogram;
}

namespace llio::pfs {

class AsyncIo {
 public:
  /// One logical call's completion set.  Submit operations against it,
  /// then wait() exactly once; the destructor drains quietly (swallowing
  /// errors) if the owner forgot, so operations never outlive the batch.
  class Batch {
   public:
    Batch() = default;
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    friend class AsyncIo;
    AsyncIo* engine_ = nullptr;
    std::size_t pending_ = 0;
    std::exception_ptr err_;
  };

  explicit AsyncIo(int queue_depth);
  ~AsyncIo();

  AsyncIo(const AsyncIo&) = delete;
  AsyncIo& operator=(const AsyncIo&) = delete;

  int queue_depth() const noexcept { return qd_; }

  /// Enqueue `op`; blocks while queue_depth operations are in flight.
  /// `bytes` is a hint for the trace span only.
  void submit(Batch& batch, std::function<void()> op, Off bytes = 0);

  /// Block until every operation of `batch` completed; rethrows the
  /// batch's first error.
  void wait(Batch& batch);

  AsyncIoStats stats() const;

 private:
  void run_op(Batch* batch, const std::function<void()>& op, Off bytes,
              int owner, int tid);
  void complete(Batch* batch, std::exception_ptr err, double seconds);
  void wait_locked(std::unique_lock<std::mutex>& lock, Batch& batch);

  const int qd_;
  WorkerPool::Reservation reserved_;
  std::atomic<obs::Histogram*> lat_hist_{nullptr};  ///< lazy, then stable

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  AsyncIoStats stats_;
  std::uint64_t seq_ = 0;  ///< submission counter (worker-track ids)
};

/// Queue-depth decorator over any backend: vectored batches are split
/// into file-contiguous groups and up to `queue_depth` inner preadv/
/// pwritev submissions are kept in flight, completing out of order.  This
/// is how PosixFile (backend spec `posix:<dir>,qd=N`) and cost-model
/// backends (ThrottledFile) gain overlapped submission — and the
/// throttled wrap is the deterministic fallback target for the CI perf
/// gate, where queue depth provably overlaps per-op latency.
///
/// Groups are only issued concurrently when they are sorted and disjoint
/// (engine-generated batches always are); anything else falls back to the
/// inner call unchanged.  queue_depth == 1 makes the SAME per-group inner
/// submissions, inline and in order — so a qd sweep over this decorator
/// varies only the concurrency, never the operation count (the fair
/// baseline the CI perf gate compares against).
class AsyncQdFile final : public FileBackend {
 public:
  static std::shared_ptr<AsyncQdFile> wrap(FilePtr inner, int queue_depth);

  Off size() const override { return inner_->size(); }
  void resize(Off new_size) override { inner_->resize(new_size); }
  void sync() override { inner_->sync(); }
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    inner_->set_iov_batch_max(n);
  }
  std::optional<AsyncInfo> async_info() const override;

  const FilePtr& inner() const { return inner_; }

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  AsyncQdFile(FilePtr inner, int queue_depth);

  FilePtr inner_;
  AsyncIo aio_;
};

}  // namespace llio::pfs
