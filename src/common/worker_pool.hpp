// Process-wide persistent worker pool, shared by every subsystem that
// needs short-lived I/O jobs: the collective pipeline's pread/pwrite
// workers, the pfs::AsyncIo queue-depth engines and File's nonblocking
// requests all run here, so one set of threads serves the whole process
// instead of each pipeline run spawning (and joining) its own.
//
// Sizing: the pool starts empty and grows to the peak *concurrent*
// demand, expressed through RAII reservations — a pipeline run holding
// `reserve(depth)` and an AsyncIo engine holding `reserve(qd)` at the
// same time guarantee depth + qd workers exist.  Threads are
// never torn down (the pool outlives every user, like obs::Tracer), so
// steady-state collective loops pay zero thread churn.
//
// Nested submit-and-wait from inside a pool job is safe ONLY when the
// nested stage holds its own live reservation for the workers it waits
// on (pfs::AsyncIo reserves its queue depth for its whole lifetime, so a
// pipeline I/O worker blocking in AsyncIo::wait always has dedicated
// engine workers to make progress).  A job without that guarantee must
// stay self-contained: run one share of the work inline so the worst
// case under contention is serialization on the submitting thread, never
// deadlock.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace llio {

class WorkerPool {
 public:
  /// The process-wide pool.  Intentionally leaked (reachable, so LSan
  /// stays quiet): worker threads park on the condition variable at exit
  /// and are reaped by process teardown.
  static WorkerPool& shared();

  /// RAII claim on `n` concurrent workers; the pool grows so that all
  /// live reservations can run simultaneously.  Releasing never shrinks
  /// the pool.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& o) noexcept
        : pool_(o.pool_), n_(o.n_) {
      o.pool_ = nullptr;
      o.n_ = 0;
    }
    Reservation& operator=(Reservation&& o) noexcept {
      release();
      pool_ = o.pool_;
      n_ = o.n_;
      o.pool_ = nullptr;
      o.n_ = 0;
      return *this;
    }
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation() { release(); }

   private:
    friend class WorkerPool;
    Reservation(WorkerPool* pool, int n) : pool_(pool), n_(n) {}
    void release();
    WorkerPool* pool_ = nullptr;
    int n_ = 0;
  };

  Reservation reserve(int n);

  /// Enqueue `fn`; exceptions propagate through the returned future.
  template <class F>
  auto submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Current worker-thread count (tests/diagnostics).
  int threads() const;

 private:
  WorkerPool() = default;
  void enqueue(std::function<void()> fn);
  void grow_locked(int target);
  void loop();

  static constexpr int kMaxThreads = 64;  ///< runaway-reservation backstop

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int demand_ = 0;  ///< sum of live reservations
};

}  // namespace llio
