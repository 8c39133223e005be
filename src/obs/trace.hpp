// Per-rank span tracing, emitted as Chrome trace-event JSON
// (chrome://tracing / https://ui.perfetto.dev loadable).
//
// The paper's whole argument (§2.4/§3.3) is an overhead decomposition —
// where time goes between list building, packing, exchange, and file
// access.  IoOpStats sums those phases per operation; the tracer records
// them as *spans on a timeline*, so the double-buffered window overlap of
// the collective pipeline is visible as interleaved preread/pack/pwrite
// slices instead of two aggregate numbers.
//
// Model:
//   * One track group ("process") per rank: pid = rank.  Within a rank,
//     tid 0 is the compute thread and tid >= 1 are the pipeline's I/O
//     workers (ThreadTrackGuard assigns both).
//   * obs::Span is an RAII complete-event ('X'): constructed it samples
//     the monotonic clock, destroyed it appends one event to a
//     *per-thread* buffer — no locks on the hot path.  Buffers drain into
//     the global tracer when they grow large and when the thread exits.
//   * obs::instant() records a zero-duration marker ('i'), used by the
//     perturbation backends (ThrottledFile delays, FaultyFile faults).
//
// Cost when disabled: every probe is one relaxed atomic load and a
// branch (trace_enabled()); bench_ablation_pipeline asserts the
// disabled-probe cost stays in the nanosecond range.
//
// Configuration: hints llio_trace=off|spans|full, llio_trace_file=<path>,
// applied at mpiio::File::open; environment variables LLIO_TRACE and
// LLIO_TRACE_FILE seed the same settings for benches that build Options
// directly.  `spans` records the phase/window level; `full` adds per-file
// -op spans (TracedFile), communication internals, pack kernels, and
// instant perturbation events.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace llio::obs {

enum class TraceLevel : int { Off = 0, Spans = 1, Full = 2 };

namespace detail {
extern std::atomic<int> g_trace_level;  ///< seeded from LLIO_TRACE
}

/// The one probe every instrumentation point compiles down to when
/// tracing is off.
inline bool trace_enabled(TraceLevel min = TraceLevel::Spans) {
  return detail::g_trace_level.load(std::memory_order_relaxed) >=
         static_cast<int>(min);
}

const char* trace_level_name(TraceLevel l) noexcept;

/// One span/instant argument; numeric unless `is_text`.
struct TraceArg {
  std::string key;
  long long value = 0;
  std::string text;
  bool is_text = false;
};

struct TraceEvent {
  std::string name;
  char phase = 'X';  ///< 'X' complete, 'i' instant
  int pid = 0;       ///< rank (track group)
  int tid = 0;       ///< 0 = compute thread, >= 1 = pipeline I/O worker
  double ts_us = 0;  ///< monotonic microseconds since the tracer epoch
  double dur_us = 0; ///< 'X' only
  std::vector<TraceArg> args;
};

/// Microseconds from the process-wide trace epoch to `t` / to now
/// (monotonic clock).
double trace_us(std::chrono::steady_clock::time_point t);
double now_us();

namespace detail {
void record(TraceEvent&& ev);       // append to this thread's buffer
void span_finish(const char* name, double t0_us, double dur_us,
                 std::unique_ptr<std::vector<TraceArg>> args);
}  // namespace detail

/// RAII complete-event span.  Constructed against a minimum level; when
/// the tracer sits below it the constructor is a relaxed load + branch
/// and the destructor a dead branch.
class Span {
 public:
  explicit Span(const char* name, TraceLevel min = TraceLevel::Spans) {
    if (trace_enabled(min)) start(name, now_us());
  }
  ~Span() {
    if (active_) finish(now_us() - t0_us_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Attach a numeric argument (shown in the Perfetto slice details).
  void arg(const char* key, long long v) {
    if (!active_) return;
    ensure_args().push_back(TraceArg{key, v, {}, false});
  }
  void arg(const char* key, const char* text) {
    if (!active_) return;
    ensure_args().push_back(TraceArg{key, 0, text, true});
  }

 protected:
  Span() = default;  ///< inactive until start() (obs::Phase)
  void start(const char* name, double t0_us) {
    name_ = name;
    t0_us_ = t0_us;
    active_ = true;
  }
  /// Record the event with the given duration; the span goes inactive.
  void finish(double dur_us) {
    active_ = false;
    detail::span_finish(name_, t0_us_, dur_us, std::move(args_));
  }

 private:
  std::vector<TraceArg>& ensure_args() {
    if (!args_) args_ = std::make_unique<std::vector<TraceArg>>();
    return *args_;
  }

  const char* name_ = nullptr;
  double t0_us_ = 0;
  bool active_ = false;
  std::unique_ptr<std::vector<TraceArg>> args_;
};

/// Zero-duration marker (phase 'i') on the calling thread's track.
void instant(const char* name, TraceLevel min,
             std::initializer_list<TraceArg> args = {});

/// Current thread's track group (rank), or -1 when unassigned.  Threads
/// that record events without a track get a stable synthetic pid.
int current_pid();

/// Hand the calling thread's buffered events to the tracer now.
/// Tracer::snapshot() flushes only the *calling* thread, so a collective
/// aggregation point (mpiio::File::close) has every rank thread flush
/// itself before one rank snapshots.
void flush_thread_trace();

/// Assigns the calling thread to a (pid, tid) track for its lifetime and
/// registers the Perfetto process/thread names; restores the previous
/// assignment on destruction.  sim::Runtime tags rank threads
/// (pid = rank, tid = 0), the pipeline's IoWorkerPool tags its workers
/// (owner rank, tid = 1 + worker index).
class ThreadTrackGuard {
 public:
  ThreadTrackGuard(int pid, int tid, const std::string& process_name,
                   const std::string& thread_name);
  ~ThreadTrackGuard();
  ThreadTrackGuard(const ThreadTrackGuard&) = delete;
  ThreadTrackGuard& operator=(const ThreadTrackGuard&) = delete;

 private:
  int prev_pid_;
  int prev_tid_;
};

/// Process-global event sink.  Intentionally leaked: instant events and
/// span destructors may fire during static destruction.
class Tracer {
 public:
  static Tracer& instance();

  void set_level(TraceLevel l);
  TraceLevel level() const;

  /// Dump the trace to `path` at process exit (idempotent; last path
  /// wins).  Seeded from LLIO_TRACE_FILE.
  void set_output_path(std::string path);

  /// Drop every recorded event, including events still sitting in other
  /// threads' buffers (generation check at drain time).
  void clear();

  /// All events drained so far plus the calling thread's buffer.  Call
  /// after the producing threads joined (sim::Runtime::run returns, the
  /// pipeline's workers exit) for a complete picture.
  std::vector<TraceEvent> snapshot();

  /// The full trace as Chrome trace-event JSON.
  std::string chrome_json();
  void write_chrome_json(const std::string& path);

  // Internal plumbing (thread buffers, track registration).
  void drain(std::vector<TraceEvent>&& events, std::uint64_t gen);
  std::uint64_t generation() const;
  void register_track(int pid, int tid, std::string process_name,
                      std::string thread_name);

 private:
  friend std::string chrome_json(const std::vector<TraceEvent>& events);
  Tracer();
  struct Impl;
  Impl* impl_;
};

/// Render a list of events (e.g. a snapshot) as Chrome trace JSON with
/// the tracer's registered track names.
std::string chrome_json(const std::vector<TraceEvent>& events);

}  // namespace llio::obs
