// obs::Phase — the one timing primitive of the library.
//
// A phase is a scope whose wall time belongs to one IoOpStats field (or
// any other seconds accumulator).  The steady clock is read once when the
// phase opens and once when it closes; that single interval feeds
//   * the seconds field `into` (always, so IoOpStats stays exact with
//     tracing and metrics off),
//   * the trace span `span` — same start, same duration, no clock read of
//     its own — when the tracer sits at `min` or above and `span` is not
//     null,
//   * the histogram `hist` in microseconds, when one is given.
// Callers that want a metric only while metrics are on pass
// `obs::metrics_enabled() ? &h : nullptr`.
//
// The constructor and destructor live in trace.cpp: inlined into the
// two-phase driver they made the llbench coll-fine ops ~6% slower (4-CPU
// x86 host); out of line the difference is within run-to-run noise.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace llio::obs {

class Phase : public Span {
 public:
  using Clock = std::chrono::steady_clock;

  Phase(double& into, const char* span, TraceLevel min = TraceLevel::Spans,
        Histogram* hist = nullptr);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double& into_;
  Histogram* hist_;
  Clock::time_point t0_;
};

}  // namespace llio::obs
