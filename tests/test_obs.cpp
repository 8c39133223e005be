// Observability subsystem tests: tracer gating and Chrome JSON output,
// the obs::Phase timer and the IoOpStats field table, metrics
// histograms/quantiles, TracedFile accounting against IoOpStats,
// and the pipeline timeline explainer's reconciliation with the engine's
// own overlap/wait numbers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "io_test_util.hpp"
#include "mpiio/info.hpp"
#include "mpiio/io_stats.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "pfs/traced_file.hpp"

namespace llio {
namespace {

using iotest::noncontig_filetype;

/// The tracer and registry are process-global; scope every test's
/// configuration and restore the quiet defaults on the way out.
struct ObsSandbox {
  ObsSandbox(obs::TraceLevel level, bool metrics) {
    obs::Tracer::instance().set_level(level);
    obs::Tracer::instance().clear();
    obs::set_metrics_enabled(metrics);
    obs::Registry::instance().reset_values();
  }
  ~ObsSandbox() {
    obs::Tracer::instance().set_level(obs::TraceLevel::Off);
    obs::Tracer::instance().clear();
    obs::set_metrics_enabled(false);
    obs::Registry::instance().reset_values();
  }
};

TEST(Histogram, SmallValuesAreExact) {
  obs::Histogram h;
  for (long long v = 0; v < 16; ++v) h.record(v);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 16u);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 15);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  // Values < 16 land in exact unit buckets.
  EXPECT_NEAR(h.quantile(0.5), 8.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 15.0, 1e-9);
}

TEST(Histogram, QuantilesWithinLogBucketError) {
  obs::Histogram h;
  for (long long v = 1; v <= 100000; ++v) h.record(v);
  // Each octave splits into 4 sub-buckets: <= ~12% relative error, plus
  // interpolation.  Allow 15%.
  EXPECT_NEAR(h.quantile(0.50), 50000.0, 0.15 * 50000.0);
  EXPECT_NEAR(h.quantile(0.95), 95000.0, 0.15 * 95000.0);
  EXPECT_NEAR(h.quantile(0.99), 99000.0, 0.15 * 99000.0);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100000u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100000);
}

TEST(Histogram, ResetZeroes) {
  obs::Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Registry, StableReferencesAndJson) {
  ObsSandbox sandbox(obs::TraceLevel::Off, true);
  auto& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("test.ops");
  c.add(3);
  EXPECT_EQ(&c, &reg.counter("test.ops"));  // same object on re-lookup
  reg.gauge("test.depth").set(7);
  reg.histogram("test.lat_us").record(1000);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.ops\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.depth\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.lat_us\""), std::string::npos) << json;
  const std::string table = reg.to_table();
  EXPECT_NE(table.find("test.ops"), std::string::npos) << table;
  // reset_values keeps registrations but zeroes contents.
  reg.reset_values();
  EXPECT_EQ(reg.counter("test.ops").value(), 0u);
  EXPECT_EQ(reg.histogram_summary("test.lat_us").count, 0u);
}

TEST(Tracer, OffEmitsNothing) {
  ObsSandbox sandbox(obs::TraceLevel::Off, false);
  {
    obs::Span s("should_not_record");
    EXPECT_FALSE(s.active());
    s.arg("k", 1);
  }
  obs::instant("also_not_recorded", obs::TraceLevel::Spans);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(Tracer, LevelGatingAndArgs) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  {
    obs::Span full_only("full_span", obs::TraceLevel::Full);
    EXPECT_FALSE(full_only.active());
  }
  {
    obs::Span s("phase_span");
    EXPECT_TRUE(s.active());
    s.arg("win", 3);
    s.arg("what", "ranges");
  }
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "phase_span");
  EXPECT_EQ(events[0].phase, 'X');
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "win");
  EXPECT_EQ(events[0].args[0].value, 3);
  EXPECT_TRUE(events[0].args[1].is_text);
  EXPECT_EQ(events[0].args[1].text, "ranges");
}

TEST(Phase, AccumulatesAcrossScopesWithTracingOff) {
  ObsSandbox sandbox(obs::TraceLevel::Off, false);
  double field = 0;
  {
    obs::Phase p(field, "phase_off");
    EXPECT_FALSE(p.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double first = field;
  EXPECT_GT(first, 0.0);
  {
    obs::Phase p(field, "phase_off");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(field, first);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(Phase, SpanAndHistogramShareTheFieldInterval) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  double field = 0;
  obs::Histogram hist;
  {
    obs::Phase p(field, "timed", obs::TraceLevel::Spans, &hist);
    EXPECT_TRUE(p.active());
    p.arg("what", "ranges");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "timed");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].text, "ranges");
  // The same two clock reads: the span duration is the field increment.
  EXPECT_GT(field, 0.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, field * 1e6);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.summary().max, static_cast<long long>(field * 1e6));
}

TEST(Phase, FullLevelUnderSpansTimesButEmitsNothing) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  double field = 0;
  {
    obs::Phase p(field, "full_only", obs::TraceLevel::Full);
    EXPECT_FALSE(p.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(field, 0.0);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(IoOpStats, EveryFieldFollowsItsMergeRuleAndFormats) {
  // a = 3, b = 2 per field: Sum gives 5, Max keeps 3 (an overwrite would
  // give 2).
  mpiio::IoOpStats a, b;
#define LLIO_X(type, member, merge, report) \
  a.member = type{3};                        \
  b.member = type{2};
  LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X
  a += b;
  const std::string text = "\n" + mpiio::format_stats(a);
#define LLIO_X(type, member, merge, report)                               \
  EXPECT_EQ(a.member, std::string(#merge) == "Max" ? type{3} : type{5})   \
      << #member;                                                         \
  EXPECT_NE(text.find("\n" #member " "), std::string::npos) << #member;
  LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X
}

TEST(Tracer, ThreadTrackGuardAssignsAndRestores) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  const int outer_pid = obs::current_pid();
  {
    obs::ThreadTrackGuard track(5, 2, "rank 5", "io worker 2");
    EXPECT_EQ(obs::current_pid(), 5);
    obs::Span s("on_track");
  }
  EXPECT_EQ(obs::current_pid(), outer_pid);
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pid, 5);
  EXPECT_EQ(events[0].tid, 2);
}

TEST(Tracer, ClearInvalidatesEventsBufferedInOtherThreads) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  std::atomic<bool> recorded{false}, cleared{false};
  std::thread t([&] {
    { obs::Span s("stale"); }
    recorded.store(true);
    while (!cleared.load()) std::this_thread::yield();
    // Thread exit drains its buffer; the generation check must drop it.
  });
  while (!recorded.load()) std::this_thread::yield();
  obs::Tracer::instance().clear();
  cleared.store(true);
  t.join();
  { obs::Span s("fresh"); }
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "fresh");
}

TEST(Tracer, ChromeJsonValidates) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  {
    obs::ThreadTrackGuard track(0, 0, "rank 0", "compute");
    obs::Span s("window");
    s.arg("win", 0LL);
    obs::instant("injected_fault", obs::TraceLevel::Spans,
                 {{"op", 0, "pread", true}});
  }
  const std::string json = obs::Tracer::instance().chrome_json();
  const obs::TraceCheckResult r = obs::check_chrome_trace(json);
  EXPECT_TRUE(r.ok) << r.error << "\n" << json;
  EXPECT_EQ(r.spans, 1);
  EXPECT_TRUE(r.names.count("window"));
  EXPECT_TRUE(r.names.count("injected_fault"));
}

TEST(TraceCheck, RejectsMalformedTraces) {
  EXPECT_FALSE(obs::check_chrome_trace("not json").ok);
  EXPECT_FALSE(obs::check_chrome_trace("{\"noEvents\":[]}").ok);
  // 'X' without dur.
  EXPECT_FALSE(obs::check_chrome_trace(
                   "[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                   "\"ts\":1}]")
                   .ok);
  // Unbalanced 'B'.
  EXPECT_FALSE(obs::check_chrome_trace(
                   "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":0,\"tid\":0,"
                   "\"ts\":1}]")
                   .ok);
  // Balanced 'B'/'E' is fine.
  EXPECT_TRUE(obs::check_chrome_trace(
                  "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":0,\"tid\":0,"
                  "\"ts\":1},{\"name\":\"a\",\"ph\":\"E\",\"pid\":0,"
                  "\"tid\":0,\"ts\":2}]")
                  .ok);
}

TEST(InfoHints, ObservabilityRoundTrip) {
  mpiio::Options o;
  EXPECT_FALSE(mpiio::options_to_info(o).get("llio_trace").has_value());
  o.trace = obs::TraceLevel::Full;
  o.trace_file = "out.json";
  o.metrics = true;
  const mpiio::Info info = mpiio::options_to_info(o);
  EXPECT_EQ(info.get("llio_trace"), "full");
  EXPECT_EQ(info.get("llio_trace_file"), "out.json");
  EXPECT_EQ(info.get("llio_metrics"), "on");
  const mpiio::Options back = mpiio::apply_info(info, mpiio::Options{});
  ASSERT_TRUE(back.trace.has_value());
  EXPECT_EQ(*back.trace, obs::TraceLevel::Full);
  EXPECT_EQ(back.trace_file, "out.json");
  EXPECT_EQ(back.metrics, true);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_trace", "verbose"}}, {}), Error);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_metrics", "yes"}}, {}), Error);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_trace_file", ""}}, {}), Error);
}

/// Run one pipelined collective write (2 ranks, 4 windows per IOP) and
/// return the folded per-rank stats.  The interesting trace content —
/// spans from concurrent I/O workers nested against compute windows —
/// accumulates in the global tracer.
mpiio::IoOpStats run_pipelined_write(bool metrics_wrap) {
  const int P = 2;
  const Off sblock = 64, nblock = 256;  // 16 KiB per rank
  const Off nbytes = nblock * sblock;
  auto fs = pfs::MemFile::create();
  std::mutex mu;
  mpiio::IoOpStats folded;
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.method = mpiio::Method::Listless;
    o.file_buffer_size = 4096;  // 4 windows per IOP domain
    o.pipeline_depth = 2;
    if (metrics_wrap) o.metrics = true;
    mpiio::File f = mpiio::File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    ByteVec buf(to_size(nbytes), Byte{0x42});
    f.write_at_all(0, buf.data(), nbytes, dt::byte());
    std::lock_guard<std::mutex> lk(mu);
    folded += f.last_stats();
  });
  return folded;
}

TEST(PipelineTrace, ConcurrentWorkerSpansValidate) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  run_pipelined_write(false);
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_FALSE(events.empty());

  int window_spans = 0, worker_io_spans = 0, wait_spans = 0;
  for (const auto& ev : events) {
    if (ev.phase != 'X') continue;
    if (ev.name == "window") {
      ++window_spans;
      EXPECT_EQ(ev.tid, 0);  // windows are compute-thread spans
      bool has_win = false;
      for (const auto& a : ev.args) has_win |= a.key == "win" && !a.is_text;
      EXPECT_TRUE(has_win);
    } else if (ev.name == "pwrite") {
      ++worker_io_spans;
      EXPECT_GE(ev.tid, 1);  // depth > 0 puts file I/O on worker tracks
    } else if (ev.name == "io_wait") {
      ++wait_spans;
      EXPECT_EQ(ev.tid, 0);
    }
  }
  // 2 ranks x 4 windows each.
  EXPECT_EQ(window_spans, 8);
  EXPECT_EQ(worker_io_spans, 8);
  EXPECT_GE(wait_spans, 8);

  const std::string json = obs::Tracer::instance().chrome_json();
  const obs::TraceCheckResult r = obs::check_chrome_trace(json);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.tracks, 4);  // 2 ranks x (compute + >= 1 worker)
  EXPECT_TRUE(r.names.count("window"));
  EXPECT_TRUE(r.names.count("pwrite"));
  EXPECT_TRUE(r.names.count("pack"));
}

TEST(PipelineTrace, ExplainReconcilesWithIoOpStats) {
  ObsSandbox sandbox(obs::TraceLevel::Spans, false);
  const mpiio::IoOpStats stats = run_pipelined_write(false);
  const obs::PipelineReport report =
      obs::explain_pipeline(obs::Tracer::instance().snapshot());

  ASSERT_EQ(report.ranks.size(), 2u);
  for (const auto& rank : report.ranks) EXPECT_EQ(rank.windows, 4);

  // Same formula as the engine: the trace-derived totals must agree with
  // the stats within 5% plus a small absolute slack (the span brackets
  // the timed region, so it can only be marginally wider).
  const double wait_s = report.io_wait_us / 1e6;
  const double overlap_s = report.overlap_us / 1e6;
  EXPECT_NEAR(wait_s, stats.io_wait_s,
              0.05 * std::max(wait_s, stats.io_wait_s) + 2e-3);
  EXPECT_NEAR(overlap_s, stats.overlap_s,
              0.05 * std::max(overlap_s, stats.overlap_s) + 2e-3);

  const std::string text = obs::format_pipeline_report(report, true);
  EXPECT_NE(text.find("rank"), std::string::npos) << text;
}

TEST(TracedFile, ByteCountsMatchIoOpStats) {
  ObsSandbox sandbox(obs::TraceLevel::Off, true);
  const mpiio::IoOpStats stats = run_pipelined_write(true);
  ASSERT_GT(stats.file_write_bytes, 0);

  auto& reg = obs::Registry::instance();
  const obs::HistogramSummary wr = reg.histogram_summary("file.write_bytes");
  const obs::HistogramSummary rd = reg.histogram_summary("file.read_bytes");
  EXPECT_EQ(wr.count, stats.file_write_ops);
  EXPECT_EQ(rd.count, stats.file_read_ops);
  // sum == mean * count exactly (the histogram keeps an exact sum).
  EXPECT_EQ(std::llround(wr.mean * static_cast<double>(wr.count)),
            stats.file_write_bytes);
  EXPECT_EQ(std::llround(rd.mean * static_cast<double>(rd.count)),
            stats.file_read_bytes);
  EXPECT_GT(reg.histogram_summary("file.pwrite_us").count, 0u);
}

TEST(TracedFile, WrapIsIdempotentAndForwards) {
  ObsSandbox sandbox(obs::TraceLevel::Off, true);
  auto inner = pfs::MemFile::create();
  pfs::FilePtr wrapped = pfs::TracedFile::wrap(inner);
  ASSERT_NE(dynamic_cast<pfs::TracedFile*>(wrapped.get()), nullptr);
  ByteVec data(128, Byte{0x5a});
  wrapped->pwrite(0, data);
  EXPECT_EQ(wrapped->size(), 128);
  EXPECT_EQ(inner->size(), 128);
  ByteVec back(128, Byte{0});
  EXPECT_EQ(wrapped->pread(0, back), 128);
  EXPECT_EQ(back, data);
  EXPECT_EQ(obs::Registry::instance()
                .histogram_summary("file.write_bytes")
                .count,
            1u);
}

}  // namespace
}  // namespace llio
