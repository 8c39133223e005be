// Observability subsystem tests: tracer gating and Chrome JSON output,
// the obs::Phase timer and the IoOpStats field table, TracedFile's file
// spans against IoOpStats, and the pipelined write's trace spans against
// the engine's own wait numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "io_test_util.hpp"
#include "mpiio/info.hpp"
#include "mpiio/io_stats.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "pfs/traced_file.hpp"

namespace llio {
namespace {

using iotest::noncontig_filetype;

/// The tracer is process-global; scope every test's configuration and
/// restore the quiet default on the way out.
struct ObsSandbox {
  explicit ObsSandbox(obs::TraceLevel level) {
    obs::Tracer::instance().set_level(level);
    obs::Tracer::instance().clear();
  }
  ~ObsSandbox() {
    obs::Tracer::instance().set_level(obs::TraceLevel::Off);
    obs::Tracer::instance().clear();
  }
};

TEST(Tracer, OffEmitsNothing) {
  ObsSandbox sandbox(obs::TraceLevel::Off);
  {
    obs::Span s("should_not_record");
    EXPECT_FALSE(s.active());
    s.arg("k", 1);
  }
  obs::instant("also_not_recorded", obs::TraceLevel::Spans);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(Tracer, LevelGatingAndArgs) {
  ObsSandbox sandbox(obs::TraceLevel::Spans);
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
  ObsSandbox sandbox(obs::TraceLevel::Off);
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
  ObsSandbox sandbox(obs::TraceLevel::Spans);
  double field = 0;
  {
    obs::Phase p(field, "timed");
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
}

TEST(Phase, FullLevelUnderSpansTimesButEmitsNothing) {
  ObsSandbox sandbox(obs::TraceLevel::Spans);
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
  ObsSandbox sandbox(obs::TraceLevel::Spans);
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
  ObsSandbox sandbox(obs::TraceLevel::Spans);
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
  ObsSandbox sandbox(obs::TraceLevel::Spans);
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
  const mpiio::Info info = mpiio::options_to_info(o);
  EXPECT_EQ(info.get("llio_trace"), "full");
  EXPECT_EQ(info.get("llio_trace_file"), "out.json");
  const mpiio::Options back = mpiio::apply_info(info, mpiio::Options{});
  ASSERT_TRUE(back.trace.has_value());
  EXPECT_EQ(*back.trace, obs::TraceLevel::Full);
  EXPECT_EQ(back.trace_file, "out.json");
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_trace", "verbose"}}, {}), Error);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_trace_file", ""}}, {}), Error);
}

/// Run one pipelined collective write (2 ranks, 4 windows per IOP) and
/// return the folded per-rank stats.  The interesting trace content —
/// spans from concurrent I/O workers nested against compute windows —
/// accumulates in the global tracer.
mpiio::IoOpStats run_pipelined_write() {
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
  ObsSandbox sandbox(obs::TraceLevel::Spans);
  const mpiio::IoOpStats stats = run_pipelined_write();
  const auto events = obs::Tracer::instance().snapshot();
  ASSERT_FALSE(events.empty());

  int worker_io_spans = 0, wait_spans = 0;
  std::map<int, int> windows_per_rank;  // pid -> window spans
  double wait_us = 0;
  for (const auto& ev : events) {
    if (ev.phase != 'X') continue;
    if (ev.name == "window") {
      ++windows_per_rank[ev.pid];
      EXPECT_EQ(ev.tid, 0);  // windows are compute-thread spans
      bool has_win = false;
      for (const auto& a : ev.args) has_win |= a.key == "win" && !a.is_text;
      EXPECT_TRUE(has_win);
    } else if (ev.name == "pwrite") {
      ++worker_io_spans;
      EXPECT_GE(ev.tid, 1);  // depth > 0 puts file I/O on worker tracks
    } else if (ev.name == "io_wait") {
      ++wait_spans;
      wait_us += ev.dur_us;
      EXPECT_EQ(ev.tid, 0);
    }
  }
  // 2 ranks x 4 windows each.
  ASSERT_EQ(windows_per_rank.size(), 2u);
  for (const auto& [pid, n] : windows_per_rank) EXPECT_EQ(n, 4) << pid;
  EXPECT_EQ(worker_io_spans, 8);
  EXPECT_GE(wait_spans, 8);
  // One obs::Phase interval feeds both the io_wait span and io_wait_s, so
  // the summed spans agree with the folded stats within 5% plus a small
  // absolute slack (the span brackets the timed region, so it can only
  // be marginally wider).
  const double wait_s = wait_us / 1e6;
  EXPECT_NEAR(wait_s, stats.io_wait_s,
              0.05 * std::max(wait_s, stats.io_wait_s) + 2e-3);

  const std::string json = obs::Tracer::instance().chrome_json();
  const obs::TraceCheckResult r = obs::check_chrome_trace(json);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.tracks, 4);  // 2 ranks x (compute + >= 1 worker)
  EXPECT_TRUE(r.names.count("window"));
  EXPECT_TRUE(r.names.count("pwrite"));
  EXPECT_TRUE(r.names.count("pack"));
}

TEST(TracedFile, ByteCountsMatchIoOpStats) {
  // llio_trace=full makes File::open wrap the backend in a TracedFile:
  // one file_* span per backend call, its "bytes" arg the bytes moved.
  ObsSandbox sandbox(obs::TraceLevel::Full);
  const mpiio::IoOpStats stats = run_pipelined_write();
  ASSERT_GT(stats.file_write_bytes, 0);

  const std::set<std::string> writes = {"file_pwrite", "file_pwritev",
                                        "file_view_write"};
  const std::set<std::string> reads = {"file_pread", "file_preadv",
                                       "file_view_read"};
  std::uint64_t write_spans = 0, read_spans = 0;
  Off write_bytes = 0, read_bytes = 0;
  for (const obs::TraceEvent& ev : obs::Tracer::instance().snapshot()) {
    if (ev.phase != 'X') continue;
    const bool w = writes.count(ev.name) != 0;
    if (!w && reads.count(ev.name) == 0) continue;
    Off bytes = -1;
    for (const obs::TraceArg& a : ev.args)
      if (!a.is_text && a.key == "bytes") bytes = a.value;
    ASSERT_GE(bytes, 0) << ev.name;
    (w ? write_spans : read_spans) += 1;
    (w ? write_bytes : read_bytes) += bytes;
  }
  EXPECT_GT(write_spans, 0u);
  EXPECT_EQ(write_spans, stats.file_write_ops);
  EXPECT_EQ(read_spans, stats.file_read_ops);
  EXPECT_EQ(write_bytes, stats.file_write_bytes);
  EXPECT_EQ(read_bytes, stats.file_read_bytes);
}

TEST(TracedFile, WrapIsIdempotentAndForwards) {
  ObsSandbox sandbox(obs::TraceLevel::Off);
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
}

}  // namespace
}  // namespace llio
