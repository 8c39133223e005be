#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"
#include "obs/phase.hpp"

namespace llio::obs {

namespace {

int level_from_env() {
  const char* v = std::getenv("LLIO_TRACE");
  if (v == nullptr || *v == '\0') return 0;
  const std::string s = v;
  if (s == "off" || s == "0") return 0;
  if (s == "spans" || s == "1") return 1;
  if (s == "full" || s == "2") return 2;
  std::fprintf(stderr, "llio: ignoring LLIO_TRACE=%s (off|spans|full)\n",
               v);
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strprintf("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

void append_args_json(std::string& out, const std::vector<TraceArg>& args) {
  if (args.empty()) return;
  out += ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(args[i].key);
    out += "\":";
    if (args[i].is_text) {
      out += '"';
      out += json_escape(args[i].text);
      out += '"';
    } else {
      out += strprintf("%lld", args[i].value);
    }
  }
  out += '}';
}

void append_event_json(std::string& out, const TraceEvent& ev) {
  out += strprintf("{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f",
                   json_escape(ev.name).c_str(), ev.phase, ev.pid, ev.tid,
                   ev.ts_us);
  if (ev.phase == 'X') out += strprintf(",\"dur\":%.3f", ev.dur_us);
  if (ev.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
  append_args_json(out, ev.args);
  out += '}';
}

}  // namespace

namespace detail {
std::atomic<int> g_trace_level{level_from_env()};
}

const char* trace_level_name(TraceLevel l) noexcept {
  switch (l) {
    case TraceLevel::Off: return "off";
    case TraceLevel::Spans: return "spans";
    case TraceLevel::Full: return "full";
  }
  return "off";
}

namespace {
// Taken at load time, before any span starts: timestamps are never negative.
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
}  // namespace

double trace_us(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

double now_us() { return trace_us(std::chrono::steady_clock::now()); }

Phase::Phase(double& into, const char* span, TraceLevel min)
    : into_(into), t0_(Clock::now()) {
  if (span != nullptr && trace_enabled(min)) start(span, trace_us(t0_));
}

Phase::~Phase() {
  const double s = std::chrono::duration<double>(Clock::now() - t0_).count();
  into_ += s;
  if (active()) finish(s * 1e6);
}

// ---- per-thread state --------------------------------------------------

namespace {

struct ThreadTrack {
  int pid = -1;
  int tid = 0;
};

thread_local ThreadTrack tl_track;

/// Stable synthetic pid for threads that record without a track guard
/// (e.g. a test body outside sim::Runtime).
int fallback_pid() {
  static std::atomic<int> next{900};
  thread_local int mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

/// Per-thread event buffer.  push() is lock-free; the buffer drains into
/// the tracer when it grows past kDrainAt and when the thread exits.
/// `gen` implements Tracer::clear(): a buffer whose generation is stale
/// drops its events instead of draining them.
struct ThreadBuffer {
  std::vector<TraceEvent> events;
  std::uint64_t gen = 0;

  static constexpr std::size_t kDrainAt = 1 << 16;

  void push(TraceEvent&& ev) {
    Tracer& tr = Tracer::instance();
    const std::uint64_t cur = tr.generation();
    if (gen != cur) {
      events.clear();
      gen = cur;
    }
    events.push_back(std::move(ev));
    if (events.size() >= kDrainAt) flush();
  }

  void flush() {
    if (events.empty()) return;
    Tracer::instance().drain(std::move(events), gen);
    events.clear();
  }

  ~ThreadBuffer() { flush(); }
};

ThreadBuffer& tls_buffer() {
  thread_local ThreadBuffer buf;
  return buf;
}

}  // namespace

namespace detail {

void record(TraceEvent&& ev) {
  if (ev.pid == 0 && ev.tid == 0) {  // unresolved: stamp the thread track
    ev.pid = tl_track.pid >= 0 ? tl_track.pid : fallback_pid();
    ev.tid = tl_track.tid;
  }
  tls_buffer().push(std::move(ev));
}

void span_finish(const char* name, double t0_us, double dur_us,
                 std::unique_ptr<std::vector<TraceArg>> args) {
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'X';
  ev.pid = tl_track.pid >= 0 ? tl_track.pid : fallback_pid();
  ev.tid = tl_track.tid;
  ev.ts_us = t0_us;
  ev.dur_us = dur_us;
  if (args) ev.args = std::move(*args);
  tls_buffer().push(std::move(ev));
}

}  // namespace detail

void instant(const char* name, TraceLevel min,
             std::initializer_list<TraceArg> args) {
  if (!trace_enabled(min)) return;
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'i';
  ev.pid = tl_track.pid >= 0 ? tl_track.pid : fallback_pid();
  ev.tid = tl_track.tid;
  ev.ts_us = now_us();
  ev.args.assign(args.begin(), args.end());
  tls_buffer().push(std::move(ev));
}

int current_pid() { return tl_track.pid; }

void flush_thread_trace() { tls_buffer().flush(); }

ThreadTrackGuard::ThreadTrackGuard(int pid, int tid,
                                   const std::string& process_name,
                                   const std::string& thread_name)
    : prev_pid_(tl_track.pid), prev_tid_(tl_track.tid) {
  tl_track.pid = pid;
  tl_track.tid = tid;
  Tracer::instance().register_track(pid, tid, process_name, thread_name);
}

ThreadTrackGuard::~ThreadTrackGuard() {
  // Hand the buffered events over while the track is still accurate.
  tls_buffer().flush();
  tl_track.pid = prev_pid_;
  tl_track.tid = prev_tid_;
}

// ---- the tracer --------------------------------------------------------

struct Tracer::Impl {
  mutable std::mutex mu;
  std::vector<TraceEvent> events;
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
  std::string output_path;
  bool atexit_registered = false;
  std::atomic<std::uint64_t> gen{0};
};

Tracer::Tracer() : impl_(new Impl) {
  const char* path = std::getenv("LLIO_TRACE_FILE");
  if (path != nullptr && *path != '\0') set_output_path(path);
}

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer;  // leaked: usable during static teardown
  return *t;
}

void Tracer::set_level(TraceLevel l) {
  detail::g_trace_level.store(static_cast<int>(l),
                              std::memory_order_relaxed);
}

TraceLevel Tracer::level() const {
  return static_cast<TraceLevel>(
      detail::g_trace_level.load(std::memory_order_relaxed));
}

void Tracer::set_output_path(std::string path) {
  std::lock_guard lock(impl_->mu);
  impl_->output_path = std::move(path);
  if (!impl_->atexit_registered && !impl_->output_path.empty()) {
    impl_->atexit_registered = true;
    std::atexit([] {
      Tracer& tr = Tracer::instance();
      std::string out;
      {
        std::lock_guard lk(tr.impl_->mu);
        out = tr.impl_->output_path;
      }
      if (!out.empty()) tr.write_chrome_json(out);
    });
  }
}

void Tracer::clear() {
  impl_->gen.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(impl_->mu);
  impl_->events.clear();
}

std::uint64_t Tracer::generation() const {
  return impl_->gen.load(std::memory_order_relaxed);
}

void Tracer::drain(std::vector<TraceEvent>&& events, std::uint64_t gen) {
  std::lock_guard lock(impl_->mu);
  if (gen != impl_->gen.load(std::memory_order_relaxed)) return;  // stale
  if (impl_->events.empty()) {
    impl_->events = std::move(events);
  } else {
    impl_->events.insert(impl_->events.end(),
                         std::make_move_iterator(events.begin()),
                         std::make_move_iterator(events.end()));
  }
}

void Tracer::register_track(int pid, int tid, std::string process_name,
                            std::string thread_name) {
  std::lock_guard lock(impl_->mu);
  if (!process_name.empty()) impl_->process_names[pid] = std::move(process_name);
  if (!thread_name.empty())
    impl_->thread_names[{pid, tid}] = std::move(thread_name);
}

std::vector<TraceEvent> Tracer::snapshot() {
  tls_buffer().flush();
  std::lock_guard lock(impl_->mu);
  return impl_->events;
}

std::string Tracer::chrome_json() { return obs::chrome_json(snapshot()); }

std::string chrome_json(const std::vector<TraceEvent>& events) {
  Tracer& tr = Tracer::instance();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  {
    std::lock_guard lock(tr.impl_->mu);
    for (const auto& [pid, name] : tr.impl_->process_names) {
      if (!first) out += ",\n";
      first = false;
      out += strprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                       "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                       pid, json_escape(name).c_str());
    }
    for (const auto& [key, name] : tr.impl_->thread_names) {
      if (!first) out += ",\n";
      first = false;
      out += strprintf(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
          "\"args\":{\"name\":\"%s\"}}",
          key.first, key.second, json_escape(name).c_str());
      out += strprintf(
          ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,"
          "\"tid\":%d,\"args\":{\"sort_index\":%d}}",
          key.first, key.second, key.second);
    }
  }
  for (const TraceEvent& ev : events) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, ev);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  LLIO_REQUIRE(f != nullptr, Errc::Io,
               "trace: cannot open output file " + path);
  const std::size_t put = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  LLIO_REQUIRE(put == json.size(), Errc::Io,
               "trace: short write to " + path);
}

}  // namespace llio::obs
