// Ablation: pipelined two-phase collective I/O (double-buffered windows).
//
// The serial IOP window loop alternates data movement (gather/scatter)
// with the file access for each file-domain window; pipeline_depth > 0
// moves the pread/pwrite onto an I/O worker so window k+1's file access
// runs while window k's data movement proceeds.  On storage with internal
// parallelism (ThrottledFile, non-exclusive device), in-flight windows
// also overlap each other, approaching depth-fold storage throughput.
// This is the paper's buffer-size discussion (§4.2) turned into a
// latency-hiding knob: smaller windows mean more pipeline stages.
//
// Output: aligned table + csv: lines (bench_common convention) + json:
// lines, one object per data point, schema announced in a json-schema:
// line.
#include "bench_common.hpp"
#include "pfs/throttled_file.hpp"

using namespace llio;
using namespace llio::bench;

namespace {

constexpr Off kSblock = 1024;
constexpr Off kFbs = 64 << 10;  // window size (file_buffer_size)

struct Point {
  double seconds = 0;    // per op, max across ranks
  Off bytes_pp = 0;      // payload bytes per process per op
  double overlap_s = 0;  // per op, summed over ranks
  double io_wait_s = 0;

  double mbps_pp() const {
    return seconds > 0
               ? static_cast<double>(bytes_pp) / seconds / (1024.0 * 1024.0)
               : 0.0;
  }
};

// With llio_trace=off every probe must cost one relaxed atomic load plus
// a branch -- nanoseconds -- so the instrumented hot paths stay within 1%
// of their uninstrumented cost.  A blowup here means the disabled gate
// grew a lock, an allocation, or a system call.
double measure_probe_ns() {
  obs::Tracer::instance().set_level(obs::TraceLevel::Off);
  constexpr int kIters = 2'000'000;
  unsigned sink = 0;
  WallTimer t;
  for (int i = 0; i < kIters; ++i) {
    obs::Span s("probe_overhead");
    sink += s.active() ? 1u : 0u;
    // Memory clobber: keep the compiler from hoisting the atomic level
    // load out of the loop and eliding the whole probe.
    asm volatile("" : "+r"(sink)::"memory");
  }
  const double ns = t.seconds() * 1e9 / kIters;
  if (sink != 0) std::abort();  // Off means no span may ever be active.
  return ns;
}

Point run_point(bool write, int windows_per_iop, int depth) {
  const int P = 2;
  // Each IOP's file domain is nblock*sblock bytes: nblock = 64*W gives
  // exactly W windows of kFbs per IOP.
  const Off nblock = Off{windows_per_iop} * (kFbs / kSblock);
  const Off nbytes = nblock * kSblock;  // stream bytes per rank per op

  auto inner = pfs::MemFile::create();
  pfs::ThrottleConfig cfg;
  cfg.read_bandwidth_bps = 512e6;
  cfg.write_bandwidth_bps = 512e6;
  cfg.op_latency_s = 50e-6;
  auto fs = pfs::ThrottledFile::wrap(inner, cfg);
  if (!write) inner->resize(Off{P} * nbytes + 64);

  const double min_seconds = env_double("LLIO_BENCH_MIN_SECONDS", 0.12);

  std::atomic<long> time_ns{0};
  std::atomic<long> overlap_ns{0}, wait_ns{0};

  sim::Runtime::run(P, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.method = mpiio::Method::Listless;
    o.file_buffer_size = kFbs;
    o.pipeline_depth = depth;
    mpiio::File f = mpiio::File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, kSblock, P, comm.rank()));
    ByteVec buf(to_size(nbytes), Byte{0x42});
    auto one_op = [&] {
      if (write)
        f.write_at_all(0, buf.data(), nbytes, dt::byte());
      else
        f.read_at_all(0, buf.data(), nbytes, dt::byte());
    };

    one_op();  // warm-up (sizes the file)
    comm.barrier();

    int repeats = 1;
    {
      WallTimer t;
      one_op();
      comm.barrier();
      const double once = t.seconds();
      repeats = once >= min_seconds
                    ? 1
                    : static_cast<int>(min_seconds / std::max(once, 1e-6)) + 1;
      repeats = std::min(repeats, 10000);
    }
    repeats = static_cast<int>(comm.allreduce_max(repeats));

    comm.barrier();
    WallTimer t;
    for (int i = 0; i < repeats; ++i) one_op();
    comm.barrier();
    const double total = t.seconds();

    if (comm.rank() == 0)
      time_ns.store(static_cast<long>(total / repeats * 1e9));
    // Per-op pipeline stats from the last op (representative: every op
    // runs the identical window schedule).
    overlap_ns.fetch_add(static_cast<long>(f.last_stats().overlap_s * 1e9));
    wait_ns.fetch_add(static_cast<long>(f.last_stats().io_wait_s * 1e9));
  });

  Point p;
  p.seconds = static_cast<double>(time_ns.load()) / 1e9;
  p.bytes_pp = nbytes;
  p.overlap_s = static_cast<double>(overlap_ns.load()) / 1e9;
  p.io_wait_s = static_cast<double>(wait_ns.load()) / 1e9;
  return p;
}

}  // namespace

int main() {
  std::printf(
      "ablation: pipelined two-phase windows (listless, P=2, 64 KiB "
      "windows, 1 KiB blocks, throttled storage 512 MB/s + 50 us)\n");
  Table table({"op", "win/IOP", "depth", "MB/s/proc", "speedup",
               "overlap [ms]", "io wait [ms]"});
  std::printf("json-schema:{\"bench\":\"string\",\"op\":\"string\","
              "\"windows_per_iop\":\"int\",\"depth\":\"int\","
              "\"mbps_pp\":\"number\",\"speedup_vs_serial\":\"number\","
              "\"overlap_s\":\"number\",\"io_wait_s\":\"number\"}\n");
  std::string json;
  for (bool write : {true, false}) {
    for (int windows : {1, 2, 4, 8}) {
      double base = 0;
      for (int depth : {0, 2, 4}) {
        const Point p = run_point(write, windows, depth);
        if (depth == 0) base = p.mbps_pp();
        const double speedup = base > 0 ? p.mbps_pp() / base : 0.0;
        table.add_row({write ? "write" : "read", strprintf("%d", windows),
                       strprintf("%d", depth), fmt_mbps(p.mbps_pp()),
                       strprintf("%.2fx", speedup),
                       strprintf("%.2f", p.overlap_s * 1e3),
                       strprintf("%.2f", p.io_wait_s * 1e3)});
        json += strprintf(
            "json:{\"bench\":\"ablation_pipeline\",\"op\":\"%s\","
            "\"windows_per_iop\":%d,\"depth\":%d,\"mbps_pp\":%.3f,"
            "\"speedup_vs_serial\":%.3f,\"overlap_s\":%.6f,"
            "\"io_wait_s\":%.6f}\n",
            write ? "write" : "read", windows, depth, p.mbps_pp(), speedup,
            p.overlap_s, p.io_wait_s);
      }
    }
  }
  table.print("pipelined window loop vs serial (higher MB/s is better)");
  // Disabled-probe overhead guard.  ~1-2 ns is typical; the 250 ns budget
  // only trips on a structural regression, not scheduler noise.  At the
  // observed span density (tens of probes per window) that bounds the
  // llio_trace=off overhead well under 1% of any measured op above.
  const double probe_ns = measure_probe_ns();
  std::printf("trace-off probe cost: %.1f ns/span (budget 250 ns)\n",
              probe_ns);
  json += strprintf(
      "json:{\"bench\":\"ablation_pipeline\",\"probe_ns\":%.2f}\n", probe_ns);
  std::printf("%s", json.c_str());
  if (probe_ns > 250.0) {
    std::fprintf(stderr,
                 "FAIL: disabled trace probe costs %.1f ns/span (> 250)\n",
                 probe_ns);
    return 1;
  }
  return 0;
}
