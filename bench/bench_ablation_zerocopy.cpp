// Ablation: zero-copy descriptor I/O (llio_zerocopy).
//
// When a collective window is dense and the memtype's run table fits the
// budget, the engines hand PackPlan-derived iovecs over user memory
// straight to FileBackend::pwritev instead of staging the window through
// the pack buffer — the pack -> wire -> storage pipeline loses its one
// remaining memcpy.  With long file runs the IOP does the same for its
// windows: one pwritev of the peers' received bytes (a direct window),
// no window buffer and no scatter copy.  Three workloads bound the
// effect:
//
//   dense       - per-rank contiguous disjoint file extents with a
//                 noncontig memtype (64 KiB memory runs): the mergeview
//                 bypass triggers and auto replaces the staged
//                 pack+pwrite with one pwritev of user-memory runs per
//                 window.
//   holey       - the paper's interleaved noncontig fileview (dense
//                 memtype, 64 KiB blocks, 4 ranks): the two-phase
//                 exchange stays; auto gathers payloads onto the wire
//                 from user memory and the IOP windows go direct.
//   interleaved - the Fig 4 vector on both sides (4 KiB blocks, 3 ranks,
//                 so file domains do not align with the rank round):
//                 the dense bypass cannot apply, and direct windows of
//                 64 runs each replace the IOP's staging.
//
// Backends: plain MemFile (pure memcpy savings), a throttled device
// (512 MB/s + 50 us: storage time dominates, savings shrink), and the
// psrv file-server pool (wire gather replaces request staging).
//
// Output: aligned table + json: lines (schema in a json-schema: line),
// gated in CI by tools/check_zerocopy.py.  --quick shrinks the payload
// for the CI perf-smoke job.
#include "bench_common.hpp"
#include "pfs/throttled_file.hpp"

using namespace llio;
using namespace llio::bench;

namespace {

constexpr int kProcs = 4;
constexpr int kTrials = 5;  ///< alternating off/auto rounds per row

/// Ranks of a workload: the interleaved one runs on 3.
int procs_of(const std::string& workload) {
  return workload == "interleaved" ? 3 : kProcs;
}

struct Point {
  double seconds = 0;  // per op, max across ranks
  Off bytes_pp = 0;
  std::uint64_t zc_windows = 0;   // summed over ranks, last op
  std::uint64_t zc_fallback = 0;
  std::uint64_t iov_runs = 0;
  Off saved = 0;

  double mbps_pp() const {
    return seconds > 0
               ? static_cast<double>(bytes_pp) / seconds / (1024.0 * 1024.0)
               : 0.0;
  }
};

pfs::FilePtr make_point_backend(const std::string& backend) {
  if (backend == "mem") return pfs::MemFile::create();
  if (backend == "throttled") {
    pfs::ThrottleConfig cfg;
    cfg.read_bandwidth_bps = 512e6;
    cfg.write_bandwidth_bps = 512e6;
    cfg.op_latency_s = 50e-6;
    return pfs::ThrottledFile::wrap(pfs::MemFile::create(), cfg);
  }
  psrv::PoolConfig pc;
  pc.nservers = 4;
  return psrv::ServerFile::create(psrv::ServerPool::create(std::move(pc)),
                                  psrv::RequestClass::List);
}

Point run_point(const std::string& workload, const std::string& backend,
                mpiio::Zerocopy zc, Off nblock, Off sblock,
                double min_seconds) {
  auto fs = make_point_backend(backend);
  const Off bytes_pp = nblock * sblock;

  std::atomic<long> time_ns{0};
  std::atomic<std::uint64_t> zc_windows{0}, zc_fallback{0}, iov_runs{0};
  std::atomic<Off> saved{0};

  sim::Runtime::run(procs_of(workload), [&](sim::Comm& comm) {
    mpiio::Options o;
    o.method = mpiio::Method::Listless;
    o.zerocopy = zc;
    o.file_buffer_size = 256 << 10;
    mpiio::File f = mpiio::File::open(comm, fs, o);

    ByteVec storage;
    const void* buf = nullptr;
    Off count = 0;
    dt::Type mt;
    if (workload == "dense") {
      // Rank-contiguous file extents; strided user memory (the paper's
      // noncontig memtype): sblock-byte runs at 2x stride.
      f.set_view(Off{comm.rank()} * bytes_pp, dt::byte(), dt::byte());
      mt = noncontig_memtype(nblock, sblock);
      storage.assign(to_size(2 * bytes_pp), Byte{0x5A});
      buf = storage.data();
      count = 1;
    } else if (workload == "interleaved") {
      // Fig 4 nc-nc: interleaved fileview, strided user memory.
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, comm.size(), comm.rank()));
      mt = noncontig_memtype(nblock, sblock);
      storage.assign(to_size(2 * bytes_pp), Byte{0x3C});
      buf = storage.data();
      count = 1;
    } else {
      // Interleaved noncontig fileview, dense memory.
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, kProcs, comm.rank()));
      mt = dt::byte();
      storage.assign(to_size(bytes_pp), Byte{0xA5});
      buf = storage.data();
      count = bytes_pp;
    }
    auto one_op = [&] { f.write_at_all(0, buf, count, mt); };

    one_op();  // warm-up (sizes the file, compiles plans, warms caches)
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
    zc_windows.fetch_add(f.last_stats().zerocopy_windows);
    zc_fallback.fetch_add(f.last_stats().staged_fallback_windows);
    iov_runs.fetch_add(f.last_stats().iov_runs);
    saved.fetch_add(f.last_stats().staging_bytes_saved);
  });

  Point p;
  p.seconds = static_cast<double>(time_ns.load()) / 1e9;
  p.bytes_pp = bytes_pp;
  p.zc_windows = zc_windows.load();
  p.zc_fallback = zc_fallback.load();
  p.iov_runs = iov_runs.load();
  p.saved = saved.load();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  const Off sblock = env_off("LLIO_BENCH_SBLOCK", 64 << 10);
  const Off nblock =
      env_off("LLIO_BENCH_NBLOCK", quick ? 16 : 64);
  // The interleaved workload moves the same bytes per rank in 4 KiB blocks.
  const Off il_sblock = 4 << 10;
  const Off il_nblock = nblock * sblock / il_sblock;
  const double min_seconds =
      env_double("LLIO_BENCH_MIN_SECONDS", quick ? 0.05 : 0.15);

  std::printf(
      "ablation: zero-copy descriptor I/O (listless, P=%d, %lld x %lld KiB "
      "runs = %lld MiB/proc/op; interleaved: P=3, %lld x %lld KiB%s)\n",
      kProcs, static_cast<long long>(nblock),
      static_cast<long long>(sblock >> 10),
      static_cast<long long>((nblock * sblock) >> 20),
      static_cast<long long>(il_nblock),
      static_cast<long long>(il_sblock >> 10), quick ? ", quick" : "");
  Table table({"backend", "workload", "zerocopy", "MB/s/proc", "speedup",
               "zc windows", "fallback", "iov runs", "saved [MiB]"});
  std::printf(
      "json-schema:{\"bench\":\"string\",\"backend\":\"string\","
      "\"workload\":\"string\",\"zerocopy\":\"string\",\"mbps_pp\":\"number\","
      "\"speedup_vs_staged\":\"number\",\"zerocopy_windows\":\"int\","
      "\"staged_fallback_windows\":\"int\",\"iov_runs\":\"int\","
      "\"staging_bytes_saved\":\"int\"}\n");
  std::string json;
  for (const char* backend : {"mem", "throttled", "psrv"}) {
    for (const char* workload : {"dense", "holey", "interleaved"}) {
      const bool il = std::string(workload) == "interleaved";
      const mpiio::Zerocopy modes[] = {mpiio::Zerocopy::Off,
                                       mpiio::Zerocopy::Auto};
      // Off and auto alternate for kTrials rounds and each keeps its best
      // round, so a slow phase of a shared host hits both alike.
      Point best[2];
      for (int trial = 0; trial < kTrials; ++trial)
        for (int m = 0; m < 2; ++m) {
          const Point p = run_point(workload, backend, modes[m],
                                    il ? il_nblock : nblock,
                                    il ? il_sblock : sblock, min_seconds);
          if (trial == 0 || p.mbps_pp() > best[m].mbps_pp()) best[m] = p;
        }
      const double base = best[0].mbps_pp();
      for (int m = 0; m < 2; ++m) {
        const mpiio::Zerocopy zc = modes[m];
        const Point& p = best[m];
        const double speedup = base > 0 ? p.mbps_pp() / base : 0.0;
        const char* zname = mpiio::zerocopy_name(zc);
        table.add_row(
            {backend, workload, zname, fmt_mbps(p.mbps_pp()),
             strprintf("%.2fx", speedup),
             strprintf("%llu", static_cast<unsigned long long>(p.zc_windows)),
             strprintf("%llu", static_cast<unsigned long long>(p.zc_fallback)),
             strprintf("%llu", static_cast<unsigned long long>(p.iov_runs)),
             strprintf("%.1f", static_cast<double>(p.saved) / (1 << 20))});
        json += strprintf(
            "json:{\"bench\":\"ablation_zerocopy\",\"backend\":\"%s\","
            "\"workload\":\"%s\",\"zerocopy\":\"%s\",\"mbps_pp\":%.3f,"
            "\"speedup_vs_staged\":%.3f,\"zerocopy_windows\":%llu,"
            "\"staged_fallback_windows\":%llu,\"iov_runs\":%llu,"
            "\"staging_bytes_saved\":%lld}\n",
            backend, workload, zname, p.mbps_pp(), speedup,
            static_cast<unsigned long long>(p.zc_windows),
            static_cast<unsigned long long>(p.zc_fallback),
            static_cast<unsigned long long>(p.iov_runs),
            static_cast<long long>(p.saved));
      }
    }
  }
  table.print(
      "dense windows skip the staging memcpy via user-memory iovecs "
      "(higher MB/s is better)");
  std::printf("%s", json.c_str());
  return 0;
}
