// Bench: async queue-depth POSIX backend and layout-aware striping.
//
// The paper measures listless I/O against a real parallel file system;
// this bench probes the storage-side half of that story on commodity
// hardware.  Three sections:
//
//   A (qd)      queue-depth sweep {1,2,4,8} of a collective write whose
//               two-phase exchange is disabled (romio_cb_write=disable,
//               romio_ds_write=disable), so every rank issues direct
//               vectored writes with one file-contiguous group per
//               stride block — the access shape where keeping several
//               operations in flight pays.  Targets:
//                 throttled  AsyncQdFile over a 150us-latency cost model
//                            (deterministic: queue depth overlaps the
//                            fixed per-op latency; the CI gate reads
//                            this target),
//                 tmpfs      PosixFile scratch file in /dev/shm,
//                 dir        PosixFile scratch file in
//                            $LLIO_BENCH_POSIX_DIR (default /tmp);
//                            both built from the backend spec
//                            posix:<dir>,qd=N, i.e. an AsyncQdFile of
//                            depth N over the file when N > 1.
//               The qd=1 row runs the identical per-group decomposition
//               serially, so the sweep varies concurrency only.
//   B (direct)  O_DIRECT off/on under an AsyncQdFile of depth 4 on the
//               `dir` target with an unaligned block size (Sblock=10000),
//               exercising the alignment-aware read-modify-write at
//               block edges.
//               `direct_active` reports whether the file system actually
//               honored O_DIRECT (tmpfs does not; rows stay honest).
//   C (rotate)  FFS cylinder-group rotation off/on for a striped target:
//               4 exclusive 400 MB/s devices, stripe = collective window
//               = 256 KiB, P=4.  Without rotation every IOP's k-th
//               window lands on device k%4 in lockstep and the exclusive
//               devices serialize; with rotation row r starts on device
//               r%4 and the four IOP streams fan out cleanly.  The
//               striped file walks its devices synchronously (qd 1):
//               each window maps to one device, so there is nothing
//               for a queue depth to overlap.
//
// Scale knobs: LLIO_BENCH_TARGET_KB, LLIO_BENCH_MIN_SECONDS,
// LLIO_BENCH_POSIX_DIR; --quick shrinks the sweep for CI.
#include <cstring>

#include "bench_common.hpp"
#include "pfs/async_io.hpp"
#include "pfs/striped_file.hpp"
#include "pfs/throttled_file.hpp"

using namespace llio;
using namespace llio::bench;

namespace {

const char* kSchema =
    "json-schema:{\"bench\":\"string\",\"section\":\"string\","
    "\"target\":\"string\",\"qd\":\"int\",\"direct\":\"bool\","
    "\"direct_active\":\"bool\",\"rotate\":\"bool\","
    "\"mbps_pp\":\"number\",\"speedup\":\"number\",\"repeats\":\"int\"}\n";

std::string json_row(const char* section, const std::string& target, int qd,
                     bool direct, bool direct_active, bool rotate,
                     double mbps, double speedup, int repeats) {
  return strprintf(
      "json:{\"bench\":\"posix\",\"section\":\"%s\",\"target\":\"%s\","
      "\"qd\":%d,\"direct\":%s,\"direct_active\":%s,\"rotate\":%s,"
      "\"mbps_pp\":%.3f,\"speedup\":%.2f,\"repeats\":%d}\n",
      section, target.c_str(), qd, direct ? "true" : "false",
      direct_active ? "true" : "false", rotate ? "true" : "false", mbps,
      speedup, repeats);
}

/// The direct-access collective write every section-A/B point runs: the
/// two-phase exchange and data sieving are off, so each rank's
/// write_at_all degrades to direct vectored writes whose batches hold
/// one file-contiguous group per stride block.
NoncontigConfig direct_write_point(int nprocs, Off nblock, Off sblock,
                                   Off target, double min_s) {
  NoncontigConfig cfg;
  cfg.method = mpiio::Method::Listless;
  cfg.nprocs = nprocs;
  cfg.nblock = nblock;
  cfg.sblock = sblock;
  cfg.collective = true;
  cfg.write = true;
  cfg.target_bytes_pp = target;
  cfg.min_seconds = min_s;
  cfg.hints.set("romio_cb_write", "disable");
  cfg.hints.set("romio_ds_write", "disable");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const Off target =
      env_off("LLIO_BENCH_TARGET_KB", quick ? 256 : 512) * 1024;
  const double min_s = env_double("LLIO_BENCH_MIN_SECONDS", quick ? 0.02 : 0.1);
  const std::string posix_dir = env_str("LLIO_BENCH_POSIX_DIR", "/tmp");

  std::printf("%s", kSchema);
  std::string json;

  // ---- Section A: queue-depth sweep ------------------------------------
  const std::vector<int> qds = quick ? std::vector<int>{1, 4}
                                     : std::vector<int>{1, 2, 4, 8};
  const int nprocs = 2;
  const Off nblock = 64, sblock = 8192;
  std::printf(
      "posix A: nc-nc collective write, cb/ds off (direct vectored), "
      "P=%d, Nblock=%lld, Sblock=%lld, qd sweep\n",
      nprocs, (long long)nblock, (long long)sblock);

  Table qd_table({"target", "qd", "MB/s/proc", "speedup", "repeats"});
  struct Target {
    std::string name;
    std::string backend;  ///< llio_backend spec; empty = make_backend
  };
  std::vector<Target> targets = {{"throttled", ""},
                                 {"tmpfs", "posix:/dev/shm"},
                                 {"dir", "posix:" + posix_dir}};
  if (posix_dir == "/dev/shm") targets.pop_back();  // same mount twice

  for (const Target& t : targets) {
    double base_mbps = 0;
    for (int qd : qds) {
      NoncontigConfig cfg =
          direct_write_point(nprocs, nblock, sblock, target, min_s);
      if (t.backend.empty()) {
        // Deterministic fallback target: fixed 150us per op, bandwidth
        // high enough that latency dominates; queue depth is the only
        // thing that can overlap it.
        cfg.make_backend = [qd] {
          pfs::ThrottleConfig tc;
          tc.read_bandwidth_bps = tc.write_bandwidth_bps = 4.0e9;
          tc.op_latency_s = 150e-6;
          return pfs::AsyncQdFile::wrap(
              pfs::ThrottledFile::wrap(pfs::MemFile::create(), tc), qd);
        };
      } else {
        cfg.hints.set("llio_backend",
                      strprintf("%s,qd=%d", t.backend.c_str(), qd));
      }
      const BenchPoint p = run_noncontig(cfg);
      if (qd == qds.front()) base_mbps = p.mbps_pp();
      const double speedup = base_mbps > 0 ? p.mbps_pp() / base_mbps : 0.0;
      qd_table.add_row({t.name, strprintf("%d", qd), fmt_mbps(p.mbps_pp()),
                        strprintf("%.2fx", speedup),
                        strprintf("%d", p.repeats)});
      json += json_row("qd", t.name, qd, false, false, false, p.mbps_pp(),
                       speedup, p.repeats);
    }
  }
  qd_table.print("queue-depth sweep [per-process bandwidth]");

  // ---- Section B: O_DIRECT off/on --------------------------------------
  // Unaligned block size: every write group starts and ends mid-block,
  // so the direct path pays its edge read-modify-write.
  std::printf(
      "\nposix B: same write shape, Sblock=10000 (unaligned), qd=4, "
      "O_DIRECT off/on in %s\n",
      posix_dir.c_str());
  Table d_table({"direct", "active", "MB/s/proc", "speedup", "repeats"});
  double d_base = 0;
  for (int direct = 0; direct <= 1; ++direct) {
    NoncontigConfig cfg = direct_write_point(nprocs, nblock, 10000, target,
                                             min_s);
    std::shared_ptr<pfs::PosixFile> handle;
    cfg.make_backend = [&] {
      pfs::PosixConfig pc;
      pc.direct = direct != 0;
      handle = pfs::PosixFile::open_temp(posix_dir, pc);
      return pfs::AsyncQdFile::wrap(handle, 4);
    };
    const BenchPoint p = run_noncontig(cfg);
    const bool active = handle && handle->direct_active();
    if (direct == 0) d_base = p.mbps_pp();
    const double speedup = d_base > 0 ? p.mbps_pp() / d_base : 0.0;
    d_table.add_row({direct ? "on" : "off", active ? "yes" : "no",
                     fmt_mbps(p.mbps_pp()), strprintf("%.2fx", speedup),
                     strprintf("%d", p.repeats)});
    json += json_row("direct", "dir", 4, direct != 0, active, false,
                     p.mbps_pp(), speedup, p.repeats);
  }
  d_table.print("O_DIRECT with edge RMW [per-process bandwidth]");

  // ---- Section C: stripe rotation --------------------------------------
  const int rp = 4;                 // ranks = IOPs = devices
  const Off stripe = Off{256} << 10;  // stripe unit = collective window
  const Off rn = quick ? 64 : 128, rs = 8192;
  std::printf(
      "\nposix C: nc-nc collective write, two-phase on, P=%d over %d "
      "exclusive 400 MB/s devices, stripe = window = 256 KiB, rotation "
      "off/on\n",
      rp, rp);
  Table r_table({"rotate", "MB/s/proc", "speedup", "repeats"});
  double r_base = 0;
  for (int rotate = 0; rotate <= 1; ++rotate) {
    NoncontigConfig cfg;
    cfg.method = mpiio::Method::Listless;
    cfg.nprocs = rp;
    cfg.nblock = rn;
    cfg.sblock = rs;
    cfg.collective = true;
    cfg.write = true;
    cfg.target_bytes_pp = rn * rs;  // one instance: fixed window layout
    cfg.min_seconds = min_s;
    cfg.hints.set("cb_buffer_size", strprintf("%lld", (long long)stripe));
    cfg.make_backend = [&] {
      std::vector<pfs::FilePtr> devs;
      for (int d = 0; d < rp; ++d) {
        pfs::ThrottleConfig tc;
        tc.read_bandwidth_bps = tc.write_bandwidth_bps = 400e6;
        tc.exclusive_device = true;
        devs.push_back(pfs::ThrottledFile::wrap(pfs::MemFile::create(), tc));
      }
      pfs::StripeLayout layout;
      layout.rotate = rotate != 0;
      return pfs::StripedFile::create(std::move(devs), stripe, layout);
    };
    const BenchPoint p = run_noncontig(cfg);
    if (rotate == 0) r_base = p.mbps_pp();
    const double speedup = r_base > 0 ? p.mbps_pp() / r_base : 0.0;
    r_table.add_row({rotate ? "on" : "off", fmt_mbps(p.mbps_pp()),
                     strprintf("%.2fx", speedup),
                     strprintf("%d", p.repeats)});
    json += json_row("rotate", "striped", 1, false, false, rotate != 0,
                     p.mbps_pp(), speedup, p.repeats);
  }
  r_table.print("FFS cylinder-group rotation [per-process bandwidth]");

  std::printf("%s", json.c_str());
  return 0;
}
