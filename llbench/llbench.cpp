// llbench: the llio benchmark program.
//
//   llbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-file PATH] [--untraced-ms MS]
//
// Runs one named workload in this process through the public API only
// (mpiio::File, pfs::FileBackend, sim::Runtime, psrv::ServerPool, fotf,
// dtype).  Each rank thread runs a closed loop with no think time: write
// its region, read it back, check the read against what it wrote.  The
// seed sets the buffer contents, and every iteration changes every data
// byte.  After the loop the file image is checked against an image the
// benchmark builds on its own from the workload's geometry.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
// traced and prints the per-layer metrics; --untraced-ms gives it the
// write+read p50 of an untraced run (made in another process) to report
// the tracing overhead against.  The measured loop is always the first
// thing a process runs: glibc's allocator settles into a state that
// depends on the threads that ran before, and the list-based engine's
// op time swings with that state.  Either way the last line of stdout is
// one JSON object with the keys correct, attempted, failed and metrics.
// README.md defines every metric and workload.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtype/datatype.hpp"
#include "dtype/flatten.hpp"
#include "fotf/pack.hpp"
#include "mpiio/file.hpp"
#include "pfs/mem_file.hpp"
#include "probe.hpp"
#include "psrv/server_file.hpp"
#include "psrv/server_pool.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace llio;
using llbench::CountingFile;
using llbench::now_ns;
using llbench::Span;
using llbench::SpanLog;
using llbench::StorageProbe;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupRuns = 7;  // setup_s is the median of this many

// ---- workloads -----------------------------------------------------------

/// A contiguous byte run: `len` bytes at offset `off`.
struct Run {
  Off off = 0;
  Off len = 0;
};

struct Workload {
  std::string name;
  mpiio::Method method = mpiio::Method::Listless;
  int ranks = 1;
  int servers = 0;  ///< 0: one shared pfs::MemFile; > 0: psrv pool, view
                    ///< requests
  bool collective = true;
  dt::Type etype;
  std::function<dt::Type(int rank)> filetype;
  dt::Type memtype;
  Off count = 1;       ///< memtype instances per op
  Off buf_bytes = 0;   ///< user buffer extent per rank
  Off bytes_pp = 0;    ///< user bytes per rank per op
  Off file_bytes = 0;  ///< size of the file image
  /// Data bytes of a user buffer, in stream order.  Computed by the
  /// benchmark from the geometry, not by the library.
  std::vector<Run> mem_runs;
  /// File bytes of rank r's view, in stream order (same origin).
  std::function<std::vector<Run>(int rank)> file_runs;
};

/// The paper's Fig 4 nc-nc pattern: each rank's fileview is a vector of
/// `nblock` blocks of `sblock` bytes at stride ranks*sblock, displaced by
/// rank*sblock; the memtype has the same blocks at stride 2*sblock.
Workload vector_workload(std::string name, mpiio::Method method, int ranks,
                         int servers, bool collective, Off sblock, Off nblock,
                         Off bytes_pp) {
  const Off inst = bytes_pp / (nblock * sblock);
  const Off nruns = inst * nblock;
  const Off p = ranks;
  Workload w;
  w.name = std::move(name);
  w.method = method;
  w.ranks = ranks;
  w.servers = servers;
  w.collective = collective;
  w.etype = dt::byte();
  w.filetype = [=](int rank) {
    const dt::Type v = dt::hvector(nblock, sblock, p * sblock, dt::byte());
    const Off bls[] = {1};
    const Off ds[] = {Off{rank} * sblock};
    return dt::resized(dt::hindexed(bls, ds, v), 0, nblock * p * sblock);
  };
  w.memtype = dt::resized(dt::hvector(nblock, sblock, 2 * sblock, dt::byte()),
                          0, 2 * nblock * sblock);
  w.count = inst;
  w.buf_bytes = 2 * nruns * sblock;
  w.bytes_pp = nruns * sblock;
  w.file_bytes = nruns * p * sblock;
  for (Off i = 0; i < nruns; ++i) w.mem_runs.push_back({2 * sblock * i, sblock});
  w.file_runs = [=](int rank) {
    std::vector<Run> runs;
    runs.reserve(to_size(nruns));
    for (Off i = 0; i < nruns; ++i)
      runs.push_back({i * p * sblock + Off{rank} * sblock, sblock});
    return runs;
  };
  return w;
}

/// BTIO-shaped checkpoint: a g^3 array of doubles (C order) split along
/// the middle axis over `ranks`; the memtype is the interior of a local
/// array padded by `ghost` cells on every side.
Workload tiles_workload(std::string name, int ranks, Off g, Off ghost) {
  const Off y = g / ranks;
  const Off e = 8;
  const Off py = y + 2 * ghost, px = g + 2 * ghost, pz = g + 2 * ghost;
  Workload w;
  w.name = std::move(name);
  w.ranks = ranks;
  w.etype = dt::double_();
  w.filetype = [=](int rank) {
    const Off sizes[] = {g, g, g};
    const Off sub[] = {g, y, g};
    const Off starts[] = {0, Off{rank} * y, 0};
    return dt::subarray(sizes, sub, starts, dt::Order::C, dt::double_());
  };
  {
    const Off sizes[] = {pz, py, px};
    const Off sub[] = {g, y, g};
    const Off starts[] = {ghost, ghost, ghost};
    w.memtype = dt::subarray(sizes, sub, starts, dt::Order::C, dt::double_());
  }
  w.count = 1;
  w.buf_bytes = pz * py * px * e;
  w.bytes_pp = g * y * g * e;
  w.file_bytes = g * g * g * e;
  for (Off z = 0; z < g; ++z)
    for (Off r = 0; r < y; ++r)
      w.mem_runs.push_back(
          {(((z + ghost) * py + r + ghost) * px + ghost) * e, g * e});
  w.file_runs = [=](int rank) {
    std::vector<Run> runs;
    for (Off z = 0; z < g; ++z)
      runs.push_back({(z * g * g + Off{rank} * y * g) * e, y * g * e});
    return runs;
  };
  return w;
}

std::optional<Workload> make_workload(const std::string& name) {
  using mpiio::Method;
  if (name == "coll-fine")
    return vector_workload(name, Method::Listless, 3, 0, true, 8, 4096,
                           1 << 20);
  if (name == "coll-fine-list")
    return vector_workload(name, Method::ListBased, 3, 0, true, 8, 4096,
                           1 << 20);
  if (name == "tiles-ckpt") return tiles_workload(name, 3, 120, 2);
  if (name == "indep-psrv")
    return vector_workload(name, Method::Listless, 2, 2, false, 64, 1024,
                           1 << 20);
  return std::nullopt;
}

// ---- buffers -------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void xor_runs(Byte* buf, const std::vector<Run>& runs, std::uint8_t d) {
  std::uint64_t d8 = 0;
  std::memset(&d8, d, sizeof d8);
  for (const Run& r : runs) {
    Byte* p = buf + r.off;
    Off j = 0;
    for (; j + 8 <= r.len; j += 8) {
      std::uint64_t v;
      std::memcpy(&v, p + j, 8);
      v ^= d8;
      std::memcpy(p + j, &v, 8);
    }
    for (; j < r.len; ++j) p[j] ^= Byte{d};
  }
}

/// The byte every data byte is XORed with in iteration `it`: never 0 and
/// never equal for consecutive iterations, so each write changes every
/// data byte and a read that misses a byte is always caught.
std::uint8_t iter_mask(std::int64_t it) {
  return static_cast<std::uint8_t>(it % 255 + 1);
}

/// One rank's write buffer `w` and read buffer `r`.  Gap bytes are zero
/// in both and never change, so a correct read leaves r == w exactly.
struct RankBuffers {
  const Workload& wl;
  ByteVec w, r;
  std::int64_t it = 0;

  RankBuffers(const Workload& workload, std::uint64_t seed, int rank)
      : wl(workload), w(to_size(workload.buf_bytes), Byte{0}) {
    std::uint64_t s = seed * std::uint64_t{0x100000001b3} +
                      static_cast<std::uint64_t>(rank);
    for (const Run& run : wl.mem_runs)
      for (Off j = 0; j < run.len; j += 8) {
        const std::uint64_t v = splitmix64(s);
        std::memcpy(w.data() + run.off + j, &v,
                    to_size(std::min<Off>(8, run.len - j)));
      }
    xor_runs(w.data(), wl.mem_runs, iter_mask(0));
    r = w;
    xor_runs(r.data(), wl.mem_runs, 0xff);
  }

  void advance() {
    xor_runs(w.data(), wl.mem_runs,
             static_cast<std::uint8_t>(iter_mask(it) ^ iter_mask(it + 1)));
    ++it;
  }

  bool read_matches() const {
    return std::memcmp(w.data(), r.data(), w.size()) == 0;
  }
};

/// Copy the stream bytes of `src` (at `mem` runs) to `dst` (at `file`
/// runs); both run lists must cover the same number of bytes.
void scatter_stream(const Byte* src, const std::vector<Run>& mem, Byte* dst,
                    const std::vector<Run>& file) {
  std::size_t mi = 0, fi = 0;
  Off mo = 0, fo = 0;
  while (mi < mem.size() && fi < file.size()) {
    const Off n = std::min(mem[mi].len - mo, file[fi].len - fo);
    std::memcpy(dst + file[fi].off + fo, src + mem[mi].off + mo, to_size(n));
    mo += n;
    fo += n;
    if (mo == mem[mi].len) ++mi, mo = 0;
    if (fo == file[fi].len) ++fi, fo = 0;
  }
}

// ---- CPU placement -------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(static_cast<int>(c));
  return out;
}

/// One core per rank thread, leaving the first allowed core free when
/// there are more cores than ranks.  Empty, so nothing is pinned, when the
/// cores do not suffice or when psrv server threads run too: those cannot
/// be pinned one by one from outside the pool, and with only the ranks
/// pinned every client/server hand-off crossed cores, which doubled
/// indep-psrv's op time (1.35 vs 0.70 ms) and made it vary more.
std::vector<int> rank_cpus(const Workload& wl, int ncpus,
                           const std::vector<int>& cpus) {
  if (wl.servers > 0 || wl.ranks > ncpus) return {};
  const std::size_t first = ncpus > wl.ranks ? 1 : 0;
  return {cpus.begin() + static_cast<std::ptrdiff_t>(first),
          cpus.begin() + static_cast<std::ptrdiff_t>(first) + wl.ranks};
}

/// Pin the calling rank thread to its core, if the plan has one.
void pin_rank(const std::vector<int>& plan, int rank) {
  if (plan.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(plan[static_cast<std::size_t>(rank)]), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// ---- backends ------------------------------------------------------------

struct Observer {
  StorageProbe probe;
  SpanLog log;
  explicit Observer(int nslots) : probe(nslots) {}
};

struct Backend {
  pfs::FilePtr file;
  std::shared_ptr<psrv::ServerPool> pool;  ///< null unless psrv
};

/// A fresh backend for one run.  With an observer, storage is wrapped in
/// CountingFile: the shared file itself, or every psrv shard.
Backend make_backend(const Workload& wl, Observer* obs) {
  Backend b;
  if (wl.servers == 0) {
    b.file = pfs::MemFile::create();
    if (obs != nullptr)
      b.file = std::make_shared<CountingFile>(b.file, obs->probe, obs->log);
    return b;
  }
  psrv::PoolConfig pc;
  pc.nservers = wl.servers;
  pc.capacity = wl.file_bytes;  // spread the file over every server
  if (obs != nullptr)
    pc.make_shard = [obs](int s) -> pfs::FilePtr {
      return std::make_shared<CountingFile>(pfs::MemFile::create(),
                                            obs->probe, obs->log, s);
    };
  b.pool = psrv::ServerPool::create(std::move(pc));
  b.file = psrv::ServerFile::create(b.pool, psrv::RequestClass::View);
  return b;
}

mpiio::File open_file(sim::Comm& comm, const Workload& wl,
                      const pfs::FilePtr& file) {
  mpiio::Options o;
  o.method = wl.method;
  mpiio::File f = mpiio::File::open(comm, file, o);
  f.set_view(0, wl.etype, wl.filetype(comm.rank()));
  return f;
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- setup ---------------------------------------------------------------

struct Tally {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};
};

/// One timed setup: backend creation, then File::open, set_view and the
/// first write+read on every rank.  Buffer preparation and thread start
/// are not timed.  Returns seconds.
double time_setup(const Workload& wl, std::uint64_t seed, const std::vector<int>& cpus,
                  Tally& tally) {
  const std::int64_t t0 = now_ns();
  Backend b = make_backend(wl, nullptr);
  const std::int64_t create_ns = now_ns() - t0;
  std::atomic<std::int64_t> ranks_ns{0};
  sim::Runtime::run(wl.ranks, [&](sim::Comm& comm) {
    pin_rank(cpus, comm.rank());
    RankBuffers buf(wl, seed, comm.rank());
    comm.barrier();
    const std::int64_t s0 = now_ns();
    mpiio::File f = open_file(comm, wl, b.file);
    if (wl.collective) {
      f.write_at_all(0, buf.w.data(), wl.count, wl.memtype);
      f.read_at_all(0, buf.r.data(), wl.count, wl.memtype);
    } else {
      f.write_at(0, buf.w.data(), wl.count, wl.memtype);
      f.read_at(0, buf.r.data(), wl.count, wl.memtype);
    }
    const std::int64_t d = now_ns() - s0;
    std::int64_t prev = ranks_ns.load();
    while (prev < d && !ranks_ns.compare_exchange_weak(prev, d)) {
    }
    tally.attempted += 2;
    if (!buf.read_matches()) tally.failed += 1;
  });
  return seconds_of(create_ns + ranks_ns.load());
}

// ---- measured run --------------------------------------------------------

struct Usage {
  double user_s = 0, sys_s = 0;
  double minflt = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime), static_cast<double>(ru.ru_minflt)};
}

/// Counters read by rank 0 right before and right after the measured loop
/// (every rank is parked at a barrier meanwhile).
struct Snapshot {
  Usage usage;
  psrv::ServerStats server;
  sim::CommStats wire;
  std::vector<llbench::SlotTraffic> storage;
};

Snapshot snapshot(const Backend& b, const Observer* obs) {
  Snapshot s;
  s.usage = usage_now();
  if (b.pool) {
    s.server = b.pool->total_server_stats();
    s.wire = b.pool->wire_stats();
  }
  if (obs != nullptr) s.storage = obs->probe.snapshot();
  return s;
}

struct RankLog {
  std::vector<double> write_s, read_s;       ///< per measured iteration
  std::vector<mpiio::IoOpStats> write_stats;  ///< traced run only
  std::vector<mpiio::IoOpStats> read_stats;
  ByteVec final_w;
};

struct Measured {
  std::vector<RankLog> ranks;
  std::int64_t iters = 0;  ///< measured iterations per rank
  Snapshot before, after;
  sim::CommStats comm;  ///< all ranks' sends during the measured loop
  bool image_ok = false;
};


/// Warm up for a while, then run a closed loop for about `seconds`.  The
/// iteration count is agreed on before the loop, so the loop itself runs
/// no collective of the benchmark's own.
Measured measure(const Workload& wl, std::uint64_t seed, const std::vector<int>& cpus,
                 double seconds, Observer* obs, Tally& tally) {
  Measured m;
  m.ranks.resize(to_size(wl.ranks));
  const double warm_s = std::clamp(0.15 * seconds, 0.5, 2.0);
  Backend b = make_backend(wl, obs);

  sim::Runtime::run(wl.ranks, [&](sim::Comm& comm) {
    const int rank = comm.rank();
    llbench::tl_rank = rank;
    pin_rank(cpus, rank);
    RankLog& log = m.ranks[to_size(rank)];
    RankBuffers buf(wl, seed, rank);
    mpiio::File f = open_file(comm, wl, b.file);
    const char* wname = wl.collective ? "mpiio.write_at_all" : "mpiio.write_at";
    const char* rname = wl.collective ? "mpiio.read_at_all" : "mpiio.read_at";

    // One closed-loop iteration: change the data, write, read, check.
    // Returns its wall time in ns.
    std::int64_t op_id = 0;
    auto iterate = [&](bool record) {
      const std::int64_t start = now_ns();
      buf.advance();
      llbench::tl_op = op_id;
      const std::int64_t w0 = now_ns();
      if (wl.collective)
        f.write_at_all(0, buf.w.data(), wl.count, wl.memtype);
      else
        f.write_at(0, buf.w.data(), wl.count, wl.memtype);
      const std::int64_t w1 = now_ns();
      if (record && obs != nullptr) log.write_stats.push_back(f.last_stats());
      llbench::tl_op = op_id + 1;
      const std::int64_t r0 = now_ns();
      if (wl.collective)
        f.read_at_all(0, buf.r.data(), wl.count, wl.memtype);
      else
        f.read_at(0, buf.r.data(), wl.count, wl.memtype);
      const std::int64_t r1 = now_ns();
      llbench::tl_op = -1;
      if (record) {
        log.write_s.push_back(seconds_of(w1 - w0));
        log.read_s.push_back(seconds_of(r1 - r0));
        if (obs != nullptr) {
          log.read_stats.push_back(f.last_stats());
          obs->log.add({wname, rank, op_id, w0, w1});
          obs->log.add({rname, rank, op_id + 1, r0, r1});
        }
      }
      op_id += 2;
      tally.attempted += 2;
      if (!buf.read_matches()) tally.failed += 1;
      return now_ns() - start;
    };

    // Time-based warm-up: lazy costs (plan compile, fileview caching,
    // file growth, allocator growth) are paid here, not in the loop.
    std::vector<std::int64_t> warm;
    const std::int64_t warm0 = now_ns();
    do {
      warm.push_back(iterate(false));
    } while (comm.allreduce_max(now_ns() - warm0) <
             static_cast<Off>(warm_s * 1e9));
    // Loop length from the later half of the warm-up, which is past the
    // slow first iterations.
    double late_ns = 0;
    for (std::size_t i = warm.size() / 2; i < warm.size(); ++i)
      late_ns += static_cast<double>(warm[i]);
    late_ns /= static_cast<double>(warm.size() - warm.size() / 2);
    const Off iters = comm.allreduce_min(
        std::max<Off>(5, static_cast<Off>(seconds * 1e9 / late_ns)));

    log.write_s.reserve(to_size(iters));
    log.read_s.reserve(to_size(iters));
    if (obs != nullptr) {
      log.write_stats.reserve(to_size(iters));
      log.read_stats.reserve(to_size(iters));
    }
    comm.barrier();
    comm.reset_stats();
    if (rank == 0) {
      m.iters = iters;
      m.before = snapshot(b, obs);
      if (obs != nullptr) obs->log.set_enabled(true);
    }
    comm.barrier();
    for (Off i = 0; i < iters; ++i) iterate(true);
    comm.barrier();
    if (rank == 0) {
      if (obs != nullptr) obs->log.set_enabled(false);
      m.after = snapshot(b, obs);
    }
    const sim::CommStats cs = comm.global_stats();
    if (rank == 0) m.comm = cs;
    log.final_w = buf.w;
  });

  // The file image must equal what the ranks last wrote, placed by the
  // benchmark's own reading of each fileview.
  ByteVec want(to_size(wl.file_bytes), Byte{0});
  for (int r = 0; r < wl.ranks; ++r)
    scatter_stream(m.ranks[to_size(r)].final_w.data(), wl.mem_runs,
                   want.data(), wl.file_runs(r));
  ByteVec got(want.size(), Byte{0xee});
  const Off n = b.file->size() == wl.file_bytes
                    ? b.file->pread(0, ByteSpan(got.data(), got.size()))
                    : -1;
  m.image_ok = n == wl.file_bytes && got == want;
  return m;
}

// ---- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Op latencies of one direction: a collective op's latency is its
/// slowest rank's call time; independent calls each count on their own.
std::vector<double> latencies(const Measured& m, bool collective, bool write) {
  std::vector<double> out;
  for (Off i = 0; i < m.iters; ++i) {
    double slowest = 0;
    for (const RankLog& r : m.ranks) {
      const double t = (write ? r.write_s : r.read_s)[to_size(i)];
      if (collective)
        slowest = std::max(slowest, t);
      else
        out.push_back(t);
    }
    if (collective) out.push_back(slowest);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Print the latency summary of one direction; returns its p50 in s.
double report_latency(const char* dir, const std::vector<double>& lat,
                      Off bytes_pp) {
  const double p50 = quantile(lat, 0.5), p99 = quantile(lat, 0.99);
  const double mib = static_cast<double>(bytes_pp) / kMiB;
  std::printf(
      "%-5s n=%zu  p50 %.4f ms  p99 %.4f ms%s  mean %.4f ms  "
      "B_pp(p50) %.1f MiB/s  B_pp(mean) %.1f MiB/s\n",
      dir, lat.size(), p50 * 1e3, p99 * 1e3,
      lat.size() >= 1000 ? "" : " (under 10 samples beyond)",
      mean(lat) * 1e3, mib / p50, mib / mean(lat));
  return p50;
}

/// B_pp is taken from the median op latency, not the mean: on a shared
/// host the share of slow outliers changes from process to process, and
/// the mean moved by up to a quarter between runs of the same code.
std::vector<Metric> end_to_end(const Workload& wl, const Measured& m,
                               const std::vector<double>& setups,
                               double peak_rss_mib) {
  const double wp50 =
      report_latency("write", latencies(m, wl.collective, true), wl.bytes_pp);
  const double rp50 =
      report_latency("read", latencies(m, wl.collective, false), wl.bytes_pp);
  const double pp = static_cast<double>(wl.bytes_pp) / kMiB;
  return {
      {"write_mibps_pp", pp / wp50, "MiB/s"},
      {"read_mibps_pp", pp / rp50, "MiB/s"},
      {"write_p50_ms", wp50 * 1e3, "ms"},
      {"read_p50_ms", rp50 * 1e3, "ms"},
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
}

/// Median wall time of `fn` over at least 5 calls and about 0.2 s.
template <class F>
double median_time(SpanLog& log, const char* name, F&& fn) {
  std::vector<double> t;
  const std::int64_t start = now_ns();
  while (t.size() < 5 || (now_ns() - start < 200'000'000 && t.size() < 1000)) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    log.add({name, -1, -1, t0, t1});
    t.push_back(seconds_of(t1 - t0));
  }
  return quantile(t, 0.5);
}

/// Per-layer metrics of the traced run `m`; `untraced_ms` is the write+read
/// p50 of an untraced run of the same workload.
std::vector<Metric> per_layer(const Workload& wl, std::uint64_t seed,
                              double untraced_ms, const Measured& m,
                              Observer& obs) {
  const double ops = 2.0 * static_cast<double>(m.iters);
  const double user_bytes = static_cast<double>(m.iters) * wl.ranks *
                            static_cast<double>(wl.bytes_pp);
  std::vector<Metric> out;

  // mpiio / listio / core: the slowest rank's record of every op.
  double copy = 0, exch = 0, file = 0, pre = 0, build = 0, merge = 0;
  double list_bytes = 0, list_mem = 0, plan_misses = 0, zc = 0;
  double skipped = 0, prereads = 0;
  std::vector<double> attributed;
  for (int dir = 0; dir < 2; ++dir) {
    for (Off i = 0; i < m.iters; ++i) {
      const mpiio::IoOpStats* slow = nullptr;
      double cover = 1e300;
      for (const RankLog& r : m.ranks) {
        const mpiio::IoOpStats& s =
            (dir == 0 ? r.write_stats : r.read_stats)[to_size(i)];
        if (slow == nullptr || s.total_s > slow->total_s) slow = &s;
        const double phases = s.list_build_s + s.copy_s + s.file_s +
                              s.exchange_s + s.io_wait_s + s.merge_analysis_s;
        cover = std::min(cover, s.total_s > 0 ? phases / s.total_s : 0.0);
        list_bytes += static_cast<double>(s.list_bytes_sent);
        list_mem = std::max(list_mem, static_cast<double>(s.list_mem_bytes));
        plan_misses += static_cast<double>(s.plan_misses);
        zc += static_cast<double>(s.zerocopy_windows);
        if (dir == 0) {
          skipped += static_cast<double>(s.preread_skipped_windows);
          prereads += static_cast<double>(s.file_read_ops);
        }
      }
      copy += slow->copy_s;
      exch += slow->exchange_s;
      file += slow->file_s;
      pre += slow->preread_s;
      build += slow->list_build_s;
      merge += slow->merge_analysis_s;
      attributed.push_back(cover);
    }
  }
  out.push_back({"mpiio.copy_ms", copy * 1e3 / ops, "ms"});
  out.push_back({"mpiio.exchange_ms", exch * 1e3 / ops, "ms"});
  out.push_back({"mpiio.file_ms", file * 1e3 / ops, "ms"});
  out.push_back({"mpiio.preread_ms", pre * 1e3 / ops, "ms"});
  out.push_back({"mpiio.attributed_frac", quantile(attributed, 0.5), "ratio"});

  // pfs: the counting decorator, per slot (rank or psrv shard).
  std::vector<double> slot_bytes;
  double calls = 0, rd = 0, wr = 0;
  for (std::size_t s = 0; s < m.after.storage.size(); ++s) {
    const auto& a = m.after.storage[s];
    const auto& b = m.before.storage[s];
    calls += static_cast<double>(a.calls - b.calls);
    rd += static_cast<double>(a.read_bytes - b.read_bytes);
    wr += static_cast<double>(a.write_bytes - b.write_bytes);
    slot_bytes.push_back(static_cast<double>(a.read_bytes - b.read_bytes) +
                         static_cast<double>(a.write_bytes - b.write_bytes));
  }
  const double slot_mean = mean(slot_bytes);
  const std::vector<Span> spans = obs.log.spans();
  double pfs_ms = 0;
  for (const Span& s : spans)
    if (std::strncmp(s.name, "pfs.", 4) == 0) pfs_ms += s.ms();
  out.push_back({"pfs.iop_bytes_imbalance",
                 slot_mean > 0 ? *std::max_element(slot_bytes.begin(),
                                                   slot_bytes.end()) /
                                     slot_mean
                               : 0.0,
                 "ratio"});
  out.push_back({"pfs.calls_per_op", calls / ops, "count"});
  out.push_back({"pfs.busy_ms_per_op", pfs_ms / ops, "ms"});
  out.push_back({"pfs.write_amp", wr / user_bytes, "ratio"});
  out.push_back({"pfs.read_amp", rd / user_bytes, "ratio"});

  // simmpi: every rank's sends during the loop.
  out.push_back({"simmpi.msgs_per_op", static_cast<double>(m.comm.msgs_sent) / ops,
                 "count"});
  out.push_back({"simmpi.data_bytes_per_op",
                 static_cast<double>(m.comm.data_bytes_sent) / ops, "B"});
  out.push_back({"simmpi.meta_bytes_per_op",
                 static_cast<double>(m.comm.meta_bytes_sent) / ops, "B"});

  // fotf and dtype, timed standalone on the workload's own types.
  RankBuffers buf(wl, seed, 0);
  ByteVec packed(to_size(wl.bytes_pp));
  const double gib = static_cast<double>(wl.bytes_pp) / (kMiB * 1024.0);
  obs.log.set_enabled(true);
  const double pack_s = median_time(obs.log, "fotf.ff_pack", [&] {
    fotf::ff_pack(buf.w.data(), wl.count, wl.memtype, 0, packed.data(),
                  wl.bytes_pp);
  });
  const double unpack_s = median_time(obs.log, "fotf.ff_unpack", [&] {
    fotf::ff_unpack(packed.data(), wl.bytes_pp, buf.r.data(), wl.count,
                    wl.memtype, 0);
  });
  const dt::Type ft = wl.filetype(0);
  std::size_t tuples = 0;
  const double flatten_s = median_time(obs.log, "dtype.flatten", [&] {
    tuples = dt::flatten(ft).block_count() * to_size(ceil_div(wl.bytes_pp, dt::size(ft))) +
             dt::flatten(wl.memtype).block_count() * to_size(wl.count);
  });
  obs.log.set_enabled(false);
  out.push_back({"fotf.pack_gibps", gib / pack_s, "GiB/s"});
  out.push_back({"fotf.unpack_gibps", gib / unpack_s, "GiB/s"});
  out.push_back({"fotf.plan_misses_per_op", plan_misses / ops, "count"});
  out.push_back({"dtype.flatten_ms", flatten_s * 1e3, "ms"});
  out.push_back({"dtype.olist_tuples", static_cast<double>(tuples), "count"});

  out.push_back({"listio.list_build_ms", build * 1e3 / ops, "ms"});
  out.push_back({"listio.list_bytes_per_op", list_bytes / ops, "B"});
  out.push_back({"listio.list_mem_mib", list_mem / kMiB, "MiB"});

  out.push_back({"core.preread_skipped_frac",
                 skipped + prereads > 0 ? skipped / (skipped + prereads) : 0.0,
                 "ratio"});
  out.push_back({"core.zerocopy_windows_per_op", zc / ops, "count"});
  out.push_back({"core.merge_analysis_ms", merge * 1e3 / ops, "ms"});

  // psrv: server-side counters and the client/server wire.
  const psrv::ServerStats& sa = m.after.server;
  const psrv::ServerStats& sb = m.before.server;
  out.push_back({"psrv.requests_per_op",
                 static_cast<double>(sa.requests - sb.requests) / ops, "count"});
  out.push_back({"psrv.service_ms_per_op",
                 (sa.service_s - sb.service_s) * 1e3 / ops, "ms"});
  out.push_back({"psrv.queue_wait_ms_per_op",
                 (sa.queue_wait_s - sb.queue_wait_s) * 1e3 / ops, "ms"});
  out.push_back({"psrv.wire_bytes_per_user_byte",
                 static_cast<double>(m.after.wire.total_bytes() -
                                     m.before.wire.total_bytes()) /
                     (2.0 * user_bytes),
                 "ratio"});
  out.push_back({"psrv.view_misses",
                 static_cast<double>(sa.view_misses - sb.view_misses), "count"});

  // proc: the whole process (ranks and psrv servers) during the loop.
  const double user = m.after.usage.user_s - m.before.usage.user_s;
  const double sys = m.after.usage.sys_s - m.before.usage.sys_s;
  out.push_back({"proc.minflt_per_op",
                 (m.after.usage.minflt - m.before.usage.minflt) / ops, "count"});
  out.push_back({"proc.sys_frac", user + sys > 0 ? sys / (user + sys) : 0.0,
                 "ratio"});
  out.push_back({"proc.cpu_ms_per_op", (user + sys) * 1e3 / ops, "ms"});

  // trace: self time of the op spans (storage spans of the same op on the
  // same thread are their children) and the cost of tracing.
  std::map<std::pair<int, std::int64_t>, double> child_ms;
  for (const Span& s : spans)
    if (std::strncmp(s.name, "pfs.", 4) == 0 && s.op >= 0)
      child_ms[{s.tid, s.op}] += s.ms();
  double self_ms = 0, nops = 0;
  for (const Span& s : spans)
    if (std::strncmp(s.name, "mpiio.", 6) == 0) {
      const auto it = child_ms.find({s.tid, s.op});
      self_ms += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
      nops += 1;
    }
  out.push_back({"trace.mpiio_self_ms", nops > 0 ? self_ms / nops : 0.0, "ms"});
  const double traced_ms = 1e3 * (quantile(latencies(m, wl.collective, true), 0.5) +
                                  quantile(latencies(m, wl.collective, false), 0.5));
  out.push_back({"trace.overhead_frac", traced_ms / untraced_ms - 1.0, "ratio"});
  out.push_back({"trace.spans", static_cast<double>(obs.log.spans().size()),
                 "count"});
  return out;
}

// ---- main ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file;
  double untraced_ms = 0;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--untraced-ms") {
      a.untraced_ms = std::strtod(v.c_str(), &end);
      if (*end != '\0') return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0 || a.trace < 0 ||
      (a.trace == 1 && a.untraced_ms <= 0))
    return std::nullopt;
  return a;
}

void print_json(bool correct, const Tally& tally,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted.load()),
              static_cast<long long>(tally.failed.load()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  std::optional<Workload> wl;
  if (args) wl = make_workload(args->workload);
  if (!wl) {
    std::fprintf(stderr,
                 "usage: llbench --workload coll-fine|coll-fine-list|"
                 "tiles-ckpt|indep-psrv --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--untraced-ms MS]\n"
                 "  --trace 1 needs --untraced-ms\n");
    return 2;
  }
  const std::vector<int> allowed = allowed_cpus();
  const int ncpus = static_cast<int>(allowed.size());
  const std::vector<int> cpus = rank_cpus(*wl, ncpus, allowed);
  std::printf("llbench %s: seed %llu, %.1f s, trace %d, %d ranks, %d psrv "
              "servers, %d cpus, ranks %s\n",
              wl->name.c_str(), static_cast<unsigned long long>(args->seed),
              args->seconds, args->trace, wl->ranks, wl->servers, ncpus,
              cpus.empty() ? "not pinned" : "pinned");
  if (wl->ranks + wl->servers > ncpus)
    std::fprintf(stderr, "llbench: %d threads on %d cpus\n",
                 wl->ranks + wl->servers, ncpus);

  Tally tally;
  std::vector<Metric> metrics;
  bool image_ok = true;
  try {
    if (args->trace == 0) {
      const Measured m =
          measure(*wl, args->seed, cpus, args->seconds, nullptr, tally);
      image_ok = m.image_ok;
      // Peak memory of the measured run alone: the set-ups that follow
      // churn the allocator and would add their own high-water mark.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
      std::vector<double> setups;
      for (int k = 0; k < kSetupRuns; ++k)
        setups.push_back(time_setup(*wl, args->seed, cpus, tally));
      std::printf("setup n=%d  median %.5f s  min %.5f s  max %.5f s\n",
                  kSetupRuns, quantile(setups, 0.5), quantile(setups, 0),
                  quantile(setups, 1));
      metrics = end_to_end(*wl, m, setups, peak_rss_mib);
    } else {
      Observer obs(wl->servers > 0 ? wl->servers : wl->ranks);
      const Measured m =
          measure(*wl, args->seed, cpus, args->seconds, &obs, tally);
      image_ok = m.image_ok;
      report_latency("write", latencies(m, wl->collective, true), wl->bytes_pp);
      report_latency("read", latencies(m, wl->collective, false), wl->bytes_pp);
      metrics = per_layer(*wl, args->seed, args->untraced_ms, m, obs);
      if (!args->trace_file.empty()) {
        if (obs.log.write_json(args->trace_file))
          std::printf("trace: %s\n", args->trace_file.c_str());
        else
          std::fprintf(stderr, "llbench: cannot write %s\n",
                       args->trace_file.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llbench: %s failed: %s\n", wl->name.c_str(),
                 e.what());
    tally.attempted += 1;
    tally.failed += 1;
  }
  if (!image_ok) std::printf("file image does not match what was written\n");
  for (const Metric& mt : metrics)
    std::printf("  %-32s %14.6g %s\n", mt.name.c_str(), mt.value, mt.unit);
  print_json(image_ok && tally.failed == 0, tally, metrics);
  return 0;
}
