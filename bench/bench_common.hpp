// Shared harness for the paper's `noncontig` synthetic benchmark (§4.1)
// and table rendering used by all figure/table reproductions.
//
// The workload matches the paper's Figure 4 setup: each of P processes
// accesses a shared file through a vector fileview (blocks of S_block
// bytes, stride P*S_block, displacement rank*S_block), writing and then
// reading back either a contiguous or an equally-shaped non-contiguous
// memory buffer.  Reported is the bandwidth per process B_pp.
//
// Runs are time-targeted: each data point repeats the operation until a
// minimum wall time is reached, so fast (listless) and slow (list-based)
// configurations are both measured meaningfully.  Scale knobs:
//   LLIO_BENCH_TARGET_KB   per-process payload per operation (default 1024)
//   LLIO_BENCH_MIN_SECONDS minimum measured seconds per point (default 0.15)
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/timer.hpp"
#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"
#include "mpiio/info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/backend_spec.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/posix_file.hpp"
#include "psrv/server_file.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/net_model.hpp"

namespace llio::bench {

inline Off env_off(const char* name, Off fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoll(v, nullptr, 10);
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

inline std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

/// The paper's Fig. 4 fileview for one rank.
inline dt::Type noncontig_filetype(Off nblock, Off sblock, int nprocs,
                                   int rank) {
  const dt::Type v =
      dt::hvector(nblock, sblock, Off{nprocs} * sblock, dt::byte());
  const Off bls[] = {1};
  const Off ds[] = {Off{rank} * sblock};
  return dt::resized(dt::hindexed(bls, ds, v), 0,
                     nblock * Off{nprocs} * sblock);
}

/// An equally-shaped non-contiguous memtype (stride 2x block, so the user
/// buffer is strided in memory like the paper's non-contiguous memtype).
inline dt::Type noncontig_memtype(Off nblock, Off sblock) {
  const dt::Type v = dt::hvector(nblock, sblock, 2 * sblock, dt::byte());
  return dt::resized(v, 0, 2 * nblock * sblock);
}

struct NoncontigConfig {
  mpiio::Method method = mpiio::Method::Listless;
  int nprocs = 2;
  Off nblock = 64;
  Off sblock = 8;
  bool nc_mem = true;
  bool nc_file = true;
  bool collective = false;
  bool write = true;
  Off target_bytes_pp = 1 << 20;
  double min_seconds = 0.15;
  sim::CommCostModel net;   ///< interconnect model (default: free)
  mpiio::Info hints;        ///< extra hints applied on top of the config

  /// Backend factory, called once per data point.  Unset = the backend
  /// spec (hint llio_backend, else env LLIO_BENCH_BACKEND, else "mem")
  /// built by psrv::make_backend.  Benches measuring networked backends
  /// (psrv) install their own and keep a handle on the pool for wire
  /// statistics.
  std::function<pfs::FilePtr()> make_backend;
};

struct BenchPoint {
  double seconds = 0;       ///< max across ranks, per repetition
  Off bytes_pp = 0;         ///< payload bytes per process per repetition
  int repeats = 1;
  Off list_bytes_sent = 0;  ///< per op, summed over ranks
  Off data_bytes_sent = 0;
  mpiio::IoOpStats op_stats;  ///< last op, folded (operator+=) over ranks

  /// File-op latency over the measured loop, all ranks pooled (needs
  /// llio_metrics=on so the backend is wrapped in a pfs::TracedFile;
  /// zero-count otherwise).
  obs::HistogramSummary pread_lat_us;
  obs::HistogramSummary pwrite_lat_us;

  double mbps_pp() const {
    return seconds > 0
               ? static_cast<double>(bytes_pp) / seconds / (1024.0 * 1024.0)
               : 0.0;
  }

  /// Extra JSON fields (leading comma) with the latency quantiles, for
  /// splicing into a bench's json: line; empty when metrics were off.
  std::string latency_json() const {
    if (pread_lat_us.count == 0 && pwrite_lat_us.count == 0) return {};
    std::string out;
    if (pread_lat_us.count > 0)
      out += strprintf(
          ",\"pread_us_p50\":%.3f,\"pread_us_p95\":%.3f,"
          "\"pread_us_p99\":%.3f",
          pread_lat_us.p50, pread_lat_us.p95, pread_lat_us.p99);
    if (pwrite_lat_us.count > 0)
      out += strprintf(
          ",\"pwrite_us_p50\":%.3f,\"pwrite_us_p95\":%.3f,"
          "\"pwrite_us_p99\":%.3f",
          pwrite_lat_us.p50, pwrite_lat_us.p95, pwrite_lat_us.p99);
    return out;
  }
};

/// Run one noncontig data point.  Returns per-process bandwidth info.
inline BenchPoint run_noncontig(const NoncontigConfig& cfg) {
  const Off unit = cfg.nblock * cfg.sblock;  // stream bytes per instance
  const Off instances = std::max<Off>(1, cfg.target_bytes_pp / unit);
  const Off nbytes = instances * unit;

  std::atomic<long> time_ns{0};
  std::atomic<int> repeats_out{1};
  std::atomic<Off> list_bytes{0}, data_bytes{0};
  std::mutex stats_mu;
  mpiio::IoOpStats folded;

  // The backend and the client interconnect are fixed before the world
  // is created, so the spec that selects them (hint llio_backend, else
  // env LLIO_BENCH_BACKEND) is resolved here rather than per-rank; its
  // net model drives both the client comm and the psrv wire.
  const pfs::BackendSpec spec = pfs::parse_backend_spec(
      cfg.hints.get("llio_backend")
          .value_or(env_str("LLIO_BENCH_BACKEND", "mem")));
  sim::CommCostModel net = cfg.net;
  if (!spec.net.empty()) net = sim::named_cost_model(spec.net);
  psrv::PoolConfig pc;
  pc.net = net;
  pfs::FilePtr fs = cfg.make_backend ? cfg.make_backend()
                                     : psrv::make_backend(spec, std::move(pc));
  if (!cfg.write) fs->resize(Off{cfg.nprocs} * nbytes + 64);

  sim::Runtime::run(cfg.nprocs, net, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.method = cfg.method;
    o = mpiio::apply_info(cfg.hints, o);
    mpiio::File f = mpiio::File::open(comm, fs, o);
    if (cfg.nc_file) {
      f.set_view(0, dt::byte(),
                 noncontig_filetype(cfg.nblock, cfg.sblock, cfg.nprocs,
                                    comm.rank()));
    } else {
      f.set_view(comm.rank() * nbytes, dt::byte(), dt::byte());
    }

    const dt::Type mt =
        cfg.nc_mem ? noncontig_memtype(cfg.nblock, cfg.sblock) : dt::byte();
    const Off count = cfg.nc_mem ? instances : nbytes;
    ByteVec buf(to_size(cfg.nc_mem ? instances * mt->extent() : nbytes),
                Byte{0x42});

    auto one_op = [&] {
      if (cfg.write) {
        if (cfg.collective)
          f.write_at_all(0, buf.data(), count, mt);
        else
          f.write_at(0, buf.data(), count, mt);
      } else {
        if (cfg.collective)
          f.read_at_all(0, buf.data(), count, mt);
        else
          f.read_at(0, buf.data(), count, mt);
      }
    };

    // Warm-up (also sizes the file for read-after-write consistency).
    one_op();
    comm.barrier();

    // Calibrate the repeat count on rank 0's timing.
    int repeats = 1;
    {
      WallTimer t;
      one_op();
      comm.barrier();
      const double once = t.seconds();
      repeats = once >= cfg.min_seconds
                    ? 1
                    : static_cast<int>(cfg.min_seconds / std::max(once, 1e-6)) +
                          1;
      repeats = std::min(repeats, 10000);
    }
    repeats = static_cast<int>(comm.allreduce_max(repeats));

    comm.barrier();
    if (comm.rank() == 0) {
      // Scope the trace and the metrics histograms to the measured loop:
      // warm-up and calibration ops would otherwise pollute both, and
      // obs::explain_pipeline() would stop reconciling with last_stats().
      // Every rank is parked at the barrier above, so nothing races this.
      if (obs::trace_enabled()) obs::Tracer::instance().clear();
      if (obs::metrics_enabled()) obs::Registry::instance().reset_values();
    }
    comm.barrier();
    WallTimer t;
    for (int i = 0; i < repeats; ++i) one_op();
    comm.barrier();
    const double total = t.seconds();

    if (comm.rank() == 0) {
      time_ns.store(static_cast<long>(total / repeats * 1e9));
      repeats_out.store(repeats);
    }
    list_bytes.fetch_add(f.last_stats().list_bytes_sent);
    data_bytes.fetch_add(f.last_stats().data_bytes_sent);
    {
      std::lock_guard<std::mutex> lk(stats_mu);
      folded += f.last_stats();
    }
    // Job-level observability close (collective): aggregates every rank's
    // phases/histograms and writes the llio_report JSON when asked for.
    if (!f.options().report_path.empty()) f.close();
  });

  BenchPoint p;
  p.seconds = static_cast<double>(time_ns.load()) / 1e9;
  p.bytes_pp = nbytes;
  p.repeats = repeats_out.load();
  p.list_bytes_sent = list_bytes.load();
  p.data_bytes_sent = data_bytes.load();
  p.op_stats = folded;
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::instance();
    p.pread_lat_us = reg.histogram_summary("file.pread_us");
    p.pwrite_lat_us = reg.histogram_summary("file.pwrite_us");
  }
  return p;
}

// ---- table rendering ---------------------------------------------------

/// Prints an aligned table and a machine-readable CSV block.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print(const std::string& title) const {
    std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
      widths[c] = columns_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
        widths[c] = std::max(widths[c], row[c].size());
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      std::printf("\n");
    };
    print_row(columns_);
    for (const auto& row : rows_) print_row(row);
    // CSV block for scripted consumption.
    std::printf("csv:");
    for (std::size_t c = 0; c < columns_.size(); ++c)
      std::printf("%s%s", c ? "," : "", columns_[c].c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      std::printf("csv:");
      for (std::size_t c = 0; c < row.size(); ++c)
        std::printf("%s%s", c ? "," : "", row[c].c_str());
      std::printf("\n");
    }
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_mbps(double v) {
  return v >= 100 ? strprintf("%.0f", v)
                  : (v >= 1 ? strprintf("%.1f", v) : strprintf("%.3f", v));
}

}  // namespace llio::bench
