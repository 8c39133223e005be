// The `noncontig` benchmark as a configurable CLI (the paper describes it
// as "highly configurable"; the fig* binaries run its canned sweeps).
//
//   bench_noncontig_cli [options]
//     --method list|listless|both   (default both)
//     --nblock N      vector length             (default 256)
//     --sblock N      block size in bytes       (default 8)
//     --procs N       processes                 (default 2)
//     --target-kb N   payload per process, KiB  (default 1024)
//     --collective    use collective access     (default independent)
//     --combo X       nc-nc | nc-c | c-nc | c-c (default nc-nc)
//     --read          measure read (default: write and read)
//     --write
//     --hint K=V      MPI_Info hint applied to the open (repeatable),
//                     e.g. --hint romio_ds_write=disable
//     --stats         print the per-op stats breakdown (format_stats)
//     --report [P]    job-level observability report: traces the run
//                     (llio_trace=spans, repeats pinned to 1 so the
//                     trace covers exactly the measured op)
//                     and sets llio_report so File::close() writes the
//                     cross-rank JSON (schema llio_report/v1, with the
//                     critical path over that trace) to P (default
//                     report.json)
//
// Prints B_pp plus the overhead decomposition (ol-list bytes shipped,
// copy/exchange/file time shares).  Exits 2 on a bad flag or hint.
#include <cstring>
#include <string>

#include "bench_common.hpp"

using namespace llio;
using namespace llio::bench;

namespace {

struct CliArgs {
  std::string method = "both";
  Off nblock = 256;
  Off sblock = 8;
  int procs = 2;
  Off target_kb = 1024;
  bool collective = false;
  std::string combo = "nc-nc";
  bool do_write = true;
  bool do_read = true;
  bool stats = false;
  std::string report_path;  ///< --report: write llio_report JSON here
  mpiio::Info hints;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_noncontig_cli [--method list|listless|both] "
               "[--nblock N] [--sblock N] [--procs N] [--target-kb N] "
               "[--collective] [--combo nc-nc|nc-c|c-nc|c-c] "
               "[--read] [--write] [--hint K=V] [--stats] "
               "[--report [path]]\n");
  std::exit(2);
}

CliArgs parse(int argc, char** argv) {
  CliArgs a;
  bool rw_explicit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--method") a.method = next();
    else if (arg == "--nblock") a.nblock = std::atoll(next());
    else if (arg == "--sblock") a.sblock = std::atoll(next());
    else if (arg == "--procs") a.procs = std::atoi(next());
    else if (arg == "--target-kb") a.target_kb = std::atoll(next());
    else if (arg == "--collective") a.collective = true;
    else if (arg == "--combo") a.combo = next();
    else if (arg == "--hint") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) usage();
      a.hints.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    else if (arg == "--stats") a.stats = true;
    else if (arg == "--report") {
      // Optional path operand; a following option keeps the default.
      a.report_path = "report.json";
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        a.report_path = argv[++i];
    }
    else if (arg == "--read") { if (!rw_explicit) a.do_write = false; a.do_read = true; rw_explicit = true; }
    else if (arg == "--write") { if (!rw_explicit) a.do_read = false; a.do_write = true; rw_explicit = true; }
    else usage();
  }
  if (a.nblock < 1 || a.sblock < 1 || a.procs < 1 || a.target_kb < 1) usage();
  if (a.combo != "nc-nc" && a.combo != "nc-c" && a.combo != "c-nc" &&
      a.combo != "c-c")
    usage();
  if (a.method != "list" && a.method != "listless" && a.method != "both")
    usage();
  return a;
}

void run_one(const CliArgs& a, mpiio::Method m, bool write) {
  NoncontigConfig cfg;
  cfg.method = m;
  cfg.nprocs = a.procs;
  cfg.nblock = a.nblock;
  cfg.sblock = a.sblock;
  cfg.nc_mem = a.combo == "nc-nc" || a.combo == "nc-c";
  cfg.nc_file = a.combo == "nc-nc" || a.combo == "c-nc";
  cfg.collective = a.collective;
  cfg.write = write;
  cfg.target_bytes_pp = a.target_kb * 1024;
  cfg.min_seconds = env_double("LLIO_BENCH_MIN_SECONDS", 0.2);
  cfg.hints = a.hints;
  if (!a.report_path.empty()) {
    // One measured op, traced: the report's critical path then covers
    // exactly the op whose last_stats() the bench prints (run_noncontig
    // clears the tracer right before the measured loop).
    cfg.min_seconds = 0;
    // Default-enable; never downgrade a level already set via a --hint or
    // the LLIO_TRACE environment.
    if (!cfg.hints.get("llio_trace") && !obs::trace_enabled())
      cfg.hints.set("llio_trace", "spans");
    if (!cfg.hints.get("llio_report"))
      cfg.hints.set("llio_report", a.report_path);
  }
  const BenchPoint p = run_noncontig(cfg);
  std::printf("%-10s %-5s  Bpp %10s   payload/proc %s  repeats %d  "
              "ol-list bytes/op %lld\n",
              mpiio::method_name(m), write ? "write" : "read",
              fmt_mbps(p.mbps_pp()).c_str(),
              human_bytes(p.bytes_pp).c_str(), p.repeats,
              static_cast<long long>(p.list_bytes_sent));
  std::printf(
      "json:{\"bench\":\"noncontig_cli\",\"method\":\"%s\",\"op\":\"%s\","
      "\"mbps_pp\":%.3f,\"repeats\":%d}\n",
      mpiio::method_name(m), write ? "write" : "read", p.mbps_pp(),
      p.repeats);
  if (a.stats)
    std::printf("%s", mpiio::format_stats(p.op_stats).c_str());
  if (!a.report_path.empty())
    std::printf("report: %s\n", a.report_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs a = parse(argc, argv);
  std::printf("noncontig: Nblock=%lld Sblock=%lldB P=%d %s %s\n",
              (long long)a.nblock, (long long)a.sblock, a.procs,
              a.combo.c_str(), a.collective ? "collective" : "independent");
  try {
    for (mpiio::Method m :
         {mpiio::Method::ListBased, mpiio::Method::Listless}) {
      if (a.method == "list" && m != mpiio::Method::ListBased) continue;
      if (a.method == "listless" && m != mpiio::Method::Listless) continue;
      if (a.do_write) run_one(a, m, true);
      if (a.do_read) run_one(a, m, false);
    }
  } catch (const Error& e) {
    // A malformed hint (e.g. a bad llio_backend spec) exits like a bad
    // flag does.
    std::fprintf(stderr, "bench_noncontig_cli: %s\n", e.what());
    return 2;
  }
  return 0;
}
