#include "mpiio/info.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "common/format.hpp"
#include "pfs/backend_spec.hpp"

namespace llio::mpiio {

namespace {

Off parse_bytes(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  LLIO_REQUIRE(end != v.c_str() && *end == '\0' && n > 0,
               Errc::InvalidArgument, "hint " + key + ": bad byte count");
  return static_cast<Off>(n);
}

int parse_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  LLIO_REQUIRE(end != v.c_str() && *end == '\0' && n >= 0,
               Errc::InvalidArgument, "hint " + key + ": bad integer");
  return static_cast<int>(n);
}

bool parse_enable(const std::string& key, const std::string& v) {
  if (v == "enable" || v == "true") return true;
  if (v == "disable" || v == "false") return false;
  throw_error(Errc::InvalidArgument,
              "hint " + key + ": expected enable/disable");
}

Sieving parse_sieving(const std::string& key, const std::string& v) {
  if (v == "enable") return Sieving::Always;
  if (v == "disable") return Sieving::Never;
  if (v == "automatic") return Sieving::Automatic;
  throw_error(Errc::InvalidArgument,
              "hint " + key + ": expected enable/disable/automatic");
}

}  // namespace

Options apply_info(const Info& info, Options base) {
  for (const auto& [key, value] : info.entries()) {
    if (key == "llio_method") {
      if (value == "listless")
        base.method = Method::Listless;
      else if (value == "list-based")
        base.method = Method::ListBased;
      else
        throw_error(Errc::InvalidArgument,
                    "hint llio_method: expected listless/list-based");
    } else if (key == "cb_buffer_size" || key == "ind_rd_buffer_size" ||
               key == "ind_wr_buffer_size") {
      base.file_buffer_size = parse_bytes(key, value);
    } else if (key == "pack_buffer_size") {
      base.pack_buffer_size = parse_bytes(key, value);
    } else if (key == "cb_nodes") {
      base.io_procs = parse_int(key, value);
    } else if (key == "romio_cb_write") {
      base.cb_write = value == "automatic" ? true : parse_enable(key, value);
    } else if (key == "romio_cb_read") {
      base.cb_read = value == "automatic" ? true : parse_enable(key, value);
    } else if (key == "romio_ds_write") {
      base.ds_write = parse_sieving(key, value);
    } else if (key == "romio_ds_read") {
      base.ds_read = parse_sieving(key, value);
    } else if (key == "llio_sieve_min_fill") {
      char* end = nullptr;
      const double f = std::strtod(value.c_str(), &end);
      LLIO_REQUIRE(end != value.c_str() && *end == '\0' && f >= 0.0 &&
                       f <= 1.0,
                   Errc::InvalidArgument,
                   "hint llio_sieve_min_fill: expected a ratio in [0, 1]");
      base.sieve_min_fill = f;
    } else if (key == "llio_merge_contig") {
      if (value == "auto")
        base.merge_contig = MergeContig::Auto;
      else if (value == "off")
        base.merge_contig = MergeContig::Off;
      else
        throw_error(Errc::InvalidArgument,
                    "hint llio_merge_contig: expected auto/off");
    } else if (key == "llio_pipeline_depth") {
      base.pipeline_depth = parse_int(key, value);
    } else if (key == "llio_iov_batch_max") {
      const int n = parse_int(key, value);
      LLIO_REQUIRE(n >= 1, Errc::InvalidArgument,
                   "hint llio_iov_batch_max: expected a count >= 1");
      base.iov_batch_max = n;
    } else if (key == "llio_zerocopy") {
      if (value == "auto")
        base.zerocopy = Zerocopy::Auto;
      else if (value == "off")
        base.zerocopy = Zerocopy::Off;
      else
        throw_error(Errc::InvalidArgument,
                    "hint llio_zerocopy: expected off/auto");
    } else if (key == "llio_zerocopy_min_run") {
      base.zerocopy_min_run = parse_bytes(key, value);
    } else if (key == "llio_zerocopy_max_runs") {
      base.zerocopy_max_runs = parse_bytes(key, value);
    } else if (key == "llio_backend") {
      pfs::parse_backend_spec(value);  // validate now, build in the harness
      base.backend = value;
    } else if (key == "llio_trace") {
      if (value == "off")
        base.trace = obs::TraceLevel::Off;
      else if (value == "spans")
        base.trace = obs::TraceLevel::Spans;
      else if (value == "full")
        base.trace = obs::TraceLevel::Full;
      else
        throw_error(Errc::InvalidArgument,
                    "hint llio_trace: expected off/spans/full");
    } else if (key == "llio_trace_file") {
      LLIO_REQUIRE(!value.empty(), Errc::InvalidArgument,
                   "hint llio_trace_file: empty path");
      base.trace_file = value;
    } else if (key == "llio_report") {
      LLIO_REQUIRE(!value.empty(), Errc::InvalidArgument,
                   "hint llio_report: empty path");
      base.report_path = value;
    }
    // Unknown keys are ignored, as MPI_Info requires.
  }
  return base;
}

namespace {
const char* sieving_name(Sieving s) {
  switch (s) {
    case Sieving::Always: return "enable";
    case Sieving::Never: return "disable";
    case Sieving::Automatic: return "automatic";
  }
  return "enable";
}
}  // namespace

Info options_to_info(const Options& o) {
  Info info;
  info.set("llio_method",
           o.method == Method::Listless ? "listless" : "list-based");
  info.set("cb_buffer_size", strprintf("%lld", (long long)o.file_buffer_size));
  info.set("pack_buffer_size",
           strprintf("%lld", (long long)o.pack_buffer_size));
  info.set("cb_nodes", strprintf("%d", o.io_procs));
  info.set("romio_cb_write", o.cb_write ? "enable" : "disable");
  info.set("romio_cb_read", o.cb_read ? "enable" : "disable");
  info.set("romio_ds_write", sieving_name(o.ds_write));
  info.set("romio_ds_read", sieving_name(o.ds_read));
  info.set("llio_sieve_min_fill", strprintf("%.3f", o.sieve_min_fill));
  info.set("llio_merge_contig", merge_contig_name(o.merge_contig));
  info.set("llio_pipeline_depth", strprintf("%d", o.pipeline_depth));
  info.set("llio_iov_batch_max", strprintf("%lld", (long long)o.iov_batch_max));
  info.set("llio_zerocopy", zerocopy_name(o.zerocopy));
  info.set("llio_zerocopy_min_run",
           strprintf("%lld", (long long)o.zerocopy_min_run));
  info.set("llio_zerocopy_max_runs",
           strprintf("%lld", (long long)o.zerocopy_max_runs));
  if (!o.backend.empty()) info.set("llio_backend", o.backend);
  // Observability hints appear only when explicitly set: unset means
  // "leave the process-global tracer alone".
  if (o.trace) info.set("llio_trace", obs::trace_level_name(*o.trace));
  if (o.trace_file) info.set("llio_trace_file", *o.trace_file);
  if (!o.report_path.empty()) info.set("llio_report", o.report_path);
  return info;
}

}  // namespace llio::mpiio
