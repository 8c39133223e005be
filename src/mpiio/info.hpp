// MPI_Info-style string hints, mapped onto mpiio::Options.
//
// Recognized keys (ROMIO-compatible names where one exists):
//   llio_method          "listless" | "list-based"
//   cb_buffer_size       two-phase / sieving file buffer, bytes
//   ind_rd_buffer_size / ind_wr_buffer_size
//                        accepted aliases for the same buffer
//   pack_buffer_size     pack buffer, bytes
//   cb_nodes             number of I/O processes (0 = all)
//   romio_cb_write / romio_cb_read
//                        "enable" | "disable" | "automatic"
//   romio_ds_write / romio_ds_read
//                        "enable" (always sieve) | "disable" (direct) |
//                        "automatic" (fill-ratio heuristic, paper §5)
//   llio_sieve_min_fill  fill-ratio threshold in [0, 1] for "automatic"
//   llio_merge_contig    "auto" (exact mergeview analysis: skip the
//                        collective-write pre-read on hole-free windows,
//                        bypass the exchange for dense disjoint ranges) |
//                        "off" (always pre-read dirty windows) |
//                        "force" (never pre-read; unsafe on holey views)
//   llio_pipeline_depth  collective windows in flight on the IOP side
//                        (0 = serial two-phase, >= 2 overlaps file I/O
//                        with gather/scatter)
//   llio_iov_batch_max   max segments per vectored file access in the
//                        direct (non-sieving) paths, count >= 1
//   llio_trace           "off" | "spans" (engine phases, pipeline
//                        windows) | "full" (adds per-file-op, comm, and
//                        pack-kernel spans) — sets the process-global
//                        tracer at open
//   llio_trace_file      path the Chrome trace JSON is written to at
//                        process exit
//   llio_metrics         "on" | "off" — process-global metrics registry
//                        (latency/size histograms, counters)
//
// Unknown keys are preserved but ignored (MPI_Info semantics).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "mpiio/options.hpp"

namespace llio::mpiio {

class Info {
 public:
  Info() = default;
  Info(std::initializer_list<std::pair<const std::string, std::string>> kv)
      : entries_(kv) {}

  void set(const std::string& key, const std::string& value) {
    entries_[key] = value;
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  bool erase(const std::string& key) { return entries_.erase(key) > 0; }

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

/// Apply recognized hints on top of `base`; throws Errc::InvalidArgument
/// for recognized keys with malformed values.
Options apply_info(const Info& info, Options base);

/// Render the effective options back as hints (File::info()).
Info options_to_info(const Options& o);

}  // namespace llio::mpiio
